"""Batch front-end: enumeration, construction, verification and
identification with machine-readable output.

Vertex numbering on the command line is 1-based (Bourbaki); everything
internal is 0-based.  Exit codes: 0 success, 1 verification failure,
2 usage error or malformed input.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections.abc import Iterator
from itertools import combinations
from types import SimpleNamespace
from weakref import WeakKeyDictionary

from .bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    identity_automorphism,
    is_nilpotent,
    preserves_pairing,
)
from .core import GaussianRational, Tensor2
from .involution import Involution, canonical_involution
from .manin import double_factorizable, double_imaginary
from .parameter import (
    ContinuousParameter,
    NoBialgebraDatum,
    apply_reality,
    solve_parameters,
)
from .realform import identify
from .rmatrix import (
    BialgebraDatum,
    classify,
    default_t,
    iter_data,
    make_datum,
    verify_datum,
)
from .rootsystem import RootSystem, SimpleType, build_root_system

SIGMA_CHOICES = ("varsigma", "varsigma-mu", "omega", "omega-J", "omega-mu-J", "all")

ROW_LABELS = {
    "varsigma": "split (all triples, real parameters)",
    "varsigma_mu": "quasi-split (mu-stable triples)",
    "omega": "compact (empty triple, imaginary parameters)",
    "omega_J": "inner (empty triple, imaginary parameters)",
    "omega_mu_J": "outer (mu-antistable triples)",
}


def _fail(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _root_system(args) -> RootSystem:
    try:
        return build_root_system(args.type.upper(), args.rank)
    except ValueError as exc:
        raise _fail(str(exc))


def _parse_mu(rs: RootSystem, text: str | None, want_nontrivial: bool):
    """The mu of a request.  The diagram symmetries are searched only for
    a nontrivial mu or to check a permutation given by --mu."""
    if text is None:
        if not want_nontrivial:
            return identity_automorphism(rs.rank)
        for mu in diagram_automorphisms(rs):
            if not mu.is_identity():
                return mu
        raise _fail(f"{rs.type} has no nontrivial diagram automorphism")
    try:
        mu = DiagramAutomorphism(tuple(int(x) - 1 for x in text.split(",")))
    except ValueError:
        raise _fail(f"bad permutation {text!r}")
    if mu not in diagram_automorphisms(rs):
        raise _fail(f"{text} is not an order-2 diagram automorphism of {rs.type}")
    if want_nontrivial != (not mu.is_identity()):
        raise _fail("--mu does not match the requested sigma kind")
    return mu


def _parse_indices(text: str | None, rank: int):
    if not text:
        return ()
    try:
        idx = tuple(sorted(int(x) - 1 for x in text.split(",")))
    except ValueError:
        raise _fail(f"bad index list {text!r}")
    if any(i < 0 or i >= rank for i in idx):
        raise _fail(f"index out of range in {text!r}")
    if len(set(idx)) != len(idx):
        raise _fail(f"repeated vertex in {text!r}")
    return idx


def _vertices(x, n: int, what: str) -> list:
    if not (isinstance(x, list) and all(type(i) is int and 0 <= i < n for i in x)):
        raise ValueError(f"{what} must be a list of vertices in 0..{n - 1}")
    return x


def _parse_triple(rs: RootSystem, doc) -> BDTriple:
    """A triple from its JSON form (0-based vertices).

    Raises ValueError unless tau is a nilpotent, pairing-preserving
    bijection gamma1 -> gamma2 of vertices below the rank."""
    n = rs.rank
    if not isinstance(doc, dict):
        raise ValueError("the triple must be an object {gamma1, gamma2, tau}")
    g1 = _vertices(doc.get("gamma1"), n, "gamma1")
    g2 = _vertices(doc.get("gamma2"), n, "gamma2")
    pairs = doc.get("tau")
    if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise ValueError("tau must be a list of [i, tau(i)] pairs")
    domain = _vertices([i for i, _ in pairs], n, "the domain of tau")
    image = _vertices([j for _, j in pairs], n, "the image of tau")
    if not (
        sorted(domain) == sorted(set(g1)) == sorted(g1)
        and sorted(image) == sorted(set(g2)) == sorted(g2)
    ):
        raise ValueError("tau must be a bijection gamma1 -> gamma2")
    mapping = dict(zip(domain, image))
    if not preserves_pairing(rs, mapping):
        raise ValueError("tau must preserve the root pairing")
    if not is_nilpotent(g1, g2, mapping):
        raise ValueError("tau must be nilpotent")
    return BDTriple.from_json(doc)


def _sigma_from_args(rs: RootSystem, args) -> Involution:
    kind = args.sigma
    if kind in (None, "all"):
        raise _fail("this command needs a concrete --sigma")
    if args.J is not None and args.painted is not None:
        raise _fail("give --J or --painted, not both")
    if kind not in ("omega-J", "omega-mu-J") and (args.J, args.painted) != (None, None):
        raise _fail(f"--J and --painted apply to omega-J and omega-mu-J, not {kind}")
    if kind == "varsigma":
        return canonical_involution(rs, "varsigma", _parse_mu(rs, args.mu, False))
    if kind == "varsigma-mu":
        return canonical_involution(rs, "varsigma", _parse_mu(rs, args.mu, True))
    mu = _parse_mu(rs, args.mu, kind == "omega-mu-J")
    fixed = mu.fixed_points()
    if kind == "omega":
        return canonical_involution(rs, "omega", mu, fixed)
    if args.painted is not None:
        painted = _parse_indices(args.painted, rs.rank)
        if not set(painted) <= set(fixed):
            raise _fail("painted vertices must be mu-fixed")
        j = tuple(sorted(set(fixed) - set(painted)))
    else:
        j = _parse_indices(args.J, rs.rank)
        if not set(j) <= set(fixed):
            raise _fail("J must consist of mu-fixed vertices")
    return canonical_involution(rs, "omega", mu, j)


def _sigma_variants(rs: RootSystem, which: str):
    """All canonical involutions of the requested table rows.  The
    diagram symmetries are searched only for the rows with a nontrivial
    mu."""
    out = []
    if which in ("varsigma-mu", "omega-mu-J", "all"):
        nontrivial = [m for m in diagram_automorphisms(rs) if not m.is_identity()]
    ident = identity_automorphism(rs.rank)
    if which in ("varsigma", "all"):
        out.append(canonical_involution(rs, "varsigma", ident))
    if which in ("varsigma-mu", "all"):
        for mu in nontrivial:
            out.append(canonical_involution(rs, "varsigma", mu))
    if which in ("omega", "all"):
        out.append(canonical_involution(rs, "omega", ident, tuple(range(rs.rank))))
    if which in ("omega-J", "all"):
        for k in range(rs.rank):
            for j in combinations(range(rs.rank), k):
                out.append(canonical_involution(rs, "omega", ident, j))
    if which in ("omega-mu-J", "all"):
        for mu in nontrivial:
            for k in range(len(mu.fixed_points()) + 1):
                for j in combinations(mu.fixed_points(), k):
                    out.append(canonical_involution(rs, "omega", mu, j))
    return out


def cmd_enumerate(args) -> int:
    rs = _root_system(args)
    what = args.what
    if what == "root-system":
        _emit(args, rs.to_json())
        return 0
    if what == "bd-triples":
        rows = (bd.to_json() for bd in enumerate_bd_triples(rs))
    elif what == "involutions":
        # listed, not streamed: the rows of different kinds have different keys
        rows = [
            dict(s.to_json(), label=s.describe())
            for s in _sigma_variants(rs, args.sigma or "all")
        ]
    else:
        rows = _bialgebra_rows(rs, _sigma_variants(rs, args.sigma or "all"), args.materialize)
    _emit(args, {"type": str(rs.type), "what": what, "rows": rows})
    return 0


def _bialgebra_rows(rs: RootSystem, sigmas: list, materialize: bool):
    """The table's rows, one per datum of iter_data, as it yields them.
    The parameter space is the shared object itself: the writer renders
    it once for all the rows that hold it."""
    current = real_form = label = None
    for sigma, space, datum in iter_data(rs, sigmas):
        if sigma is not current:
            current, real_form, label = sigma, identify(rs, sigma).name, sigma.describe()
        row = {
            "row": ROW_LABELS[label],
            "sigma": sigma.to_json(),
            "sigma_label": label,
            "real_form": real_form,
            "bd": datum.bd.to_json(),
            "parameter_dimension": space.dimension,
            "parameter_space": space,
            "t_class": datum.t_class,
        }
        if materialize:
            row["datum"] = datum.to_json()
        yield row


def cmd_build(args) -> int:
    rs = _root_system(args)
    sigma = _sigma_from_args(rs, args)
    try:
        bd = _parse_triple(rs, json.loads(args.bd)) if args.bd else BDTriple.empty()
        # each JSON number by its literal text, as --t is read, where a float
        # would round it; NaN and Infinity then fail as literals do
        coeffs = json.loads(args.coefficients or "[]", parse_float=str, parse_constant=str)
        if not isinstance(coeffs, list):
            raise ValueError("--coefficients must be a JSON list")
        coeffs = [GaussianRational.parse(str(c)) for c in coeffs]
        if args.t in (None, "real", "imaginary"):
            t = GaussianRational(1) if args.t == "real" else (
                GaussianRational(0, 1) if args.t == "imaginary" else default_t(sigma)
            )
        else:
            t = GaussianRational.parse(args.t)
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(f"malformed argument: {exc}")
    try:
        space = apply_reality(solve_parameters(rs, bd), sigma, bd)
    except NoBialgebraDatum as exc:
        raise _fail(str(exc))
    if len(coeffs) > space.dimension:
        raise _fail(f"at most {space.dimension} direction coefficients allowed")
    coeffs += [GaussianRational(0)] * (space.dimension - len(coeffs))
    lam = space.point(coeffs)
    try:
        datum = make_datum(rs, sigma, bd, lam, t)
    except (NoBialgebraDatum, ValueError) as exc:
        raise _fail(str(exc))
    _emit(args, datum.to_json())
    return 0


def _pair(x, what: str) -> list:
    if not (isinstance(x, list) and len(x) == 2):
        raise ValueError(f"{what} must be a [re, im] pair")
    return x


def _tensor(doc, rs: RootSystem, what: str) -> Tensor2:
    dim = doc["dim"]
    if type(dim) is not int or dim != rs.dim:  # 8.0 and True compare equal to ints
        raise ValueError(f"{what} has dim {dim!r}, {rs.type} needs {rs.dim}")
    return Tensor2.from_json(doc)


def datum_from_json(doc: dict) -> BialgebraDatum:
    """Parse a datum document, checking its shape against its type.

    Raises KeyError for a missing field and ValueError (or TypeError) for
    a malformed one."""
    if not isinstance(doc["type"], str):
        raise ValueError("type must be a string")
    typ = SimpleType.parse(doc["type"])
    rs = build_root_system(typ.series, typ.rank)
    n = rs.rank
    sig = doc["sigma"]
    if not isinstance(sig, dict):
        raise ValueError("sigma must be an object {kind, mu, J}")
    mu = DiagramAutomorphism(tuple(_vertices(sig.get("mu", list(range(n))), n, "sigma.mu")))
    if mu not in diagram_automorphisms(rs):
        raise ValueError(f"sigma.mu is not an order-2 symmetry of {rs.type}")
    j = _vertices(sig.get("J", []), n, "sigma.J")
    if len(set(j)) != len(j):
        raise ValueError("sigma.J repeats a vertex")
    sigma = canonical_involution(rs, sig["kind"], mu, tuple(j))
    label = sigma.describe()
    stored = doc["sigma_label"]
    if stored != label:
        raise ValueError(f"sigma_label {stored!r} does not match sigma ({label!r})")
    bd = _parse_triple(rs, doc["bd"])
    rows = doc["lambda"]
    if not (
        isinstance(rows, list)
        and len(rows) == n
        and all(isinstance(row, list) and len(row) == n for row in rows)
    ):
        raise ValueError(f"lambda must be a {n} x {n} matrix")
    lam = ContinuousParameter.from_json(
        [[_pair(x, "each lambda entry") for x in row] for row in rows]
    )
    t = GaussianRational.from_json(_pair(doc["t"], "t"))
    r0 = _tensor(doc["r0"], rs, "r0")
    r = _tensor(doc["r"], rs, "r")
    datum = BialgebraDatum(rs, sigma, bd, lam, t, r0, r)
    if doc["t_class"] != datum.t_class:
        raise ValueError(f"t_class {doc['t_class']!r} does not match t ({datum.t_class!r})")
    return datum


def cmd_verify(args) -> int:
    try:
        with open(args.input) as fh:
            doc = json.load(fh)
        datum = datum_from_json(doc)
    except OSError as exc:
        raise _fail(f"cannot read {args.input}: {exc.strerror}")
    except KeyError as exc:
        raise _fail(f"malformed datum: missing field {exc}")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise _fail(f"malformed datum: {exc}")
    checks = verify_datum(datum, check_cybe=not args.skip_cybe)
    if args.manin:
        try:
            triple = (
                double_factorizable(datum.rs, datum)
                if datum.t.is_real()
                else double_imaginary(datum.rs, datum)
            )
            for key, val in triple.verify().items():
                checks[f"manin_{key}"] = val
        except ValueError:
            checks["manin_constructible"] = False
    _emit(args, {"checks": checks, "pass": all(checks.values())})
    return 0 if all(checks.values()) else 1


def cmd_identify(args) -> int:
    rs = _root_system(args)
    sigma = _sigma_from_args(rs, args)
    report = identify(rs, sigma)
    _emit(args, report.to_json())
    return 0


def cmd_classify(args) -> int:
    rs = _root_system(args)
    sigmas = _sigma_variants(rs, args.sigma or "all")
    total = 0

    def data():
        nonlocal total
        for _, _, datum in iter_data(rs, sigmas):
            total += 1
            yield datum

    rows = classify(data())
    _emit(
        args,
        {
            "type": str(rs.type),
            "total_data": total,
            "classes": len(rows),
            "representatives": rows,
        },
    )
    return 0


# ---- output -----------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(x, nl: str = "\n", texts: WeakKeyDictionary | None = None) -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes it, for str,
    int, bool, None, and lists, tuples and str-keyed dicts of those; nl
    is the newline and indent of x's closing bracket.  An object with a
    to_json method (a ParameterSpace, which several rows share) is
    written as what that returns; texts, when given, keeps its text per
    depth while the object lives, so it is rendered once.  Raises
    TypeError on any other type (a float or a subclass, say), so it
    never differs silently from json.dumps, whose pure-Python encoder it
    replaces."""
    t = type(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        try:  # all items str, as in every [re, im] scalar pair: one pass
            return "[" + inner + ("," + inner).join(map(_encode_str, x)) + nl + "]"
        except TypeError:
            items = [_json_text(v, inner, texts) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is str:
        return _encode_str(x)
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        # _encode_str raises TypeError on a key that is not a str
        items = [_encode_str(k) + ": " + _json_text(x[k], inner, texts) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is int:
        return int.__repr__(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    if hasattr(x, "to_json"):
        if texts is None:
            return _json_text(x.to_json(), nl)
        mine = texts.setdefault(x, {})
        if nl not in mine:
            mine[nl] = _json_text(x.to_json(), nl)
        return mine[nl]
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _plain(row: dict) -> dict:
    """row with each model object replaced by its to_json()."""
    return {k: v.to_json() if hasattr(v, "to_json") else v for k, v in row.items()}


def _json_pieces(payload: dict):
    """payload as _json_text writes it, in pieces; an iterator value (the
    rows of enumerate) is written one item at a time, at its depth."""
    sep, texts = "{", WeakKeyDictionary()
    for key in sorted(payload):
        value = payload[key]
        yield sep + "\n  " + _encode_str(key) + ": "
        sep = ","
        if isinstance(value, Iterator):
            start = "["
            for item in value:
                yield start + "\n    " + _json_text(item, "\n    ", texts)
                start = ","
            yield "[]" if start == "[" else "\n  ]"
        else:
            yield _json_text(value, "\n  ")
    yield "\n}\n" if payload else "{}\n"


def _flatten(row: dict) -> dict:
    return {
        k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
        for k, v in _plain(row).items()
    }


def _csv_pieces(payload: dict):
    """One csv line per row of the payload's table ("rows" or
    "representatives"), or the payload itself as the one row when the
    table is absent or empty.  The header is the sorted union of the keys
    of a listed table; a streamed one is written as it comes, so its rows
    must have the first one's keys (DictWriter raises on any other)."""
    import csv

    key = "rows" if "rows" in payload else "representatives"
    rows = payload.get(key) or []
    if isinstance(rows, Iterator):
        first = next(rows, None)
        head = [] if first is None else [first]
    else:
        head, rows = rows, iter(())
    if not head:  # the payload is the one row
        head = [{**payload, key: []} if key in payload else payload]
    head = [_flatten(r) for r in head]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted({k for r in head for k in r}))
    writer.writeheader()
    writer.writerows(head)
    for row in rows:
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
        writer.writerow(_flatten(row))
    yield buf.getvalue()


def _pretty_pieces(payload: dict):
    """_pretty(payload) in pieces; an iterator value is written one item
    at a time."""
    sep = ""
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, Iterator):
            yield f"{sep}{key}:"
            empty = True
            for row in value:
                yield "\n" + _pretty(_plain(row), 1)
                empty = False
            if empty:
                yield "\n  (none)"
        else:
            yield sep + _pretty({key: value})
        sep = "\n"
    yield "\n"


_PIECES = {"json": _json_pieces, "csv": _csv_pieces, "pretty": _pretty_pieces}


def _emit(args, payload: dict):
    """Write payload to --out or stdout in args.format.  Its table
    ("rows") may be an iterator: each row is then rendered and written as
    it comes, so no table is held whole, and the bytes are those of the
    whole payload rendered at once."""
    pieces = _PIECES[args.format](payload)
    if not args.out:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise _fail(f"cannot write {args.out}: {exc.strerror}")


def _pretty(payload, indent=0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_pretty(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_pretty(v, indent) for v in payload) or f"{pad}(none)"
    return f"{pad}{payload}"


# ---- argv -------------------------------------------------------------------

# An option is (kind, default, required, help); its kind is str, int, a tuple
# of choices, or bool for a flag.  `--skip-cybe` sets the attribute skip_cybe.
_COMMON = {
    "type": (str, None, True, "series letter A..G"),
    "rank": (int, None, True, "rank of the simple type"),
    "sigma": (SIGMA_CHOICES, None, False, "kind of involution"),
    "mu": (str, None, False, "1-based permutation, e.g. 3,2,1"),
    "J": (str, None, False, "1-based mu-fixed vertices, e.g. 1,3"),
    "painted": (str, None, False, "1-based painted vertices (complement of J)"),
    "format": (("json", "csv", "pretty"), "json", False, "output format"),
    "out": (str, None, False, "write output to a file"),
}
# enumerate and classify walk every involution of --sigma, so they take none
# of the options that pick one
_TABLE = {o: spec for o, spec in _COMMON.items() if o not in ("mu", "J", "painted")}
_WHAT = ("bd-triples", "involutions", "bialgebras", "root-system")

# command: (handler, its one positional argument or None, help, options)
COMMANDS = {
    "enumerate": (cmd_enumerate, None, "list triples, involutions or data", {
        **_TABLE, "what": (_WHAT, "bialgebras", False, "what to list"),
        "materialize": (bool, False, False, "include the full datum (with tensors) in each row"),
    }),
    "build": (cmd_build, None, "materialize one datum with tensors", {
        **_COMMON, "bd": (str, None, False, "triple as JSON {gamma1, gamma2, tau}"),
        "t": (str, None, False, "scalar (1, 2, i, 3i) or the line keywords real/imaginary"),
        "coefficients": (str, None, False, "JSON list of direction coefficients"),
    }),
    "verify": (cmd_verify, "input", "check all identities of the datum JSON file INPUT", {
        "skip-cybe": (bool, False, False, "skip the classical Yang-Baxter check"),
        "manin": (bool, False, False, "also verify the double"),
        "format": _COMMON["format"], "out": _COMMON["out"],
    }),
    "identify": (cmd_identify, None, "name the real form of an involution", _COMMON),
    "classify": (cmd_classify, None, "deduplicate enumerated data", _TABLE),
}


def _option(options: dict, word: str):
    """(name, value after `=` or None) for an option or a unique prefix, None for a value."""
    key, eq, value = ("--help", "", "") if word == "-h" else word.partition("=")
    hits = [o for o in (*options, "help") if key[:2] == "--" and ("--" + o).startswith(key)]
    hits = [key[2:]] if key[2:] in hits else hits
    if len(hits) > 1:
        raise _fail(f"ambiguous option {key}: could be --{', --'.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    if word[:1] != "-" or word == "-" or re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word:
        return None
    raise _fail(f"unknown option {key}")


def _help(command: str | None) -> str:
    if command is None:
        head = "{" + ",".join(COMMANDS) + "} ...\n\nExact classification data for " \
            "almost-factorizable real simple Lie bialgebras"
        rows = [(c, spec[2]) for c, spec in COMMANDS.items()]
    else:
        _, positional, text, options = COMMANDS[command]
        words = [p.upper() for p in [positional] if p]
        words += [f"--{o} {o.upper()}" for o, spec in options.items() if spec[2]]
        head = " ".join([command, *words]) + f" [options]\n\n{text}"
        rows = [("-h, --help", "show this help and exit")] + [
            ("--" + o + ("" if kind is bool else f" {o.upper()}"),
             about if kind in (str, int, bool) else f"{about}: {', '.join(kind)}")
            for o, (kind, _, _, about) in options.items()
        ]
    width = max(len(a) for a, _ in rows)
    return f"usage: liebialg {head}\n\n" + "\n".join(f"  {a:<{width}}  {b}" for a, b in rows)


def parse_args(argv: list) -> SimpleNamespace:
    """The request that `argv` spells, read against COMMANDS as argparse reads
    it: `--name value` or `--name=value`, a unique prefix for a name, the
    last repeat wins, `--` ends the options.  Malformed argv exits 2 with one
    error line; -h or --help prints the usage and exits 0."""
    if not argv:
        raise _fail(f"missing command: choose one of {', '.join(COMMANDS)}")
    command = argv[0]
    if command not in COMMANDS and _option({}, command) != ("help", None):
        raise _fail(f"unknown command {command!r}: choose one of {', '.join(COMMANDS)}")
    func, positional, _, options = COMMANDS.get(command, (None, None, "", {}))
    args = {o: default for o, (_, default, _, _) in options.items()}
    values, words = [], iter(argv[1:] if func else argv)
    for word in words:
        hit = None if word == "--" else _option(options, word)
        if hit is None:
            values += words if word == "--" else [word]
            continue
        name, value = hit
        kind = options[name][0] if name in options else bool
        if kind is bool and value is not None:
            raise _fail(f"--{name} takes no value")
        if name == "help":
            print(_help(func and command))
            raise SystemExit(0)
        if kind is not bool and value is None:
            value = next(words, "--")
            if value == "--" or _option(options, value):
                raise _fail(f"--{name} needs a value")
        try:
            args[name] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            raise _fail(f"--{name} needs an integer, not {value!r}")
        if kind not in (str, int, bool) and value not in kind:
            raise _fail(f"--{name} must be one of {', '.join(kind)}, not {value!r}")
    if positional and values:
        args[positional] = values.pop(0)
    missing = [p.upper() for p in [positional] if p and p not in args]
    missing += [f"--{o}" for o, spec in options.items() if spec[2] and args[o] is None]
    if missing or values:
        raise _fail(f"missing {', '.join(missing)}" if missing else f"unexpected {values[0]!r}")
    args = {o.replace("-", "_"): v for o, v in args.items()}
    return SimpleNamespace(command=command, func=func, **args)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.out:
        # an unwritable path fails before any work; "a" leaves the file as
        # it is, so it is rewritten only once the output starts
        try:
            open(args.out, "a").close()
        except OSError as exc:
            raise _fail(f"cannot write {args.out}: {exc.strerror}")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
