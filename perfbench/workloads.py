"""Request lists for the three workloads, made from a seed.

A request is one CLI invocation in a fresh process.  The program sees only
the argv built here and, for `verify`, a datum file written by the runner.
The seed picks the request order and the sampled involutions, triples and
perturbations; the set of possible requests is finite (see `universe`) so
that every one of them can carry a golden digest, except the perturbed
negatives, whose verdict is known by construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from oracle import algebra_dim

WORKLOADS = ("table", "realforms", "doubles")

# Requests whose failure at the parent commit is a known defect of the
# program, with the failure kind it shows.  `fail_frac` counts them; a fix
# shows as a drop, any other failure makes the run incorrect.
KNOWN_DEFECTS = {
    # realform._name_omega_j names painted vertex n of C_n "sp(0,n)", and
    # the character guard then raises AssertionError.
    "enumerate C3": "crash",
    "enumerate C4": "crash",
    # verify does not check that the tensor carries the declared triple.
    "verify A2 declared-triple swap": "wrong_exit",
}


@dataclass
class Request:
    id: str
    command: str
    series: str
    rank: int
    argv: list
    expect_exit: int = 0
    # for verify: id of the build request whose output is the input datum,
    # and the edit applied to it before the run
    source: str | None = None
    transform: dict | None = None
    # real-form name the classification predicts for an identify request
    expect_name: str | None = None


def _args(series: str, rank: int) -> list:
    return ["--type", series, "--rank", str(rank)]


# ---- table ------------------------------------------------------------------

# The ladder of the classification table, sized so that one pass takes
# about 11 s on a 2-core machine and a run holds three passes.  Left out
# for now, with their single-run times: D5 (enumerate 57 s, classify 53 s),
# A5 enumerate (65 s) and E6 classify (over 400 s), which would each
# outlast a run; A4 (enumerate 5-6 s, classify 5 s), D4 (6.4 s, 4.6 s),
# F4 enumerate (6 s, almost all per-involution `identify`) and B4 and C4
# classify (1.2 s each), which would not leave room for three passes.
TABLE_ENUMERATE = ("A3", "B3", "C3", "G2", "B4", "C4")
TABLE_CLASSIFY = ("A3", "B3", "C3", "G2", "F4")


def _table(rng: random.Random) -> list:
    reqs = []
    for command, ladder in (("enumerate", TABLE_ENUMERATE), ("classify", TABLE_CLASSIFY)):
        for name in ladder:
            series, rank = name[0], int(name[1:])
            reqs.append(
                Request(f"{command} {name}", command, series, rank, [command] + _args(series, rank))
            )
    rng.shuffle(reqs)
    return reqs


# ---- realforms --------------------------------------------------------------

# Canonical involutions other than the split one, as CLI arguments, with the
# name of the real form from the Vogan-diagram classification (painted
# vertices in Bourbaki numbering).  Only involutions with a named form are
# sampled, so every sampled answer is checked against a name; within each
# list `identify` costs about the same (E7 split runs 15% faster than these,
# so it is not in the E7 pool).
E6_SPLIT = (["--sigma", "varsigma"], "EI")
E6_OTHERS = (
    (["--sigma", "varsigma-mu"], "EII"),
    (["--sigma", "omega"], "e6(c)"),
    (["--sigma", "omega-J", "--painted", "1"], "EIII"),
    (["--sigma", "omega-J", "--painted", "2"], "EII"),
    (["--sigma", "omega-J", "--painted", "6"], "EIII"),
    (["--sigma", "omega-mu-J", "--painted="], "EIV"),
    (["--sigma", "omega-mu-J", "--painted", "2"], "EI"),
    (["--sigma", "omega-mu-J", "--painted", "4"], "EI"),
)
E7_OTHERS = (
    (["--sigma", "omega"], "e7(c)"),
    (["--sigma", "omega-J", "--painted", "1"], "EVI"),
    (["--sigma", "omega-J", "--painted", "2"], "EV"),
    (["--sigma", "omega-J", "--painted", "7"], "EVII"),
)
F4_SAMPLE, E6_SAMPLE, E7_SAMPLE = 2, 1, 1


def f4_involutions() -> list:
    """Every canonical involution of F4: split, compact, and omega with each
    proper subset J of the (1-based) vertices."""
    out = [(["--sigma", "varsigma"], "FI"), (["--sigma", "omega"], "f4(c)")]
    for k in range(4):
        for j in combinations(range(1, 5), k):
            painted = sorted(set(range(1, 5)) - set(j))
            name = {(1,): "FI", (4,): "FII"}.get(tuple(painted))
            out.append((["--sigma", "omega-J", "--J=" + ",".join(map(str, j))], name))
    return out


def _identify(series, rank, sigma_args, name) -> Request:
    return Request(
        f"identify {series}{rank} {' '.join(sigma_args)}",
        "identify",
        series,
        rank,
        ["identify"] + _args(series, rank) + list(sigma_args),
        expect_name=name,
    )


# F4 split and compact, E6 split, and seeded samples of the other canonical
# involutions of F4, E6 and E7: one pass takes about 11 s.  E8 stays out:
# its root-system build (8 s) and `identify` (19 s) outlast a pass.
def _realforms(rng: random.Random) -> list:
    f4 = f4_involutions()
    reqs = [_identify("F", 4, a, n) for a, n in f4[:2] + rng.sample(f4[2:], F4_SAMPLE)]
    reqs.append(_identify("E", 6, *E6_SPLIT))
    reqs += [_identify("E", 6, a, n) for a, n in rng.sample(E6_OTHERS, E6_SAMPLE)]
    reqs += [_identify("E", 7, a, n) for a, n in rng.sample(E7_OTHERS, E7_SAMPLE)]
    rng.shuffle(reqs)
    return reqs


# ---- doubles ----------------------------------------------------------------

# Nontrivial Belavin-Drinfeld triples (0-based, as the CLI reads them): a
# bijection between two subsets of simple roots preserving the Cartan
# pairing and nilpotent.  The seed picks one per type from a set whose
# `verify --manin` costs the same: the two triples swapped by the diagram
# flip (for A3 the largest, with two vertices; one-vertex A3 triples run up
# to 25% faster).  B2 and G2 have no nontrivial triple, so they use the
# empty one.  B3 (`verify --manin` 8-10 s) and the imaginary A3 double
# (3 s) stay out so that one pass takes about 11 s.
def _bd(g1, g2):
    return {"gamma1": list(g1), "gamma2": list(g2), "tau": [[a, b] for a, b in zip(g1, g2)]}


EMPTY_BD = _bd((), ())
FACTORIZABLE_TRIPLES = {
    "A2": [_bd([0], [1]), _bd([1], [0])],
    "A3": [_bd([0, 1], [1, 2]), _bd([1, 2], [0, 1])],
    "B2": [EMPTY_BD],
    "G2": [EMPTY_BD],
}
IMAGINARY_TYPES = ("A2", "G2")
REAL_T = "2"
PERTURBATIONS = ("1", "-1", "2", "1/2")


def _build(name: str, sigma: str, bd: dict, t: str, tag: str = "") -> Request:
    series, rank = name[0], int(name[1:])
    argv = ["build"] + _args(series, rank) + ["--sigma", sigma, "--t", t]
    if bd["gamma1"]:
        argv += ["--bd", json.dumps(bd, sort_keys=True)]
    label = json.dumps(bd["tau"]) if bd["gamma1"] else "empty"
    return Request(f"build {name} {sigma} {label}{tag}", "build", series, rank, argv)


def _verify(build: Request, label: str, manin: bool, expect_exit: int, transform=None) -> Request:
    argv = ["verify", "{input}"] + (["--manin"] if manin else [])
    return Request(
        f"verify {label}",
        "verify",
        build.series,
        build.rank,
        argv,
        expect_exit=expect_exit,
        source=build.id,
        transform=transform,
    )


def _perturbation(rng: random.Random, dim: int) -> dict:
    return {
        "perturb": [rng.randrange(dim), rng.randrange(dim), rng.choice(PERTURBATIONS)]
    }


def _doubles(rng: random.Random) -> list:
    groups = []
    branches = [(n, "varsigma", rng.choice(bds), REAL_T) for n, bds in FACTORIZABLE_TRIPLES.items()]
    branches += [(n, "omega", EMPTY_BD, "i") for n in IMAGINARY_TYPES]
    for name, sigma, bd, t in branches:
        build = _build(name, sigma, bd, t)
        groups.append(
            [
                build,
                _verify(build, build.id[6:], True, 0),
                _verify(build, build.id[6:] + " perturbed", False, 1, _perturbation(rng, algebra_dim(name[0], int(name[1:])))),
            ]
        )
    # A datum built for tau: 1 -> 2 whose file then declares the empty triple.
    swap = _build("A2", "varsigma", _bd([0], [1]), REAL_T, " (declared-triple swap)")
    groups.append([swap, _verify(swap, "A2 declared-triple swap", False, 1, {"bd": EMPTY_BD})])
    rng.shuffle(groups)
    return [r for g in groups for r in g]


def requests(workload: str, seed: int) -> list:
    """The seeded request list of one pass over `workload`."""
    rng = random.Random(f"{workload}:{seed}")
    return {"table": _table, "realforms": _realforms, "doubles": _doubles}[workload](rng)


def universe(workload: str) -> list:
    """Every request any seed can generate, except perturbed negatives."""
    if workload == "table":
        return _table(random.Random(0))
    if workload == "realforms":
        out = [_identify("F", 4, a, n) for a, n in f4_involutions()]
        out += [_identify("E", 6, a, n) for a, n in (E6_SPLIT,) + E6_OTHERS]
        out += [_identify("E", 7, a, n) for a, n in E7_OTHERS]
        return out
    out = []
    for name, triples in FACTORIZABLE_TRIPLES.items():
        for bd in triples:
            build = _build(name, "varsigma", bd, REAL_T)
            out += [build, _verify(build, build.id[6:], True, 0)]
    for name in IMAGINARY_TYPES:
        build = _build(name, "omega", EMPTY_BD, "i")
        out += [build, _verify(build, build.id[6:], True, 0)]
    return out


def apply_transform(text: str, transform: dict | None) -> str:
    """The datum file a verify request reads: the build output, edited."""
    if not transform:
        return text
    doc = json.loads(text)
    if "bd" in transform:
        doc["bd"] = transform["bd"]
    if "perturb" in transform:
        i, j, delta = transform["perturb"]
        entries = doc["r"]["entries"]
        for entry in entries:
            if entry[0] == i and entry[1] == j:
                entry[2] = str(Fraction(entry[2]) + Fraction(delta))
                break
        else:
            entries.append([i, j, delta, "0"])
    return json.dumps(doc)
