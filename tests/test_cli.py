import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from weakref import WeakKeyDictionary

import pytest

from liebialg import bdtriple, cli, core
from liebialg.cli import main
from liebialg.core import GaussianRational
from liebialg.rootsystem import build_root_system


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_enumerate_bd_triples_a2(capsys):
    code, out = run(capsys, "enumerate", "--type", "A", "--rank", "2", "--what", "bd-triples")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 3


def test_enumerate_is_deterministic(capsys):
    args = ("enumerate", "--type", "A", "--rank", "2", "--what", "bialgebras")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_compact_a1(capsys):
    code, out = run(
        capsys,
        "enumerate", "--type", "A", "--rank", "1", "--sigma", "omega",
        "--what", "bialgebras",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["real_form"] == "su(2)"
    assert row["bd"] == {"gamma1": [], "gamma2": [], "tau": []}
    assert row["t_class"] == "imaginary_positive"


def test_enumerate_varsigma_mu_restricts_to_stable(capsys):
    code, out = run(
        capsys,
        "enumerate", "--type", "A", "--rank", "2", "--sigma", "varsigma-mu",
        "--what", "bialgebras",
    )
    assert code == 0
    doc = json.loads(out)
    # only the empty triple is flip-stable on A2
    assert [r["bd"]["gamma1"] for r in doc["rows"]] == [[]]


def test_identify_su12(capsys):
    code, out = run(
        capsys, "identify", "--type", "A", "--rank", "2", "--sigma", "varsigma-mu"
    )
    assert code == 0
    assert json.loads(out)["name"] == "su(1,2)"


def test_identify_g2_split(capsys):
    code, out = run(
        capsys,
        "identify", "--type", "G", "--rank", "2", "--sigma", "omega-J",
        "--painted", "1",
    )
    assert code == 0
    assert json.loads(out)["name"] == "G"


def test_identify_compact_su2(capsys):
    code, out = run(
        capsys, "identify", "--type", "A", "--rank", "1", "--sigma", "omega"
    )
    assert code == 0
    assert json.loads(out)["name"] == "su(2)"


def test_invalid_rank_exits_2(capsys):
    code, _ = run(capsys, "identify", "--type", "B", "--rank", "1", "--sigma", "omega")
    assert code == 2


def test_invalid_sigma_combo_exits_2(capsys):
    # A1 has no nontrivial diagram automorphism
    code, _ = run(
        capsys, "identify", "--type", "A", "--rank", "1", "--sigma", "varsigma-mu"
    )
    assert code == 2


def test_build_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "datum.json"
    code, _ = run(
        capsys,
        "build", "--type", "A", "--rank", "2", "--sigma", "varsigma",
        "--bd", '{"gamma1": [0], "gamma2": [1], "tau": [[0, 1]]}',
        "--t", "2", "--out", str(path),
    )
    assert code == 0
    code, out = run(capsys, "verify", str(path), "--manin")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"]["cybe"] is True


def test_verify_fails_on_perturbed_lambda(tmp_path, capsys):
    path = tmp_path / "datum.json"
    run(
        capsys,
        "build", "--type", "A", "--rank", "2", "--sigma", "varsigma",
        "--t", "1", "--out", str(path),
    )
    doc = json.loads(path.read_text())
    doc["lambda"][0][0] = ["7", "0"]  # off the solution space
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["parameter_constraints"] is False


def test_verify_fails_on_real_t_with_omega(tmp_path, capsys):
    path = tmp_path / "datum.json"
    run(
        capsys,
        "build", "--type", "A", "--rank", "1", "--sigma", "omega",
        "--out", str(path),
    )
    doc = json.loads(path.read_text())
    # forge a real t: rebuild tensors accordingly by scaling r and r0
    from liebialg.cli import datum_from_json
    from liebialg.rmatrix import build_r, build_r0, extend_T
    from liebialg.core import GaussianRational

    datum = datum_from_json(doc)
    fam = extend_T(datum.rs, datum.bd)
    t = GaussianRational(1)
    doc["t"], doc["t_class"] = t.to_json(), "real_positive"
    doc["r"] = build_r(datum.rs, datum.bd, datum.lam, t, fam).to_json()
    doc["r0"] = build_r0(datum.rs, datum.bd, datum.lam, t, fam).to_json()
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["t_reality"] is False
    assert checks["sigma_fixes_r0"] is False


def test_malformed_datum_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "A1"}')
    code, _ = run(capsys, "verify", str(path))
    assert code == 2


def test_classify_counts_a2(capsys):
    code, out = run(capsys, "classify", "--type", "A", "--rank", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_data"] == 11
    assert doc["classes"] == 8


def test_csv_format(capsys):
    code, out = run(
        capsys,
        "enumerate", "--type", "A", "--rank", "2", "--what", "bd-triples",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma1,gamma2,tau"
    assert len(lines) == 4


def test_pretty_format(capsys):
    code, out = run(
        capsys,
        "identify", "--type", "A", "--rank", "1", "--sigma", "varsigma",
        "--format", "pretty",
    )
    assert code == 0
    assert "name: sl(2,R)" in out


def test_build_with_coefficients_and_imaginary_t(tmp_path, capsys):
    # coefficients scale the real direction basis, so they must be real;
    # the imaginary structure already lives inside the directions
    path = tmp_path / "d.json"
    code, _ = run(
        capsys,
        "build", "--type", "A", "--rank", "2", "--sigma", "omega",
        "--t", "3i", "--coefficients", '["2"]', "--out", str(path),
    )
    assert code == 0
    code, out = run(capsys, "verify", str(path), "--manin")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_build_rejects_offspace_coefficient(tmp_path, capsys):
    code, _ = run(
        capsys,
        "build", "--type", "A", "--rank", "2", "--sigma", "omega",
        "--t", "3i", "--coefficients", '["i"]',
    )
    assert code == 2


def test_enumerate_materialized_rows_reverify(tmp_path, capsys):
    code, out = run(
        capsys,
        "enumerate", "--type", "A", "--rank", "2", "--what", "bialgebras",
        "--materialize",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all("datum" in r for r in rows)
    path = tmp_path / "emitted.json"
    for row in rows[:4]:
        path.write_text(json.dumps(row["datum"]))
        code, out = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["pass"] is True


def test_enumerate_root_system(capsys):
    code, out = run(
        capsys, "enumerate", "--type", "G", "--rank", "2", "--what", "root-system"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "G2"
    assert len(doc["roots"]) == 12
    assert doc["cartan_matrix"] == [[2, -1], [-3, 2]]


@pytest.mark.parametrize(
    "argv, builds",
    [
        (("identify", "--type", "G", "--rank", "2", "--sigma", "varsigma"), False),
        (("classify", "--type", "G", "--rank", "2"), False),
        (("enumerate", "--type", "G", "--rank", "2", "--what", "bialgebras"), False),
        (("enumerate", "--type", "G", "--rank", "2", "--what", "involutions"), False),
        (("enumerate", "--type", "G", "--rank", "2", "--what", "bd-triples"), False),
        (
            ("build", "--type", "G", "--rank", "2", "--sigma", "varsigma", "--t", "2",
             "--out", "{datum}"),
            False,
        ),
        (("verify", "{datum}"), True),
        (("verify", "{datum}", "--manin"), True),
        (("enumerate", "--type", "G", "--rank", "2", "--what", "root-system"), True),
    ],
)
def test_only_verify_and_root_system_build_the_bracket_table(tmp_path, capsys, argv, builds):
    datum = tmp_path / "g2.json"
    code, _ = run(
        capsys,
        "build", "--type", "G", "--rank", "2", "--sigma", "omega", "--t", "i",
        "--out", str(datum),
    )
    assert code == 0
    build_root_system.cache_clear()
    code, _ = run(capsys, *(a.format(datum=datum) for a in argv))
    assert code == 0
    assert ("structure" in vars(build_root_system("G", 2))) is builds


def _a2_datum(tmp_path, capsys):
    path = tmp_path / "datum.json"
    code, _ = run(
        capsys,
        "build", "--type", "A", "--rank", "2", "--sigma", "varsigma",
        "--bd", '{"gamma1": [0], "gamma2": [1], "tau": [[0, 1]]}',
        "--t", "2", "--out", str(path),
    )
    assert code == 0
    return path, json.loads(path.read_text())


def _as_json_numbers(pair):
    """The same scalar with its parts written as JSON numbers."""
    return [float(Fraction(part)) for part in pair]


MALFORMED = {
    "scalar-lambda": lambda doc: doc.update({"lambda": 5}),
    "r0-dim-mismatch": lambda doc: doc["r0"].update({"dim": 3}),
    # A2's dim 8 in other JSON types on r and r0; 8.0 == 8, so only a
    # type check rejects the float
    "tensor-dim-float": lambda doc: [doc[k].update({"dim": 8.0}) for k in ("r", "r0")],
    "tensor-dim-boolean": lambda doc: [doc[k].update({"dim": True}) for k in ("r", "r0")],
    "string-t": lambda doc: doc.update({"t": "2"}),
    "triple-index-past-rank": lambda doc: doc.update(
        {"bd": {"gamma1": [5], "gamma2": [1], "tau": [[5, 1]]}}
    ),
    "sigma-label-mismatch": lambda doc: doc.update({"sigma_label": "omega"}),
    "sigma-not-an-object": lambda doc: doc.update({"sigma": []}),
    "type-empty": lambda doc: doc.update({"type": ""}),
    "type-not-a-string": lambda doc: doc.update({"type": [1, 2]}),
    "zero-denominator": lambda doc: doc["lambda"][0].__setitem__(0, ["1/0", "0"]),
    # r0 entry 1 is (1, 0); its row index 1 in other JSON types
    "tensor-index-float": lambda doc: doc["r0"]["entries"][1].__setitem__(0, 1.0),
    "tensor-index-string": lambda doc: doc["r0"]["entries"][1].__setitem__(0, "1"),
    "tensor-index-boolean": lambda doc: doc["r0"]["entries"][1].__setitem__(0, True),
    "tensor-entry-repeated": lambda doc: doc["r0"]["entries"].append(
        list(doc["r0"]["entries"][0])
    ),
    # the datum's own values as JSON numbers, which verify passed before
    "t-json-numbers": lambda doc: doc.update({"t": [2.0, 0]}),
    "lambda-entry-json-numbers": lambda doc: doc["lambda"][0].__setitem__(
        1, _as_json_numbers(doc["lambda"][0][1])
    ),
    "tensor-value-json-numbers": lambda doc: doc["r0"]["entries"][1].__setitem__(
        slice(2, 4), _as_json_numbers(doc["r0"]["entries"][1][2:])
    ),
    # equal to [0, 1] under ==, so only a type check rejects them
    "sigma-mu-boolean": lambda doc: doc["sigma"].update({"mu": [False, True]}),
    # an omega_J datum whose J names vertex 0 twice
    "sigma-J-repeated": lambda doc: (
        doc["sigma"].update({"kind": "omega", "J": [0, 0]}),
        doc.update({"sigma_label": "omega_J"}),
    ),
}


@pytest.mark.parametrize("probe", sorted(MALFORMED))
def test_verify_rejects_malformed_datum(tmp_path, capsys, probe):
    path, doc = _a2_datum(tmp_path, capsys)
    MALFORMED[probe](doc)
    path.write_text(json.dumps(doc))
    try:
        code = main(["verify", str(path)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed datum: ")


@pytest.mark.parametrize("manin", [False, True])
@pytest.mark.parametrize("t_class", ["anything at all", "imaginary_positive"])
def test_verify_rejects_t_class_that_t_contradicts(tmp_path, capsys, t_class, manin):
    """The G2 split datum at t = 2 declares real_positive, and passes;
    declaring any other t_class makes it a malformed datum, with or
    without --manin."""
    path = tmp_path / "g2.json"
    code, _ = run(
        capsys, "build", "--type", "G", "--rank", "2", "--sigma", "varsigma",
        "--t", "2", "--out", str(path),
    )
    extra = ["--manin"] if manin else []
    assert code == 0 and run(capsys, "verify", str(path), *extra)[0] == 0
    doc = json.loads(path.read_text())
    assert doc["t_class"] == "real_positive"
    doc["t_class"] = t_class
    path.write_text(json.dumps(doc))
    try:
        code = main(["verify", str(path)] + extra)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: malformed datum: t_class {t_class!r} does not match t ('real_positive')"
    ]


NO_DOUBLE = {
    # r entry (0, 1) gets imaginary part 1, so r is not real on the real form
    "r-not-real": lambda doc: doc["r"]["entries"][1].__setitem__(3, "1"),
    "t-zero": lambda doc: doc.update({"t": ["0", "0"]}),
}


@pytest.mark.parametrize("probe", sorted(NO_DOUBLE))
def test_verify_manin_reads_unbuildable_double_as_false(tmp_path, capsys, probe):
    path, doc = _a2_datum(tmp_path, capsys)
    assert doc["r"]["entries"][1][:2] == [0, 1]
    NO_DOUBLE[probe](doc)
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path), "--manin"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["checks"]["manin_constructible"] is False


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "a2.json"
    try:
        code = main(
            ["identify", "--type", "A", "--rank", "2", "--sigma", "varsigma", "--out", str(out)]
        )
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}")


def test_verify_drops_explicit_zero_entries(tmp_path, capsys):
    path, doc = _a2_datum(tmp_path, capsys)
    assert [0, 0] not in [e[:2] for e in doc["r0"]["entries"]]
    doc["r0"]["entries"].append([0, 0, "0", "0"])
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["pass"] is True


BUILD_PROBES = {
    "bd-bad-json": ["--bd", "{"],
    "bd-vertex-past-rank": ["--bd", '{"gamma1": [5], "gamma2": [1], "tau": [[5, 1]]}'],
    "bd-not-nilpotent": ["--bd", '{"gamma1": [0], "gamma2": [0], "tau": [[0, 0]]}'],
    "t-not-a-scalar": ["--t", "abc"],
    "t-zero-denominator": ["--t", "1/0"],
    "coefficients-bad-json": ["--coefficients", "["],
    "coefficients-not-scalars": ["--coefficients", '["x"]'],
    "coefficients-nan": ["--coefficients", "[NaN]"],
    "coefficients-infinity": ["--coefficients", "[-Infinity]"],
    # past the digit limit (HUGE): at 1e1000000000, Fraction would build
    # 10**1000000000
    "t-past-digit-limit": ["--t", "1e5000"],
    "t-denominator-past-digit-limit": ["--t", "1e-5000"],
    "t-exponent-past-digit-limit": ["--t", "1e1000000000"],
    "coefficients-past-digit-limit": ["--coefficients", '["1e5000"]'],
    "coefficients-exponent-past-digit-limit": ["--coefficients", '["1e1000000000"]'],
    "mu-not-a-permutation": ["--mu", "0,1"],
    "J-repeated": ["--sigma", "omega-J", "--J", "1,1"],
}


@pytest.mark.parametrize("probe", sorted(BUILD_PROBES))
def test_build_rejects_malformed_arguments(capsys, probe):
    argv = ["build", "--type", "A", "--rank", "2", "--sigma", "varsigma"]
    try:
        code = main(argv + BUILD_PROBES[probe])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_build_reads_t_literals_alike(capsys):
    """--t is read in ints ('2', '4/2') or by Fraction (' 2', '2.0') to one value."""
    outs = {
        run(capsys, "build", "--type", "A", "--rank", "2", "--sigma", "varsigma", "--t", t)
        for t in ("2", "2.0", " 2", "4/2")
    }
    assert len(outs) == 1
    code, out = outs.pop()
    assert code == 0 and json.loads(out)["t"] == ["2", "0"]


@pytest.mark.parametrize("number", ["0.10000000000000001", "12345678901234567.5", "-2.5e-3"])
def test_build_reads_coefficient_numbers_by_their_text(capsys, number):
    """A JSON number in --coefficients is read as its literal, exactly as
    the same literal in a JSON string, not rounded through a float."""
    options = ["--type", "A", "--rank", "2", "--sigma", "varsigma", "--coefficients"]
    numeric = run(capsys, "build", *options, f"[{number}]")
    text = run(capsys, "build", *options, json.dumps([number]))
    assert numeric == text and numeric[0] == 0


@pytest.mark.parametrize("command", "identify build".split())
@pytest.mark.parametrize(
    "options",
    [
        ["--sigma", "varsigma", "--J", "1"],
        ["--sigma", "varsigma-mu", "--painted", "2"],
        ["--sigma", "omega", "--J", "1,2,3"],
        ["--sigma", "omega-J", "--painted", "1", "--J", "2"],
        ["--sigma", "omega-mu-J", "--J=", "--painted="],
    ],
)
def test_vertex_options_the_sigma_would_ignore_exit_2(capsys, command, options):
    """--J and --painted pick the J of omega-J and omega-mu-J only, and
    only one of them may: any other use exits 2 with one error line."""
    try:
        code = main([command, "--type", "A", "--rank", "3", *options])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _failed_checks(code, out):
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    return sorted(k for k, v in doc["checks"].items() if not v)


def test_verify_rejects_declared_triple_swap(tmp_path, capsys):
    # r0 carries tau: 1 -> 2; the file declares the empty triple, whose
    # constraints the declared lambda also satisfies
    path, doc = _a2_datum(tmp_path, capsys)
    doc["bd"] = {"gamma1": [], "gamma2": [], "tau": []}
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    assert _failed_checks(code, out) == ["parameter_constraints"]


def test_verify_rejects_declared_lambda_swap(tmp_path, capsys):
    # two points of the same parameter space: the file keeps the tensors
    # of one and declares the lambda of the other
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path, coefficient in zip(paths, ('["1"]', '["2"]')):
        code, _ = run(
            capsys,
            "build", "--type", "A", "--rank", "2", "--sigma", "varsigma",
            "--t", "1", "--coefficients", coefficient, "--out", str(path),
        )
        assert code == 0
    one, two = (json.loads(p.read_text()) for p in paths)
    assert one["lambda"] != two["lambda"]
    one["lambda"] = two["lambda"]
    paths[0].write_text(json.dumps(one))
    code, out = run(capsys, "verify", str(paths[0]))
    assert _failed_checks(code, out) == ["parameter_constraints"]


def test_verify_reads_unextractable_r0_as_false(tmp_path, capsys):
    # an antisymmetric r0 that solves no modified Yang-Baxter equation:
    # extraction raises, and the check reads false instead of crashing
    path, doc = _a2_datum(tmp_path, capsys)
    doc["r0"] = {"dim": doc["r0"]["dim"], "entries": [[0, 3, "1", "0"], [3, 0, "-1", "0"]]}
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    failed = _failed_checks(code, out)
    assert "parameter_constraints" in failed


def test_python_dash_m_liebialg_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "liebialg", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: liebialg")


class SearchReached(Exception):
    """Raised where the diagram-symmetry search would run."""


@pytest.fixture
def no_diagram_search(monkeypatch):
    """The diagram-symmetry search raises SearchReached, and no root
    system has its symmetries cached."""

    def refuse(rs):
        raise SearchReached(str(rs.type))

    monkeypatch.setattr(bdtriple, "diagram_permutations", refuse)
    monkeypatch.setattr(bdtriple, "_AUTOMORPHISMS", WeakKeyDictionary())


TYPES_F4_E6_E7 = [("F", 4), ("E", 6), ("E", 7)]


@pytest.mark.parametrize("series, rank", TYPES_F4_E6_E7)
@pytest.mark.parametrize("sigma", ["varsigma", "omega", "omega-J"])
@pytest.mark.parametrize("command", "identify build enumerate".split())
def test_mu_trivial_request_skips_the_diagram_search(
    no_diagram_search, capsys, command, sigma, series, rank
):
    argv = [command, "--type", series, "--rank", str(rank), "--sigma", sigma]
    if command == "enumerate":
        argv += "--what involutions".split()
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("sigma", ["varsigma", "omega", "omega-J"])
def test_classify_searches_the_diagram_symmetries_once(monkeypatch, capsys, sigma):
    """classify conjugates its data under the diagram symmetries, so it
    searches them even for a mu-trivial row, but only once."""
    calls = []

    def counted(rs, search=bdtriple.diagram_permutations):
        calls.append(str(rs.type))
        return search(rs)

    monkeypatch.setattr(bdtriple, "diagram_permutations", counted)
    monkeypatch.setattr(bdtriple, "_AUTOMORPHISMS", WeakKeyDictionary())
    code, out = run(capsys, *"classify --type A --rank 3 --sigma".split(), sigma)
    assert code == 0 and json.loads(out)["classes"] > 0
    assert calls == ["A3"]


@pytest.mark.parametrize("series, rank", TYPES_F4_E6_E7)
@pytest.mark.parametrize(
    "options",
    [["--sigma", "varsigma-mu"], ["--sigma", "omega-mu-J"], ["--sigma", "varsigma", "--mu", "ID"]],
)
@pytest.mark.parametrize("command", "identify build".split())
def test_mu_request_reaches_the_diagram_search(
    no_diagram_search, capsys, command, options, series, rank
):
    """A nontrivial mu, or a permutation given by --mu (here the
    identity), is looked up among the diagram symmetries."""
    identity = ",".join(str(i) for i in range(1, rank + 1))
    options = [identity if x == "ID" else x for x in options]
    with pytest.raises(SearchReached):
        main([command, "--type", series, "--rank", str(rank), *options])


@pytest.mark.parametrize(
    "options",
    [
        ["--sigma", "varsigma-mu", "--mu", "0,1"],
        ["--sigma", "omega-mu-J", "--mu", "x"],
        ["--sigma", "varsigma", "--mu", "1,1,2,3,4,5"],
    ],
)
@pytest.mark.parametrize("command", "identify build".split())
def test_malformed_mu_exits_2_without_the_diagram_search(
    no_diagram_search, capsys, command, options
):
    try:
        code = main([command, "--type", "E", "--rank", "6", *options])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# ---- verify reads scalars only at its edges -----------------------------------

# The operators perfbench/layers.py counts as core.scalar_ops.
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
VERIFIED = {
    "A3 split, two-vertex triple": [
        "A", "3", "varsigma", "--t", "2",
        "--bd", '{"gamma1": [0, 1], "gamma2": [1, 2], "tau": [[0, 1], [1, 2]]}',
    ],
    "B3 split": ["B", "3", "varsigma", "--t", "2"],
    "G2 split": ["G", "2", "varsigma", "--t", "2"],
    "G2 compact": ["G", "2", "omega", "--t", "i"],
    "E6 split": ["E", "6", "varsigma", "--t", "2"],
    "E7 split": ["E", "7", "varsigma", "--t", "2"],
    "E7 compact": ["E", "7", "omega", "--t", "i"],
}


def _count_scalar_ops(monkeypatch) -> tuple[list, dict]:
    """Hook the SCALAR_OPS: while counting[0] is true, each call is
    counted into calls by name."""
    counting, calls = [False], {}
    for op in SCALAR_OPS:

        def counted(self, other, _fn=getattr(GaussianRational, op), _op=op):
            if counting[0]:
                calls[_op] = calls.get(_op, 0) + 1
            return _fn(self, other)

        monkeypatch.setattr(GaussianRational, op, counted)
    return counting, calls


@pytest.mark.parametrize("name", list(VERIFIED))
def test_verify_makes_no_scalar_arithmetic_after_reading(monkeypatch, tmp_path, capsys, name):
    """Once datum_from_json has read the file, verify and verify --manin
    make no GaussianRational arithmetic: the checks, the recovery of t
    and lambda, the real form and both doubles run in ints, in both
    branches.  The datum is built before the hooks go in."""
    series, rank, sigma, *options = VERIFIED[name]
    path = tmp_path / "datum.json"
    code, _ = run(
        capsys, "build", "--type", series, "--rank", rank, "--sigma", sigma, *options,
        "--out", str(path),
    )
    assert code == 0
    counting, calls = _count_scalar_ops(monkeypatch)
    read = cli.datum_from_json

    def reading(doc):
        datum = read(doc)
        counting[0] = True
        return datum

    monkeypatch.setattr(cli, "datum_from_json", reading)
    for extra in ([], ["--manin"]):
        counting[0] = False
        code, out = run(capsys, "verify", str(path), *extra)
        assert code == 0 and json.loads(out)["pass"] is True
        assert counting[0] and calls == {}, (extra, calls)
    # positive control: the hooks count arithmetic made here, either side
    GaussianRational(1) + 1, 2 * GaussianRational(1)
    assert calls == {"__add__": 1, "__rmul__": 1}


@pytest.mark.parametrize("name", list(VERIFIED))
def test_reading_a_datum_builds_one_scalar(monkeypatch, tmp_path, capsys, name):
    """datum_from_json reads lambda and both tensors straight into ints,
    so the one GaussianRational it builds is t.  Constructions are counted
    through core._new and GaussianRational.__init__; the root system and
    sigma are built before the hooks go in."""
    series, rank, sigma, *options = VERIFIED[name]
    path = tmp_path / "datum.json"
    code, _ = run(
        capsys, "build", "--type", series, "--rank", rank, "--sigma", sigma, *options,
        "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    cli.datum_from_json(doc)
    made = []
    new, init = core._new, GaussianRational.__init__

    def counting_new(cls):
        if cls is GaussianRational:
            made.append("new")
        return new(cls)

    def counting_init(self, *args):
        made.append("init")
        init(self, *args)

    monkeypatch.setattr(core, "_new", counting_new)
    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    datum = cli.datum_from_json(doc)
    assert made == ["new"]
    assert datum.t.to_json() == doc["t"]
    # positive control: the hooks count a scalar made here, either way
    GaussianRational.parse("1/2"), GaussianRational(1)
    assert made == ["new", "new", "init"]


# literals whose numerator or denominator has more digits than
# sys.get_int_max_str_digits() (4300 by default); Fraction would expand
# the last two's exponent in full.  BUILD_PROBES passes them to build.
HUGE = ["1" * 5000, "1e5000", "1e-5000", "1e1000000000"]


@pytest.mark.parametrize("literal", HUGE)
@pytest.mark.parametrize("where", ["t", "lambda", "r0"])
def test_verify_rejects_a_literal_past_the_digit_limit(tmp_path, capsys, where, literal):
    path, doc = _a2_datum(tmp_path, capsys)
    if where == "t":
        doc["t"][0] = literal
    elif where == "lambda":
        doc["lambda"][0][1][0] = literal
    else:
        doc["r0"]["entries"][1][2] = literal
    path.write_text(json.dumps(doc))
    try:
        code = main(["verify", str(path)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed datum: ")


# respellings of a canonical literal to the same value, in forms to_json
# never writes ("2/4", "+1", " 3", "1.5", "1e2", "-0")
RESPELL = {
    "double": lambda s: "{}/{}".format(*(2 * int(x) for x in (s.split("/") + ["1"])[:2])),
    "plus": lambda s: s if s[0] == "-" else "+" + s,
    "space": lambda s: " " + s,
    "decimal": lambda s: s if "/" in s else s + ".0",
    "exponent": lambda s: s if "/" in s else f"{s}0e-1",
    "minus-zero": lambda s: "-0" if s == "0" else s,
}


@pytest.mark.parametrize("spelling", sorted(RESPELL))
def test_verify_reads_respelled_entries_as_fraction_does(tmp_path, capsys, spelling):
    """Every tensor and lambda entry of a datum file respelled: the datum
    read is field for field the one read from the canonical file."""
    path, doc = _a2_datum(tmp_path, capsys)
    respell = RESPELL[spelling]
    for key in ("r0", "r"):
        for e in doc[key]["entries"]:
            e[2:] = [respell(x) for x in e[2:]]
    doc["lambda"] = [[[respell(x) for x in pair] for pair in row] for row in doc["lambda"]]
    assert doc != json.loads(path.read_text())
    got, want = cli.datum_from_json(doc), cli.datum_from_json(json.loads(path.read_text()))
    assert (got.r0, got.r, got.lam) == (want.r0, want.r, want.lam)
    respelled = tmp_path / "respelled.json"
    respelled.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(respelled)) == run(capsys, "verify", str(path))


def test_build_reads_a_literal_within_the_digit_limit(capsys):
    """1e400 builds exactly, and so does 1e4299, whose numerator has
    4300 digits, as many as the limit allows."""
    code, out = run(
        capsys, "build", "--type", "A", "--rank", "1", "--sigma", "varsigma", "--t", "1e400"
    )
    assert code == 0 and json.loads(out)["t"] == [str(10**400), "0"]
    code, out = run(
        capsys, "build", "--type", "A", "--rank", "1", "--sigma", "varsigma", "--t", "1e4299"
    )
    assert code == 0 and json.loads(out)["t"] == ["1" + "0" * 4299, "0"]


# the requests of every command but verify, per type; identify takes one
# mu-trivial and, where the diagram has a symmetry, one mu-nontrivial sigma.
# On E6, --materialize, csv and pretty list the varsigma-mu rows only: the
# whole table in those three takes about 3 s, and the rows of any sigma go
# through the same writers.
_SECOND_SIGMA = {
    "A3": "--sigma varsigma-mu --mu 3,2,1",
    "B3": "--sigma omega-J --painted 1",
    "G2": "--sigma omega-J --painted 1",
    "E6": "--sigma varsigma-mu --mu 6,2,5,4,3,1",
}
COMMAND_REQUESTS = [
    (typ, request)
    for typ, second in _SECOND_SIGMA.items()
    for narrow in [" --sigma varsigma-mu" if typ == "E6" else ""]
    for request in (
        *(f"enumerate --what {what}" for what in cli._WHAT),
        f"enumerate --materialize{narrow}",
        f"enumerate --format csv{narrow}",
        f"enumerate --format pretty{narrow}",
        "classify",
        "identify --sigma varsigma",
        f"identify {second}",
        "build --sigma varsigma --t 2",
    )
]


@pytest.mark.parametrize("typ,request_", COMMAND_REQUESTS, ids=[" ".join(c) for c in COMMAND_REQUESTS])
def test_every_command_makes_no_scalar_arithmetic_after_reading_argv(
    monkeypatch, capsys, typ, request_
):
    """Once parse_args has read the argv, enumerate (each --what,
    --materialize, csv and pretty), classify, identify and build make no
    GaussianRational arithmetic; verify is covered from its datum file
    above, and a root system's own build by test_rootsystem.py."""
    counting, calls = _count_scalar_ops(monkeypatch)
    parse = cli.parse_args

    def parsing(argv):
        args = parse(argv)
        counting[0] = True
        return args

    monkeypatch.setattr(cli, "parse_args", parsing)
    command, *options = request_.split()
    code, out = run(capsys, command, "--type", typ[0], "--rank", typ[1:], *options)
    assert code == 0 and out
    assert counting[0] and calls == {}, calls
    GaussianRational(1) * 2  # positive control: the hooks count arithmetic made here
    assert calls == {"__mul__": 1}
