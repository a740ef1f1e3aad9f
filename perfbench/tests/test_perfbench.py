"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

Run from the root of the checkout; the last test starts a few CLI
requests in child processes (about ten seconds).
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_span_totals_self_time():
    # main [0,10] > identify [1,7] > rref [2,3], rref [4,6]; main > rref [8,9]
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("realform.identify", 1.0, 7.0, 0),
        ("linalg.rref", 2.0, 3.0, 1),
        ("linalg.rref", 4.0, 6.0, 1),
        ("linalg.rref", 8.0, 9.0, 0),
    ]
    t = layers.span_totals(spans)
    assert t["cli.main"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert t["realform.identify"] == {"calls": 1, "s": 6.0, "self_s": 3.0}
    assert t["linalg.rref"] == {"calls": 3, "s": 4.0, "self_s": 4.0}


def test_span_totals_recursion_counted_once():
    spans = [("linalg.det", 0.0, 4.0, -1), ("linalg.det", 1.0, 3.0, 0)]
    t = layers.span_totals(spans)["linalg.det"]
    assert t == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_layer_metrics_has_every_metric():
    m = layers.layer_metrics(
        [[("parameter.solve_parameters", 0.0, 1.0, -1)]],
        {"parameter.solve_parameters.calls": 4, "rmatrix.make_datum.calls": 1},
        10,
        0.5,
    )
    assert [k for k in m] == [name for name, _ in layers.METRICS]
    assert m["parameter.useful_ratio"]["value"] == 0.25
    assert m["parameter.solve_parameters.s"]["value"] == 1.0
    assert m["trace.overhead_s"]["value"] == 0.5


def _outcome(**kw):
    base = {"exit": 0, "timed_out": False, "exception": None, "stdout_sha256": "aa"}
    base.update(kw)
    return base


def test_failure_classification():
    req = workloads.Request("x", "enumerate", "A", 2, ["enumerate"])
    golden = {"exit": 0, "stdout_sha256": "aa"}
    assert oracle.classify_failure(req, _outcome(), golden, []) is None
    assert oracle.classify_failure(req, _outcome(exception="AssertionError: x", exit=1), golden, []) == "crash"
    assert oracle.classify_failure(req, _outcome(exit=2), golden, []) == "wrong_exit"
    assert oracle.classify_failure(req, _outcome(timed_out=True, exit=-9), golden, []) == "timeout"
    assert oracle.classify_failure(req, _outcome(stdout_sha256="bb"), golden, []) == "golden_mismatch"
    assert oracle.classify_failure(req, _outcome(), None, ["bad name"]) == "oracle"
    neg = workloads.Request("n", "verify", "A", 2, ["verify"], expect_exit=1)
    assert oracle.classify_failure(neg, _outcome(exit=0), None, []) == "wrong_exit"


def test_known_defects_are_the_only_tolerated_failures():
    failed = {"enumerate C3": ["crash"], "verify A2 declared-triple swap": ["wrong_exit"]}
    assert run.unexpected_failures(failed) == {}
    assert run.unexpected_failures({"enumerate C3": ["golden_mismatch"]})
    assert run.unexpected_failures({"enumerate D4": ["crash"]})


def test_real_form_table_spot_checks():
    assert oracle.real_forms("C", 3)["sp(3,R)"] == (9, 12)
    assert oracle.real_forms("E", 8)["EVIII"] == (120, 128)
    assert oracle.real_forms("E", 7)["EV"] == (63, 70)
    assert oracle.real_forms("E", 6)["EI"] == (36, 42)
    assert oracle.real_forms("F", 4)["FI"] == (24, 28)
    assert oracle.real_forms("A", 3)["sl(2,H)"] == (10, 5)
    assert oracle.real_forms("D", 4)["so*(8)"] == oracle.real_forms("D", 4)["so(2,6)"]
    for series, n in [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("G", 2), ("E", 6)]:
        forms = oracle.real_forms(series, n)
        assert all(k + p == oracle.algebra_dim(series, n) for k, p in forms.values())


def test_check_real_form_rejects_wrong_reports():
    ok = {"name": "sp(3,R)", "dim_k": 9, "dim_p": 12, "character": 3}
    assert oracle.check_real_form("C", 3, ok) == []
    assert oracle.check_real_form("C", 3, dict(ok, name="sp(0,3)"))
    assert oracle.check_real_form("C", 3, dict(ok, dim_k=10, dim_p=11, character=1))
    assert oracle.check_real_form("C", 3, ok, expect_name="sp(3)")
    odd = {"name": "unnormalized", "dim_k": 10, "dim_p": 11, "character": 1}
    assert oracle.check_real_form("C", 3, odd)
    enum = workloads.Request("e", "enumerate", "C", 3, ["enumerate"])
    rows = {"rows": [{"real_form": "sp(1,2)"}, {"real_form": "unnormalized"}]}
    assert oracle.check_output(enum, json.dumps(rows)) == []
    rows["rows"].append({"real_form": "sp(0,3)"})
    assert oracle.check_output(enum, json.dumps(rows))


def test_requests_are_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.requests(w, 3) == workloads.requests(w, 3)
        assert workloads.requests(w, 3) != workloads.requests(w, 4)


def test_every_universe_request_has_a_golden():
    # verify keys hold the digest of a built datum; the last test checks one
    goldens = run.load_goldens()
    missing = [
        req.id
        for w in workloads.WORKLOADS
        for req in workloads.universe(w)
        if req.source is None
        and req.id not in workloads.KNOWN_DEFECTS
        and oracle.request_key(req.argv, None) not in goldens
    ]
    assert not missing, missing


def test_perturbation_changes_one_entry():
    doc = {"r": {"dim": 3, "entries": [[0, 1, "1/2", "0"]]}, "bd": {}}
    text = json.dumps(doc)
    hit = json.loads(workloads.apply_transform(text, {"perturb": [0, 1, "1/2"]}))
    assert hit["r"]["entries"] == [[0, 1, "1", "0"]]
    new = json.loads(workloads.apply_transform(text, {"perturb": [2, 2, "-1"]}))
    assert new["r"]["entries"] == [[0, 1, "1/2", "0"], [2, 2, "-1", "0"]]


def test_tracing_changes_no_output(tmp_path):
    reqs = [
        r
        for r in workloads.universe("table") + workloads.universe("doubles")
        if r.id in ("enumerate G2", "classify B3", "build A2 omega empty", "verify A2 omega empty")
    ]
    assert len(reqs) == 4
    workdir = str(tmp_path / "work")
    os.makedirs(workdir)
    try:
        runner = run.Runner(ROOT, workdir, run.load_goldens())
        plain = run.run_pass(runner, reqs, False)
        traced = run.run_pass(runner, reqs, True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for req in reqs:
        a, b = plain[req.id][0], traced[req.id][0]
        assert a["failure"] is None and b["failure"] is None, (a, b)
        assert a["stdout_sha256"] == b["stdout_sha256"]
        assert a["key"] in runner.goldens
    counts = traced["classify B3"][0]["counts"]
    assert counts["core.scalar_ops"] > 0 and counts["rootsystem.root_pairing.calls"] > 0
    totals = layers.span_totals(traced["classify B3"][0]["spans"])
    assert totals["rootsystem.RootSystem"]["calls"] == 1
    assert totals["cli.main"]["calls"] == 1
    assert totals["parameter.solve_parameters"]["calls"] > 0
    assert totals["rmatrix.classify"]["calls"] == 1
