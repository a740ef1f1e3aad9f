"""liebialg benchmark: CLI requests in fresh processes, one at a time.

    python3 perfbench/run.py --workload table|realforms|doubles|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each request starts a new
process (perfbench/child.py) that imports liebialg, builds the root
system, then calls `liebialg.cli.main(argv)`: a closed loop with one
client.  Every output is checked against its golden digest and the oracle
(see oracle.py).  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced pass with `--trace 1`.
`--workload all` runs the three workloads in turn and prefixes each metric
name with its workload.
Full per-request records (and, traced, all spans) go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
GOLDENS = os.path.join(HERE, "goldens.json")
WORK_DIR = ".perfbench_work"
# A request running longer than CAP_S is killed and counts as failed, with
# CAP_S as its time.  No request starts after START_LIMIT_S, so a run ends
# within the 180 s a run may take even when the program has become slow.
CAP_S = 60.0
START_LIMIT_S = 140.0
RUN_LIMIT_S = 170.0
COMMANDS = ("enumerate", "classify", "identify", "verify")
END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("work_geomean_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class Runner:
    """Runs requests in child processes and checks each output."""

    def __init__(self, root: str, workdir: str, goldens: dict, limited: bool = True):
        self.root = root
        self.limited = limited  # apply the run's start limit and time cap
        self.workdir = workdir
        self.goldens = goldens
        self.src = os.path.join(root, "src")
        self.datums = {}  # build request id -> its stdout (a datum file)
        self.started = perf_counter()
        self._n = 0

    def run(self, req, trace: bool) -> dict:
        self._n += 1
        base = os.path.join(self.workdir, f"r{self._n}")
        record = {"id": req.id, "command": req.command, "exception": None}
        elapsed = perf_counter() - self.started
        if self.limited and elapsed > START_LIMIT_S:
            return self._unrun(record, "not_started")
        input_text = None
        if req.source is not None:
            if req.source not in self.datums:
                return self._unrun(record, "missing_input")
            input_text = workloads.apply_transform(self.datums[req.source], req.transform)
            with open(base + ".datum.json", "w") as fh:
                fh.write(input_text)
        record["key"] = oracle.request_key(req.argv, input_text)
        argv = [base + ".datum.json" if a == "{input}" else a for a in req.argv]
        spec = {
            "src": self.src,
            "series": req.series,
            "rank": req.rank,
            "argv": argv,
            "trace": trace,
            "result": base + ".result.json",
        }
        with open(base + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        cap = max(1.0, min(CAP_S, RUN_LIMIT_S - elapsed)) if self.limited else CAP_S
        timed_out = False
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, base + ".spec.json"], stdout=out, stderr=err, cwd=self.root
            )
            try:
                proc.wait(timeout=cap)
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            record["wall_s"] = perf_counter() - start
        with open(base + ".out", "rb") as fh:
            stdout = fh.read()
        result = {}
        if not timed_out and os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                result = json.load(fh)
        record.update(
            exit=proc.returncode,
            timed_out=timed_out,
            setup_s=result.get("setup_s", 0.0),
            work_s=cap if timed_out else result.get("work_s", record["wall_s"]),
            peak_rss_mb=result.get("peak_rss_mb", 0.0),
            exception=result.get("exception")
            or (None if result or timed_out else f"child exited {proc.returncode} without a result"),
            stdout_bytes=len(stdout),
            stdout_sha256=hashlib.sha256(stdout).hexdigest(),
        )
        text = stdout.decode(errors="replace")
        sane = not timed_out and not record["exception"] and proc.returncode == req.expect_exit
        record["oracle_errors"] = oracle.check_output(req, text) if sane else []
        record["failure"] = oracle.classify_failure(
            req, record, self.goldens.get(record["key"]), record["oracle_errors"]
        )
        if req.command == "build" and record["failure"] is None:
            self.datums[req.id] = text
        if trace:
            record["spans"] = result.get("spans", [])
            record["counts"] = result.get("counts", {})
        for suffix in (".out", ".err", ".spec.json", ".result.json", ".datum.json"):
            if os.path.exists(base + suffix):
                os.remove(base + suffix)
        return record

    @staticmethod
    def _unrun(record, why):
        record.update(
            failure=why, timed_out=False, setup_s=0.0, work_s=0.0, wall_s=0.0,
            peak_rss_mb=0.0, exit=None, stdout_bytes=0, oracle_errors=[],
        )
        return record


def run_pass(runner, reqs, trace: bool) -> dict:
    return {req.id: [runner.run(req, trace)] for req in reqs}


def run_passes(runner, reqs, seconds: float) -> dict:
    """Full untraced passes over `reqs` while the next one, judged by the
    last, ends within `seconds`; at least one.  A pass takes about a third
    of the run time, so each request's median is over three runs."""
    start = perf_counter()
    records = {req.id: [] for req in reqs}
    while True:
        began = perf_counter()
        for req in reqs:
            records[req.id].append(runner.run(req, False))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return records


def summarize(reqs, records: dict) -> dict:
    """End-to-end metrics from per-request medians, plus failure counts."""
    setup, work, rss = [], [], []
    per_command = {c: 0.0 for c in COMMANDS}
    failed = {}
    for req in reqs:
        runs = records[req.id]
        w = statistics.median(r["work_s"] for r in runs)
        setup.append(statistics.median(r["setup_s"] for r in runs))
        work.append(w)
        rss.append(max(r["peak_rss_mb"] for r in runs))
        if req.command in per_command:
            per_command[req.command] += w
        kinds = sorted({r["failure"] for r in runs if r["failure"]})
        if kinds:
            failed[req.id] = kinds
    metrics = {
        "setup_s": sum(setup),
        "work_s": sum(work),
        "work_geomean_s": math.exp(statistics.fmean(math.log(max(w, 1e-6)) for w in work)),
        "peak_rss_mb": max(rss),
        "fail_frac": len(failed) / len(reqs),
    }
    metrics.update({f"{c}_s": v for c, v in per_command.items() if any(r.command == c for r in reqs)})
    return {"metrics": metrics, "failed": failed}


def unexpected_failures(failed: dict) -> dict:
    """Failures other than the known defects, each in its known form."""
    return {
        rid: kinds
        for rid, kinds in failed.items()
        if kinds != [workloads.KNOWN_DEFECTS.get(rid)]
    }


def metadata(root: str) -> dict:
    src = os.path.join(root, "src", "liebialg")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    rev = ""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": rev or "unknown",
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def prepare(root: str) -> str:
    """Check the checkout holds the program, byte-compile it so no request
    pays for compilation, and make a fresh work directory."""
    if not os.path.isfile(os.path.join(root, "src", "liebialg", "cli.py")):
        raise SystemExit("error: run from the root of a liebialg checkout (no src/liebialg)")
    compileall.compile_dir(os.path.join(root, "src", "liebialg"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    workdir = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return workdir


def traced_metrics(reqs, records: dict, traced: dict, trace_path: str, out: dict) -> dict:
    """Per-layer metrics of the traced pass; writes its spans to
    `trace_path` and adds the traced end-to-end figures to `out`."""
    runs = [r for req in reqs for r in traced[req.id]]
    counts = {}
    for r in runs:
        for key, val in r["counts"].items():
            counts[key] = counts.get(key, 0) + val
    out["traced_metrics"] = summarize(reqs, traced)["metrics"]
    overhead = out["traced_metrics"]["work_s"] - out["metrics"]["work_s"]
    metrics = layers.layer_metrics(
        [r["spans"] for r in runs], counts, sum(r["stdout_bytes"] for r in runs), overhead
    )
    out["trace_stdout_identical"] = all(
        records[q.id][0]["stdout_sha256"] == traced[q.id][0]["stdout_sha256"] for q in reqs
    )
    spans = [[*s, i] for i, r in enumerate(runs) for s in r.pop("spans")]
    with open(trace_path, "w") as fh:
        json.dump({"requests": [r["id"] for r in runs], "spans": spans}, fh)
    out["traced_requests"] = runs
    return metrics


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload: run, check, print the summary lines, write the BENCH
    file; returns the fields of the result line."""
    workdir = prepare(root)
    meta = metadata(root)
    reqs = workloads.requests(workload, seed)
    runner = Runner(root, workdir, load_goldens())
    try:
        if trace:
            records = run_pass(runner, reqs, False)
            traced = run_pass(runner, reqs, True)
        else:
            records = run_passes(runner, reqs, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(reqs, records)
    failed = summary["failed"]
    passes = len(records[reqs[0].id])
    label = f"{workload}_seed{seed}_trace{int(trace)}"
    out = {"workload": workload, "seed": seed, "meta": meta,
           "metrics": summary["metrics"], "passes": passes}
    if trace:
        for rid, kinds in summarize(reqs, traced)["failed"].items():
            failed[rid] = sorted(set(failed.get(rid, [])) | set(kinds))
        trace_path = os.path.join(root, WORK_DIR, f"trace_{label}.json")
        result_metrics = traced_metrics(reqs, records, traced, trace_path, out)
    else:
        result_metrics = {n: {"value": summary["metrics"][n], "unit": u} for n, u in END_TO_END}
    unexpected = unexpected_failures(failed)
    out.update(failed=failed, unexpected_failures=unexpected,
               requests=[r for q in reqs for r in records[q.id]])
    with open(os.path.join(root, WORK_DIR, f"BENCH_{label}.json"), "w") as fh:
        json.dump(out, fh, indent=1)

    print(f"perfbench {workload} seed={seed} trace={int(trace)}: {len(reqs)} requests "
          f"x {passes} passes, {len(failed)} failed, {len(unexpected)} unexpectedly")
    units = dict(END_TO_END, fail_frac="ratio", **{f"{c}_s": "s" for c in COMMANDS})
    for name, val in summary["metrics"].items():
        print(f"  {name:16s} {val:12.6f} {units[name]}")
    if trace:
        print(f"  trace.overhead_s {result_metrics['trace.overhead_s']['value']:12.6f} s; "
              f"stdout identical traced/untraced: {out['trace_stdout_identical']}")
    for rid, kinds in sorted(failed.items()):
        known = "known defect" if rid not in unexpected else "UNEXPECTED"
        print(f"  failed: {rid}: {','.join(kinds)} ({known})")
    print(f"  meta: {json.dumps(meta)}")
    return {
        "correct": not unexpected and out.get("trace_stdout_identical", True),
        "attempted": len(reqs),
        "failed": len(failed),
        "metrics": result_metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        # every workload in turn; metric names get the workload as prefix
        parts = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace))
                 for w in workloads.WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{n}": m for w, p in parts.items() for n, m in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
