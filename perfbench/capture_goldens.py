"""Write perfbench/goldens.json: the exit code and stdout digest of every
request any seed can generate (workloads.universe), where the program
answers it correctly.  Run it at the commit whose outputs are the
reference, from the root of that checkout:

    python3 perfbench/capture_goldens.py
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    workdir = run.prepare(root)
    runner = run.Runner(root, workdir, {}, limited=False)
    goldens = {}
    try:
        for workload in workloads.WORKLOADS:
            for req in workloads.universe(workload):
                rec = runner.run(req, False)
                status = rec["failure"] or "ok"
                print(f"{workload}: {req.id}: {status} {rec['work_s']:.2f} s", flush=True)
                if rec["failure"] is None:
                    goldens[rec["key"]] = {"exit": rec["exit"], "stdout_sha256": rec["stdout_sha256"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} goldens written to {os.path.relpath(run.GOLDENS, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
