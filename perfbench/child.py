"""One benchmark request in a fresh process, as a CLI user runs it.

    python3 perfbench/child.py SPEC.json

SPEC names the source tree, the type whose root system is built during
set-up, the CLI argv, whether to trace, and where to write the result.
Set-up is `import liebialg` plus the root-system build; the command phase
runs `liebialg.cli.main(argv)` with this process's stdout as the CLI's
stdout and ends once that output is flushed and the exit code is known.
The process exits with the CLI's exit code.
"""

import json
import os
import resource
import sys
import traceback
from time import perf_counter


def peak_rss_mb() -> float:
    """This process image's peak RSS.  `ru_maxrss` would also count the
    parent's RSS, which exec records into it when the child is spawned."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    start = perf_counter()
    sys.path.insert(0, spec["src"])
    from liebialg import cli, rootsystem

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    rootsystem.build_root_system(spec["series"], spec["rank"])
    setup_end = perf_counter()
    exception = None
    try:
        code = cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a traceback is the failure being measured
        traceback.print_exc()
        exception = f"{type(exc).__name__}: {exc}"
        code = 1
    sys.stdout.flush()
    end = perf_counter()
    result = {
        "setup_s": setup_end - start,
        "work_s": end - setup_end,
        "exit": code,
        "exception": exception,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result.update(tracer.export())
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
