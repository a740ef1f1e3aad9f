"""`import liebialg.cli` pulls in no module that only class generation or
annotations would need, so a fresh CLI process pays for its own code and
the few stdlib modules it uses."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import sys
import liebialg.cli
print(" ".join(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips the site hooks, which may import typing on their own
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
