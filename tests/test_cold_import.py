"""`import liebialg.cli` pulls in no module that only class generation or
annotations would need, nor argparse (with its gettext and locale) or
csv, so a fresh CLI process pays for its own code and the few stdlib
modules it uses."""

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


REQUEST_PROBE = """
import io
import sys
from contextlib import redirect_stdout
import liebialg.cli
loaded = lambda names: " ".join(m for m in names if m in sys.modules)
print(loaded(("argparse", "gettext", "locale", "csv")))
with redirect_stdout(io.StringIO()) as out:
    liebialg.cli.main(["identify", "--type", "A", "--rank", "1", "--sigma", "varsigma"])
assert out.getvalue().startswith("{")
print(loaded(("argparse", "gettext", "locale")))
"""


def test_json_request_loads_no_argparse_or_csv():
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-S", "-c", REQUEST_PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    after_import, after_request = done.stdout.split("\n")[:2]
    assert after_import == ""
    assert after_request == ""


NUMERIC_PROBE = """
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
import liebialg.cli
loaded = lambda: " ".join(m for m in ("fractions", "decimal", "numbers") if m in sys.modules)
print(loaded())
a2 = ["--type", "A", "--rank", "2"]
datum = os.path.join(tempfile.mkdtemp(), "a2.json")
requests = [
    ["enumerate", *a2],
    ["classify", *a2],
    ["identify", *a2, "--sigma", "varsigma"],
    ["build", *a2, "--sigma", "varsigma", "--t", "2", "--out", datum],
    ["verify", datum, "--manin"],
]
for argv in requests:
    with redirect_stdout(io.StringIO()):
        code = liebialg.cli.main(argv)
    assert code == 0, (argv, code)
    print(loaded())
os.remove(datum)
os.rmdir(os.path.dirname(datum))
"""


def test_canonical_literals_load_no_fractions_decimal_or_numbers():
    # every literal the requests read and write is canonical, so the
    # Fraction fallback of the literal reader never runs
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-S", "-c", NUMERIC_PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [""] * 7
