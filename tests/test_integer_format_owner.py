"""The library has one integer format and one elimination, and each has
an owner: no module but core.py imports or calls lcm, so every "scale by
the lcm of the denominators" goes through core.over_lcm or a Tensor2;
and no module but core.py (the format) and linalg.py (the elimination)
imports or calls gcd, so every fraction-free row update goes through
linalg.echelon."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liebialg"
OWNERS = {"lcm": {"core.py"}, "gcd": {"core.py", "linalg.py"}}
CASES = [
    (name, path)
    for name, owners in sorted(OWNERS.items())
    for path in sorted(SRC.rglob("*.py"))
    if path.name not in owners
]


def uses(source: str, name: str) -> list[tuple[int, str]]:
    """(line, what) for each import of the function name and each call
    of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name == name]
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.append((node.lineno, f"{name}() call"))
    return found


def test_scanner_sees_lcm_and_gcd():
    source = "from math import gcd, lcm\nimport math\nx = lcm(2, 3) + math.lcm(4, 6)\ny = math.gcd(x, 4)\n"
    assert sorted(uses(source, "lcm")) == [(1, "import lcm"), (3, "lcm() call"), (3, "lcm() call")]
    assert sorted(uses(source, "gcd")) == [(1, "import gcd"), (4, "gcd() call")]
    assert uses("from .core import over_lcm\nd, z = over_lcm(v)  # not lcm(v)", "lcm") == []
    for name, owners in OWNERS.items():
        for owner in owners:
            assert uses((SRC / owner).read_text(), name), (name, owner)


@pytest.mark.parametrize("name,path", CASES, ids=lambda x: getattr(x, "name", x))
def test_no_use_outside_the_owners(name, path):
    assert uses(path.read_text(), name) == []
