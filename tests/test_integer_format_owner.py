"""The library has one integer format, and core owns it: no module but
core.py imports or calls lcm, so every "scale by the lcm of the
denominators" goes through core.over_lcm or a Tensor2."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liebialg"
OWNER = SRC / "core.py"
OTHERS = sorted(p for p in SRC.rglob("*.py") if p != OWNER)


def lcm_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) for each import of an lcm and each call of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name == "lcm"]
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "lcm":
                found.append((node.lineno, "lcm() call"))
    return found


def test_scanner_sees_lcm():
    source = "from math import gcd, lcm\nimport math\nx = lcm(2, 3) + math.lcm(4, 6)\n"
    assert sorted(lcm_uses(source)) == [(1, "import lcm"), (3, "lcm() call"), (3, "lcm() call")]
    assert lcm_uses("from .core import over_lcm\nd, z = over_lcm(v)  # not lcm(v)") == []
    assert lcm_uses(OWNER.read_text())


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_lcm_outside_core(path):
    assert lcm_uses(path.read_text()) == []
