"""The library is exact: no float literal and no float() call appears
anywhere in its source.  A float that slips in through input parsing is
rejected at run time (see test_core and test_cli); this guards the code."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liebialg"
FILES = sorted(SRC.rglob("*.py"))


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) for each float literal and float() call in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float() call"))
    return found


def test_scanner_sees_floats():
    assert sorted(float_uses("x = 0.5\ny = float(x) + 1j\nz = 1e3")) == [
        (1, "literal 0.5"),
        (2, "float() call"),
        (2, "literal 1j"),
        (3, "literal 1000.0"),
    ]
    assert float_uses("x = Fraction(1, 2)  # not 0.5\ns = '0.5'") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    assert float_uses(path.read_text()) == []
