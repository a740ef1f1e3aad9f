"""The per-layer tracer in perfbench/layers.py binds liebialg names by
string; a renamed or deleted name breaks the traced benchmark run only.
This checks every bound name resolves, without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
_spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize("mod, attr", sorted(set(layers.SPANNED) | set(layers.COUNTED)))
def test_traced_name_resolves(mod, attr):
    owner = importlib.import_module(f"liebialg.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

