"""Every function, class and method in src/liebialg is run by the CLI.

An AST name walk starts from `cli.main` and from each module's top-level
statements (imports aside: an import only binds a name).  A reached body
reaches each top-level function or class whose name it uses.  An
attribute read on a module name (`linalg.rank`) reaches that module's
function or class of that name and nothing else; a read on `self` inside
a method reaches the enclosing class's method of that name when it has
one; any other attribute read reaches the methods of that name.  A
reached class reaches its dunder methods, which the interpreter calls
implicitly.  The names the per-layer tracer in perfbench/layers.py wraps
count as reached: the benchmark's traced run spans them by name.

Other receivers are still matched by name alone, so a dead method that
shares its name with one read on some object other than `self` is out
of this guard's reach.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "liebialg"
LAYERS = ROOT / "perfbench" / "layers.py"
_spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def _used(node, modules: set, names: set, attrs: set, qualified: set, owner: str | None):
    """Collect what `node` reads, skipping annotations (postponed: they
    run no code) and imports: the names, the attribute names read on a
    module name as "module.attr" in qualified, those read on `self` in a
    method of the class `owner` as "owner.attr" in qualified too, and
    every other attribute name in attrs."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in modules:
            qualified.add(f"{node.value.id}.{node.attr}")
        elif owner and isinstance(node.value, ast.Name) and node.value.id == "self":
            qualified.add(f"{owner}.{node.attr}")
        else:
            attrs.add(node.attr)
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                _used(child, modules, names, attrs, qualified, owner)


def _definitions(src: Path):
    """(qualified name, kind, node) of every top-level function, class and
    method, and the statements each module runs at import."""
    defs, top = [], []
    for path in sorted(src.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{mod}.{stmt.name}", "function", stmt))
                top += stmt.decorator_list + stmt.args.defaults + stmt.args.kw_defaults
            elif isinstance(stmt, ast.ClassDef):
                defs.append((f"{mod}.{stmt.name}", "class", stmt))
                top += stmt.decorator_list + stmt.bases
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs.append((f"{mod}.{stmt.name}.{item.name}", "method", item))
                        top += item.decorator_list + item.args.defaults
                    else:
                        top.append(item)
            else:
                top.append(stmt)
    return defs, [t for t in top if t is not None]


def _is_dunder(qual: str) -> bool:
    name = qual.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def unreached(src: Path = SRC) -> list:
    defs, top = _definitions(src)
    info = {qual: (kind, node) for qual, kind, node in defs}
    modules = {path.stem for path in src.glob("*.py")}
    by_name: dict[str, list] = {}  # functions and classes
    by_attr: dict[str, list] = {}  # methods
    for qual, kind, _ in defs:
        short = qual.rsplit(".", 1)[-1]
        if kind == "method":
            by_attr.setdefault(short, []).append(qual)
        else:
            by_name.setdefault(short, []).append(qual)
    traced = {f"{mod}.{attr}" for mod, attr in {*layers.SPANNED, *layers.COUNTED}}

    def uses(stmts, owner: str | None = None) -> list:
        names, attrs, qualified = set(), set(), set()
        for stmt in stmts:
            _used(stmt, modules, names, attrs, qualified, owner)
        hits = [q for n in names for q in by_name.get(n, ())]
        hits += [q for a in attrs for q in by_attr.get(a, ())]
        for q in qualified:
            if q in info:  # a module's function or class, or the owner's method
                hits.append(q)
            elif owner and q.startswith(owner + "."):  # on self, not a method of it
                hits += by_attr.get(q.rsplit(".", 1)[1], ())
        return hits

    reached: set = set()
    pending = ["cli.main", *(traced & info.keys()), *uses(top)]
    while pending:
        qual = pending.pop()
        if qual in reached:
            continue
        reached.add(qual)
        kind, node = info[qual]
        if kind == "class":
            pending += [q for q in info if q.startswith(qual + ".") and _is_dunder(q)]
        else:
            pending += uses(node.body, qual.rsplit(".", 1)[0] if kind == "method" else None)
    return sorted(info.keys() - reached)


def test_every_definition_is_reached_from_the_cli():
    dead = unreached()
    assert not dead, "unreached from cli.main: " + ", ".join(dead)


def test_walk_reports_a_dead_function_and_a_dead_method(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    cli = tmp_path / "cli.py"
    cli.write_text(
        cli.read_text().replace("\ndef main(", "\ndef dead_helper():\n    return main\n\n\ndef main(")
    )
    core = tmp_path / "core.py"
    core.write_text(
        core.read_text().replace(
            "    def is_zero(self)", "    def dead_method(self):\n        return 0\n\n    def is_zero(self)"
        )
    )
    # a module function named like a live method (Tensor2.transpose)
    linalg = tmp_path / "linalg.py"
    linalg.write_text(linalg.read_text() + "\n\ndef transpose(a):\n    return a\n")
    assert unreached(tmp_path) == [
        "cli.dead_helper", "core.Tensor2.dead_method", "linalg.transpose"
    ]


def test_walk_resolves_self_to_the_enclosing_class(tmp_path):
    # Report.to_json is read on self only; a second, dead to_json in a
    # live class is no longer taken for it
    (tmp_path / "cli.py").write_text(
        "from .report import Other, Report\n\n\n"
        "def main():\n    Other()\n    return Report().describe()\n"
    )
    (tmp_path / "report.py").write_text(
        "class Report:\n"
        "    def describe(self):\n        return self.to_json()\n\n"
        "    def to_json(self):\n        return {}\n\n\n"
        "class Other:\n"
        "    def to_json(self):\n        return []\n"
    )
    assert unreached(tmp_path) == ["report.Other.to_json"]
