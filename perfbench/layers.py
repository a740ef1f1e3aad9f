"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each liebialg module (and
rebinds every name other modules imported with `from ... import`), so each
call records a span: name, start, end and parent span.  Hot helpers whose
call count is the metric are counted without a span.  Spans stay in memory;
the child process returns them with its result and the runner writes them
out once per run.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name; an attribute "Class.method" wraps a method
SPANNED = {
    ("core", "cybe_is_zero"): "core.cybe_is_zero",
    ("core", "apply_semilinear_pair"): "core.apply_semilinear_pair",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "inverse"): "linalg.inverse",
    ("linalg", "det"): "linalg.det",
    ("rootsystem", "RootSystem.__init__"): "rootsystem.RootSystem",
    ("bdtriple", "enumerate_bd_triples"): "bdtriple.enumerate_bd_triples",
    ("involution", "fixed_point_basis"): "involution.fixed_point_basis",
    ("realform", "identify"): "realform.identify",
    ("realform", "theta_action_on_real_basis"): "realform.theta_action_on_real_basis",
    ("parameter", "solve_parameters"): "parameter.solve_parameters",
    ("parameter", "apply_reality"): "parameter.apply_reality",
    ("rmatrix", "make_datum"): "rmatrix.make_datum",
    ("rmatrix", "build_r"): "rmatrix.build_r",
    ("rmatrix", "build_r0"): "rmatrix.build_r0",
    ("rmatrix", "verify_datum"): "rmatrix.verify_datum",
    ("rmatrix", "classify"): "rmatrix.classify",
    ("manin", "double_factorizable"): "manin.double_factorizable",
    ("manin", "double_imaginary"): "manin.double_imaginary",
    ("manin", "ManinTriple.verify"): "manin.ManinTriple.verify",
    ("cli", "main"): "cli.main",
}
COUNTED = {
    ("rootsystem", "RootSystem.root_pairing"): "rootsystem.root_pairing",
    ("linalg", "rank"): "linalg.rank",
    ("bdtriple", "precedence_pairs"): "bdtriple.precedence_pairs",
    ("involution", "canonical_involution"): "involution.canonical_involution",
}
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)

# The per-layer metrics of BENCHMARK.json, as (name, unit).
METRICS = [
    ("parameter.solve_parameters.calls", "count"),
    ("parameter.solve_parameters.s", "s"),
    ("parameter.apply_reality.calls", "count"),
    ("parameter.apply_reality.rejected", "count"),
    ("parameter.useful_ratio", "ratio"),
    ("bdtriple.enumerate_bd_triples.calls", "count"),
    ("bdtriple.enumerate_bd_triples.s", "s"),
    ("bdtriple.triples_seen", "count"),
    ("bdtriple.precedence_pairs.calls", "count"),
    ("realform.identify.calls", "count"),
    ("realform.identify.s", "s"),
    ("realform.identify.self_s", "s"),
    ("realform.theta_action_on_real_basis.s", "s"),
    ("involution.fixed_point_basis.calls", "count"),
    ("involution.fixed_point_basis.s", "s"),
    ("involution.canonical_involution.calls", "count"),
    ("rootsystem.RootSystem.calls", "count"),
    ("rootsystem.RootSystem.s", "s"),
    ("rootsystem.root_pairing.calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.inverse.calls", "count"),
    ("linalg.inverse.s", "s"),
    ("linalg.det.calls", "count"),
    ("linalg.det.s", "s"),
    ("linalg.rank.calls", "count"),
    ("manin.double_factorizable.s", "s"),
    ("manin.double_imaginary.s", "s"),
    ("manin.ManinTriple.verify.calls", "count"),
    ("manin.ManinTriple.verify.s", "s"),
    ("core.cybe_is_zero.calls", "count"),
    ("core.cybe_is_zero.s", "s"),
    ("core.apply_semilinear_pair.s", "s"),
    ("core.scalar_ops", "count"),
    ("core.scalar_truth_tests", "count"),
    ("rmatrix.make_datum.calls", "count"),
    ("rmatrix.make_datum.s", "s"),
    ("rmatrix.build_r.s", "s"),
    ("rmatrix.build_r0.s", "s"),
    ("rmatrix.verify_datum.s", "s"),
    ("rmatrix.classify.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


def _rebind(modules, old, new):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


class Tracer:
    def __init__(self):
        self.names = []  # span name by index
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.counts = defaultdict(int)
        self._stack = []

    def install(self):
        """Wrap the layer boundaries of the already imported liebialg."""
        pkg = sys.modules["liebialg"]
        modules = [pkg] + [
            m for k, m in sys.modules.items() if k.startswith("liebialg.") and m is not None
        ]
        for (mod, attr), name in SPANNED.items():
            self._wrap(modules, mod, attr, self._spanned(name))
        for (mod, attr), name in COUNTED.items():
            self._wrap(modules, mod, attr, self._counted(name))
        self._count_scalars(sys.modules["liebialg.core"].GaussianRational)

    def _wrap(self, modules, mod, attr, make):
        owner = sys.modules[f"liebialg.{mod}"]
        if "." in attr:
            cls, meth = attr.split(".")
            owner = getattr(owner, cls)
            setattr(owner, meth, make(getattr(owner, meth)))
        else:
            old = getattr(owner, attr)
            _rebind(modules, old, make(old))

    def _counted(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _spanned(self, name):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    counts[f"{name}.raised.{type(exc).__name__}"] += 1
                    raise
                finally:
                    spans[sid] = (idx, start, perf_counter(), parent)
                    stack.pop()
                _count_work(counts, name, args, result)
                return result

            return wrapper

        return make

    def _count_scalars(self, cls):
        counts = self.counts
        for op in SCALAR_OPS:
            fn = getattr(cls, op)

            def wrapper(a, b, _fn=fn):
                counts["core.scalar_ops"] += 1
                return _fn(a, b)

            setattr(cls, op, wrapper)
        truth = cls.__bool__

        def boolean(a):
            counts["core.scalar_truth_tests"] += 1
            return truth(a)

        cls.__bool__ = boolean

    def export(self) -> dict:
        return {
            "spans": [(self.names[i], s, e, p) for i, s, e, p in self.spans],
            "counts": dict(self.counts),
        }


def _count_work(counts, name, args, result):
    """Counts that need the arguments or result at a span boundary."""
    if name == "linalg.rref":
        m = args[0]
        counts["linalg.rref.cells"] += len(m) * (len(m[0]) if m else 0)
    elif name == "bdtriple.enumerate_bd_triples":
        counts["bdtriple.triples_seen"] += len(result)


def span_totals(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    `spans` is a list of (name, start, end, parent index) with parents
    indexed in the same list.  A span's self time is its duration minus the
    durations of its direct children (they run inside it, one at a time).
    Inclusive time counts only spans with no ancestor of the same name, so
    recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
    return dict(out)


def layer_metrics(span_lists, counts: dict, stdout_bytes: int, overhead_s: float) -> dict:
    """The per-layer metrics of a traced pass, from every request's spans
    (each list indexed on its own) and the summed counts."""
    totals = defaultdict(int)
    for spans in span_lists:
        for name, agg in span_totals(spans).items():
            for key, val in agg.items():
                totals[f"{name}.{key}"] += val
    values = dict(totals)
    values.update(counts)
    values["parameter.apply_reality.rejected"] = counts.get(
        "parameter.apply_reality.raised.NoBialgebraDatum", 0
    )
    solves = values.get("parameter.solve_parameters.calls", 0)
    values["parameter.useful_ratio"] = (
        values.get("rmatrix.make_datum.calls", 0) / solves if solves else 0.0
    )
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in METRICS}
