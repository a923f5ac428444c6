"""Spans around calls into each qsc_lab module, recorded from outside the package.

`install` replaces each traced function in every qsc_lab module that binds
it: `from .x import f` gives each importing module its own name for `f`, and
a call goes through the caller's name.  Modules are looked up with
`importlib.import_module`, because attribute access on the package can
return a function of the same name (`qsc_lab.tensor` is the `tensor()`
constructor, not the module).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import Counter
from pathlib import Path

MODULES = (
    "qsc_lab",
    "qsc_lab.cli",
    "qsc_lab.connections",
    "qsc_lab.curvature",
    "qsc_lab.diff",
    "qsc_lab.geometry",
    "qsc_lab.invariants",
    "qsc_lab.report",
    "qsc_lab.tensor",
)

# Module-level functions wrapped in a span named `<module>.<function>`.
FUNCTIONS = {
    "cli": ("main",),
    "connections": (
        "levi_civita",
        "levi_civita_jets",
        "quarter_symmetric_jets",
        "covariant_derivative",
        "metricity_defects",
        "nabla1_pi_defect",
        "torsion_identities",
    ),
    "curvature": (
        "riemann_g",
        "curvature_bundle",
        "assemble_r_theta",
        "commutator_curvature",
        "kahler_identities",
        "closed_form_residuals",
    ),
    "diff": ("field_jets", "eval_jets", "eval_components"),
    "invariants": ("identity_suite", "h_tensor"),
    "report": ("run_verification", "build_report", "render_report"),
    "tensor": ("metric_inverse",),
}

# TensorField.jets spans are named by the field they differentiate; every
# field whose label is not listed here is a generator one-form.
JET_FIELDS = ("g", "A", "F", "G")

SPANS = (
    tuple(f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns)
    + tuple(f"geometry.jets.{f}" for f in JET_FIELDS + ("pi",))
    + ("geometry.TensorField.value", "tensor.Tensor")
)
COUNTERS = ("diff.Jet2.mul",)
LAYERS = tuple(sorted({name.split(".")[0] for name in SPANS}))


class Tracer:
    """Collects spans `(name, job, start, end, parent_index)` and call counts."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """Span around `fn`; `name` is a string or a function of the call's
        positional arguments that returns one."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_of(args), self.job, start, end, parent)

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def write(self, path: Path) -> None:
        """Spans as gzip'd TSV: name, job, start and end in microseconds, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for name, job, start, end, parent in self.spans:
                out.write(f"{name}\t{job}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\t{parent}\n")


def _jet_span(args) -> str:
    label = args[0].label
    return f"geometry.jets.{label if label in JET_FIELDS else 'pi'}"


def install(tracer: Tracer):
    """Wrap every traced function and method; returns a function that undoes it."""
    modules = [importlib.import_module(name) for name in MODULES]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for short, names in FUNCTIONS.items():
        home = importlib.import_module(f"qsc_lab.{short}")
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{short}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, attr, wrapped)

    geometry = importlib.import_module("qsc_lab.geometry")
    tensor = importlib.import_module("qsc_lab.tensor")
    diff = importlib.import_module("qsc_lab.diff")
    field = geometry.TensorField
    replace(field, "jets", tracer.wrap(_jet_span, field.jets))
    replace(field, "value", tracer.wrap("geometry.TensorField.value", field.value))
    replace(tensor.Tensor, "__post_init__", tracer.wrap("tensor.Tensor", tensor.Tensor.__post_init__))
    for attr in ("__mul__", "__rmul__"):
        replace(diff.Jet2, attr, tracer.count("diff.Jet2.mul", diff.Jet2.__dict__[attr]))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _union_length(kids, start, end)
        for (_, _, start, end, _), kids in zip(spans, children)
    ]


def aggregate(tracer: Tracer) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds), for spans and counters alike."""
    out: dict[str, list] = {name: [0, 0.0] for name in SPANS + COUNTERS}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        rec = out[span[0]]
        rec[0] += 1
        rec[1] += own
    for name, calls in tracer.counts.items():
        out[name][0] += calls
    return {name: (calls, own) for name, (calls, own) in out.items()}


def layer_self_seconds(agg: dict[str, tuple[int, float]]) -> dict[str, float]:
    """Self time summed over the spans of each module."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, own) in agg.items():
        out[name.split(".")[0]] += own
    return out
