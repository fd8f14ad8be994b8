"""Per-layer tracing of kdg from outside the package.

`Tracer.install()` replaces each listed public function, in every `kdg.*`
module namespace that binds it, by a wrapper that records a span: op id,
span id, parent span id, name, start and end.  Calls inside the package go
through module globals, so the wrappers see them too.  `uninstall()` puts
the original objects back, so untraced passes run the unmodified code.

Spans are kept in flat arrays while the pass runs and written out by
`write_spans` at the end.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Optional

# (module, attribute, span name).  The names the benchmark reports are in
# run.py; the remaining spans exist so that time is charged to the right
# layer instead of to whichever wrapped caller happens to be nearest.
SPANS = (
    ("kdg.cli", "main", "cli"),
    ("kdg.graph", "load_graph", "graph.load"),
    ("kdg.graph", "validate", "graph.validate"),
    ("kdg.graph", "intersection_matrix", "graph.intersection_matrix"),
    ("kdg.graph", "build_graph", "graph.build"),
    ("kdg.rational", "solve", "rational.solve"),
    ("kdg.rational", "is_negative_definite", "rational.negdef"),
    ("kdg.rational", "quadratic_form", "rational.quadratic_form"),
    ("kdg.rational", "nullspace", "rational.nullspace"),
    ("kdg.rational", "det", "rational.det"),
    ("kdg.invariants", "pa_max_bounded", "invariants.pa_search"),
    ("kdg.invariants", "fundamental_cycle", "invariants.fundamental"),
    ("kdg.invariants", "k_squared", "invariants.k_squared"),
    ("kdg.invariants", "canonical_cycle", "invariants.canonical_cycle"),
    ("kdg.invariants", "numerical_index", "invariants.numerical_index"),
    ("kdg.invariants", "classify", "invariants.classify"),
    ("kdg.invariants", "bound_checks", "invariants.bound_checks"),
    ("kdg.invariants", "cycle_degrees", "invariants.cycle_degrees"),
    ("kdg.invariants", "cycle_pa", "invariants.cycle_pa"),
    ("kdg.invariants", "invariant_report", "invariants.report"),
    ("kdg.transforms", "limit_k_squared", "transforms.limit"),
    ("kdg.transforms", "mobius_limit_crosscheck", "transforms.crosscheck"),
    ("kdg.transforms", "detect_strings", "transforms.detect_strings"),
    ("kdg.transforms", "with_string_length", "transforms.with_string_length"),
    ("kdg.families", "generate", "families.generate"),
    ("kdg.families", "closed_form_k2", "families.closed_form"),
    ("kdg.enumeration", "enumerate_encodings", "enumeration.search"),
    ("kdg.enumeration", "enumerate_admissible", "enumeration.admissible"),
    ("kdg.enumeration", "graph_from_encoding", "enumeration.decode"),
)

# Methods that are only counted: a span per call would cost more than the
# linear scan it measures, and their time stays with the calling span.
COUNTED_METHODS = (("kdg.graph", "WeightedDualGraph", "index_of", "graph.index_of"),)


class Tracer:
    def __init__(self) -> None:
        self.names = [name for _, _, name in SPANS]
        self._index = {name: k for k, name in enumerate(self.names)}
        self.counts = {name: 0 for *_, name in COUNTED_METHODS}
        # one entry per span, filled in when the span ends
        self.span_op = array("q")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self._next_id = 0
        self._stack: list[int] = []  # ids of the open spans
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        k = self._index[name]
        stack = self._stack

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_op.append(self.op_id)
                self.span_id.append(span)
                self.span_parent.append(parent)
                self.span_name.append(k)
                self.span_start.append(start)
                self.span_end.append(end)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Swap the wrappers into every `kdg` module that binds a listed
        function (for example `solve` in rational, invariants and
        transforms)."""
        modules = [m for key, m in sys.modules.items() if key == "kdg" or key.startswith("kdg.")]
        for home, attr, name in SPANS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for home, cls_name, attr, name in COUNTED_METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._count(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self, op_scale: Optional[dict[int, float]] = None) -> dict[str, list]:
        """Per span name: [calls, self seconds, inclusive seconds].  Each
        span's times are multiplied by `op_scale[its op]` when given."""
        child = {}
        for parent, start, end in zip(self.span_parent, self.span_start, self.span_end):
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for op, span, k, start, end in zip(self.span_op, self.span_id, self.span_name,
                                           self.span_start, self.span_end):
            scale = op_scale.get(op, 1.0) if op_scale else 1.0
            entry = out[self.names[k]]
            entry[0] += 1
            entry[1] += (end - start - child.get(span, 0.0)) * scale
            entry[2] += (end - start) * scale
        return out

    def write_spans(self, path: str) -> None:
        """One CSV row per span: op, id, parent, name, start, end (seconds,
        relative to the first span's start)."""
        base = min(self.span_start) if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for row in zip(self.span_op, self.span_id, self.span_parent, self.span_name,
                           self.span_start, self.span_end):
                op, span, parent, k, start, end = row
                fh.write(f"{op},{span},{parent},{self.names[k]},{start - base:.9f},{end - base:.9f}\n")
