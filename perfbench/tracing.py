"""Spans recorded from outside the library, around calls to its public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
``spnmap`` module namespace that holds it, so calls between modules are
recorded too (``argmax_product`` calling ``batch_log_values`` nests a span
under its own).  ``Network.__init__`` is wrapped in place as
``network.construct``.  Spans stay in memory as
``[name, start, end, parent, op, size]`` rows until the run writes them out;
``size`` is the work a call was handed (characters parsed, configurations
decided), or 0 where it is not measured.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
from time import perf_counter

#: ``(module, function)`` pairs traced as ``module.function`` spans.
TRACED = (
    ("reductions", "mis_to_spn"),
    ("reductions", "cnf_to_spn"),
    ("reductions", "amplify"),
    ("network", "validate"),
    ("formats", "parse_spn"),
    ("formats", "serialize_spn"),
    ("inference", "evaluate"),
    ("inference", "evaluate_marginal"),
    ("inference", "batch_log_values"),
    ("inference", "log_partition"),
    ("solvers", "max_product"),
    ("solvers", "argmax_product"),
    ("solvers", "exact_map"),
    ("solvers", "decision_map"),
    ("experiments", "random_graph"),
    ("experiments", "run_mis_experiment"),
    ("cli", "main"),
)


def _configurations(network, evidence=None, *args, **kwargs) -> int:
    evidence = evidence or {}
    return math.prod(v.cardinality for v in network.variables if v.index not in evidence)


#: Work recorded with a span, computed from the traced call's arguments.
SIZERS = {
    "formats.parse_spn": lambda text, *args, **kwargs: len(text),
    "solvers.exact_map": _configurations,
    "inference.log_partition": lambda network, *args, **kwargs: _configurations(network),
}


class Tracer:
    """In-memory span recorder; spans of one operation share its ``op`` id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, size: int = 0):
        if op is not None:
            self._op = op
        index = len(self.spans)
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, size]
        self.spans.append(row)
        self._stack.append(index)
        row[1] = perf_counter()
        try:
            yield index
        finally:
            row[2] = perf_counter()
            self._stack.pop()

    def adopt(self, rows: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, end, child_parent, _, size in rows:
            new_parent = parent if child_parent < 0 else base + child_parent
            self.spans.append([name, start, end, new_parent, op, size])

    def _wrap(self, name: str, fn):
        sizer = SIZERS.get(name)

        def traced(*args, **kwargs):
            size = sizer(*args, **kwargs) if sizer else 0
            with self.span(name, size=size):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def install(self):
        """Trace every function in ``TRACED`` until the block exits."""
        targets = [
            (f"{name}.{attr}", attr, getattr(importlib.import_module(f"spnmap.{name}"), attr))
            for name, attr in TRACED
        ]
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spnmap"]
        restore: list[tuple[object, str, object]] = []
        try:
            for span_name, attr, original in targets:
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
            network_cls = importlib.import_module("spnmap.network").Network
            restore.append((network_cls, "__init__", network_cls.__init__))
            network_cls.__init__ = self._wrap("network.construct", network_cls.__init__)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [row[2] - row[1] for row in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots(spans: list[list]) -> list[int]:
    """Index of the top-level span above each span (parents precede children)."""
    top: list[int] = []
    for i, row in enumerate(spans):
        top.append(i if row[3] < 0 else top[row[3]])
    return top
