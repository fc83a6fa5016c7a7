"""Span recorder attached to framecalc from outside the library.

``Tracer`` rebinds every public function of the framecalc layers, in every
framecalc module namespace that holds it, to a wrapper that records a span;
it also wraps numpy's factorization entry points. Spans are kept in memory
and written when the run ends. Leaving the ``with`` block restores every
rebound name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import NamedTuple

LAYERS = ("linalg", "frames", "approx", "gabor", "reference", "cli")
NUMPY_FACTORIZATIONS = ("eigh", "eigvalsh", "svd")
FACTORIZATIONS = frozenset(
    ["linalg.jacobi_eigh"] + [f"numpy.linalg.{name}" for name in NUMPY_FACTORIZATIONS]
)


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op_id: int | None


def layer_of(name: str) -> str:
    """Layer a span belongs to; numpy factorizations count as linalg."""
    head = name.split(".", 1)[0]
    return "linalg" if head == "numpy" else head


class Tracer:
    """Records spans while an op is open; calls outside ops pass straight through."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: int, parent: int | None) -> None:
        self.spans[index] = Span(name, start, time.perf_counter_ns(), parent, self.op_id)
        self._stack.pop()

    def call_op(self, op_id: int, name: str, fn, *args):
        """Run one benchmark op as a top-level span."""
        self.op_id = op_id
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(index, name, start, parent)
            self.op_id = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start, parent)

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"framecalc.{layer}")
            for attr in module.__all__:
                value = getattr(module, attr)
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "framecalc" or name.startswith("framecalc.")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(module, attr, wrappers[value])
        import numpy.linalg

        for attr in NUMPY_FACTORIZATIONS:
            original = getattr(numpy.linalg, attr)
            self._rebind(numpy.linalg, attr, self.wrap(f"numpy.linalg.{attr}", original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Duration minus the part covered by direct children (one thread, so
    siblings never overlap and their durations add)."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end_ns - span.start_ns
    return [span.end_ns - span.start_ns - covered[i] for i, span in enumerate(spans)]


def is_outermost_factorization(spans: list[Span], index: int) -> bool:
    if spans[index].name not in FACTORIZATIONS:
        return False
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in FACTORIZATIONS:
            return False
        parent = spans[parent].parent
    return True
