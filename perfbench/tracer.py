"""In-memory span recorder that wraps the public functions of ghzsense's modules.

The tracer lives entirely in the benchmark: it replaces each public function
in each module namespace (including names one module imports from another,
such as ``ghzsense.qfim.inner_product``) with a wrapper that records a span
``(name, start, end, parent, op, extra)``.  ``name`` is ``<layer>.<function>``
where the layer is the module that defines the function, so a call into
``inner_product`` counts under ``ghz_state`` whichever module made it.
``scipy.optimize.minimize`` is wrapped where ``montecarlo`` reaches it, under
the name ``scipy.minimize``.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

LAYERS = ("ghz_state", "qfim", "measurement", "reparam", "bounds", "montecarlo", "cli")
MINIMIZE = "scipy.minimize"
# Columns of the rows that span_totals returns.
CALLS, TOTAL, SELF, ITERATIONS, FAILURES = range(5)


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name: str, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        keeps_iterations = name == "montecarlo.mle_estimate"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            extra = ""
            start = clock()
            try:
                result = func(*args, **kwargs)
                if keeps_iterations:
                    extra = str(result.iterations)
                return result
            except BaseException as exc:
                extra = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, extra)

        return wrapper

    def _patch(self, namespace, attr: str, name: str, func) -> None:
        wrapper = self._wrappers.get(id(func))
        if wrapper is None:
            wrapper = self._wrappers[id(func)] = self._wrap(name, func)
        self._patches.append((namespace, attr, func))
        setattr(namespace, attr, wrapper)

    def install(self) -> None:
        """Wrap every public function of the package's modules and its re-exports."""
        namespaces = [importlib.import_module(f"ghzsense.{layer}") for layer in LAYERS]
        namespaces.append(importlib.import_module("ghzsense"))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                module = value.__module__
                if not module.startswith("ghzsense."):
                    continue
                self._patch(namespace, attr, f"{module[len('ghzsense.'):]}.{value.__name__}", value)
        scipy = getattr(namespaces[LAYERS.index("montecarlo")], "scipy", None)
        optimize = getattr(scipy, "optimize", None)
        if optimize is not None and hasattr(optimize, "minimize"):
            self._patch(optimize, "minimize", MINIMIZE, optimize.minimize)

    def uninstall(self) -> None:
        for namespace, attr, func in reversed(self._patches):
            setattr(namespace, attr, func)
        self._patches.clear()
        self._wrappers.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: name,start,end,parent,op,extra."""
        with gzip.open(path, "wt") as out:
            out.write("name,start,end,parent,op,extra\n")
            for name, start, end, parent, op, extra in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent},{'' if op is None else op},{extra}\n")


def read_spans(path) -> list[tuple]:
    """Inverse of :meth:`Tracer.write`."""
    spans = []
    with gzip.open(path, "rt") as src:
        next(src)
        for line in src:
            name, start, end, parent, op, extra = line.rstrip("\n").split(",")
            spans.append(
                (name, float(start), float(end), int(parent), int(op) if op else None, extra)
            )
    return spans


def span_totals(spans) -> dict[tuple[int, str], list[float]]:
    """Per (op, span name): [calls, total seconds, self seconds, iterations, failures].

    Self time is a span's duration minus the durations of its direct children;
    spans recorded outside an operation are skipped.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[tuple[int, str], list[float]] = {}
    for index, (name, start, end, parent, op, extra) in enumerate(spans):
        if op is None:
            continue
        row = totals.setdefault((op, name), [0, 0.0, 0.0, 0, 0])
        row[CALLS] += 1
        row[TOTAL] += end - start
        row[SELF] += end - start - child_time[index]
        if extra.isdigit():
            row[ITERATIONS] += int(extra)
        elif extra:
            row[FAILURES] += 1
    return totals
