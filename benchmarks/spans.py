"""Span tracing that attributes a job's time to otasec's modules.

While installed, a :class:`Tracer` rebinds every public function of each
layer module, in every otasec module whose namespace holds it, to a wrapper
that records a span: layer, function, start, end, parent span, job and thread.
Functions bound by ``from .x import y`` (``experiments.coop_security``,
``metrics.hermitian_solve``, ``optimizer.solve_lp``, ...) are rebound where
they were imported, so calls between modules are seen.  A ``ThreadPoolExecutor``
named in an otasec module is replaced by one whose tasks open a span under the
span that submitted them, so work on pool threads counts against the span that
dispatched it.  Uninstalling restores every original object.

Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYER_MODULES = ("cli", "experiments", "channel", "encoding", "optimizer", "lp", "linalg", "metrics")
# The Monte Carlo oracles live in ``metrics`` but are a layer of their own.
MC_FUNCTIONS = frozenset({"mc_oracle", "mc_combiner_mse"})
LAYERS = LAYER_MODULES + ("metrics_mc",)


class Span:
    __slots__ = ("id", "parent", "layer", "function", "job", "thread", "start", "end")

    def __init__(self, span_id, parent, layer, function, job, thread):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.function = function
        self.job = job
        self.thread = thread
        self.start = perf_counter()
        self.end = self.start

    def as_list(self) -> list:
        return [self.id, self.parent, self.layer, self.function, self.job, self.thread, self.start, self.end]


def layer_functions() -> dict:
    """Map each public function of a layer module to its layer."""
    found = {}
    for name in LAYER_MODULES:
        module = importlib.import_module(f"otasec.{name}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                found[obj] = "metrics_mc" if obj.__name__ in MC_FUNCTIONS else name
    return found


class Tracer:
    """Records spans of otasec calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None  # id stamped on spans opened by the job's own thread
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    def _open(self, layer: str, function: str, parent: Span | None, job) -> Span:
        span = Span(next(self._ids), parent.id if parent else None, layer, function, job, threading.get_ident())
        self._local.span = span
        return span

    def _close(self, span: Span, parent: Span | None) -> None:
        span.end = perf_counter()
        self._local.span = parent
        self.spans.append(span)

    def _wrap(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(self._local, "span", None)
            span = self._open(layer, name, parent, parent.job if parent else self.job)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, parent)

        return traced

    def _pool_class(self):
        tracer = self

        class SpanPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                dispatcher = getattr(tracer._local, "span", None)
                if dispatcher is None:
                    return super().submit(fn, *args, **kwargs)

                def task(*a, **kw):
                    previous = getattr(tracer._local, "span", None)
                    span = tracer._open(dispatcher.layer, f"{dispatcher.function}.task", dispatcher, dispatcher.job)
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._close(span, previous)

                return super().submit(task, *args, **kwargs)

        return SpanPool

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (fn, self._wrap(fn, layer)) for fn, layer in layer_functions().items()}
        pool = self._pool_class()
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "otasec" or mod_name.startswith("otasec.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    replacement = entry[1]
                elif obj is ThreadPoolExecutor:
                    replacement = pool
                else:
                    continue
                self._patches.append((module, attr, obj))
                setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _union_length(intervals: list) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> dict:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = (span.end - span.start) - _union_length(covered)
    return out


def layer_totals(spans: list, selfs: dict) -> dict:
    """Calls and self seconds per layer, summed over the given spans."""
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for span in spans:
        entry = totals[span.layer]
        if not span.function.endswith(".task"):
            entry[0] += 1
        entry[1] += selfs[span.id]
    return {layer: (calls, seconds) for layer, (calls, seconds) in totals.items()}
