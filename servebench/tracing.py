"""Spans around the program's public calls, recorded from the benchmark side.

The program itself is not instrumented.  A traced round swaps in
:class:`TracedEngine` (a :class:`~repro.service.TickEngine` whose stage
methods open spans) and, for the duration of the round, wraps the LP
pipeline's module-level entry points (:func:`patched`).  Spans are kept in
memory; :meth:`Tracer.self_ms` turns them into per-layer self times (a
span's duration minus the part its child spans cover).

A :class:`GcMonitor` times collector pauses through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.lp_packing as lp_packing
import repro.solver.api as solver_api
from repro.service import TickEngine


class Tracer:
    """In-memory span recorder: ``(name, start, end, parent)`` tuples."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order"
            )

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, func):
        """``func`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def self_ms(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self time (ms), per-name call counts, and the summed
        duration (ms) of the top-level spans."""
        child_seconds = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
            else:
                top_level += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), children in zip(self.spans, child_seconds):
            self_ms[name] += (end - start - children) * 1e3
            calls[name] += 1
        return dict(self_ms), dict(calls), top_level * 1e3


class TracedEngine(TickEngine):
    """A :class:`TickEngine` whose stages the service calls open spans.

    Span names are the benchmark's layer names (README.md).
    """

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def apply_churn(self, delta):
        with self.tracer.span("delta.apply"):
            return super().apply_churn(delta)

    def serve_one(self, user_id):
        with self.tracer.span("online.serve"):
            events = super().serve_one(user_id)
        if events:
            self.tracer.counters["online.nonempty"] += 1
        return events

    def repair(self, result):
        with self.tracer.span("repair"):
            return super().repair(result)

    def utility(self):
        with self.tracer.span("utility"):
            return super().utility()

    def iter_defrag_passes(self, result):
        passes = super().iter_defrag_passes(result)
        while True:
            with self.tracer.span("defrag.improve"):
                counts = next(passes, None)
            if counts is None:
                return
            yield counts

    def adopt_lp(self, *args, **kwargs):
        with self.tracer.span("lp.adopt"):
            return super().adopt_lp(*args, **kwargs)

    def audit(self, result):
        with self.tracer.span("audit"):
            return super().audit(result)


@contextmanager
def patched(tracer: Tracer):
    """Wrap the LP pipeline's entry points in spans for one traced round.

    ``lp.build`` is the benchmark-LP construction, ``lp.presolve`` this
    library's presolve, ``lp.solve`` the backend solve (HiGHS or the revised
    simplex) and ``lp.sample`` the rounding step (set sampling plus
    event-capacity repair).  Every original is restored on exit.
    """
    build = lp_packing.build_benchmark_lp

    def traced_build(*args, **kwargs):
        benchmark = build(*args, **kwargs)
        tracer.counters["lp.variables"] += benchmark.lp.num_variables
        return benchmark

    targets = [
        (lp_packing, "build_benchmark_lp", "lp.build", traced_build),
        (solver_api, "run_presolve", "lp.presolve", None),
        (solver_api, "solve_lp_scipy", "lp.solve", None),
        (solver_api, "solve_lp_revised_simplex", "lp.solve", None),
        (solver_api, "solve_lp_simplex", "lp.solve", None),
        (lp_packing.LPPacking, "sample_sets", "lp.sample", None),
        (lp_packing.LPPacking, "repair", "lp.sample", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, func in targets:
            setattr(owner, attr, tracer.wrap(name, func or getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


class GcMonitor:
    """Collector pause time and generation-2 collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_ms = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_ms += (time.perf_counter() - self._started) * 1e3
            if info["generation"] == 2:
                self.gen2 += 1

    @contextmanager
    def watching(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)
