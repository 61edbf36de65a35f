"""Tracer protocol, the null fast path, and the global tracer hook.

A :class:`Tracer` receives the solve-path events every instrumented solver
emits (``solve_start`` / ``iteration`` / ``speculation_wave`` / ``solve_end``),
plus cheap counters (FK evaluations, Jacobian builds, candidate evaluations,
restarts) and phase timers (jacobian, alpha, fk_sweep, selection).

Design constraints, in order:

1. **The null path must be free.**  Every hot loop guards its telemetry with
   a single ``if tracer.enabled:`` attribute check, so an uninstrumented
   solve performs no event construction, no dict allocation and no
   ``perf_counter`` calls.  ``tests/telemetry/test_overhead.py`` enforces
   this stays within noise of the seed driver loop.
2. **One hook point per driver.**  :meth:`repro.core.base.IterativeIKSolver.solve`
   instruments the shared outer loop once, which covers JT-Serial, J-1-SVD,
   DLS, SDLS, CCD, null-space and Quick-IK; the lock-step batch engines and
   the IKAcc cycle simulator add their own wave/phase events.
3. **Sinks are dumb.**  Concrete tracers (:mod:`repro.telemetry.sinks`)
   override :meth:`TracerBase._record` and receive plain dicts that are
   already JSON-serialisable.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Protocol, runtime_checkable

__all__ = [
    "Tracer",
    "TracerBase",
    "NullTracer",
    "NULL_TRACER",
    "MultiTracer",
    "COUNTER_NAMES",
    "GAUGE_NAMES",
    "PHASE_NAMES",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

#: Canonical counter names (sinks accept arbitrary names; these are the ones
#: the built-in instrumentation emits).  The resilience layer adds:
#: ``guard_rejected`` (targets rejected at the boundary), ``solve_failed``
#: (problems that ended without a usable solution), ``fallback_used``
#: (solves that degraded past their primary solver), ``nonfinite_exits``
#: (driver exits on a non-finite error), and ``watchdog_deadline`` /
#: ``watchdog_diverged`` / ``watchdog_stalled`` (watchdog trips).  The
#: serving layer adds: ``serve_requests`` (admitted requests),
#: ``serve_batches`` (lock-step runs opened for keys served by admission,
#: executed micro-batches for the others), ``serve_overloaded``
#: (backpressure rejections), ``serve_deadline_expired`` (latency budgets
#: expired at admission or in queue), ``serve_shed`` (predicted deadline
#: misses), ``serve_cache_hits`` / ``serve_cache_misses`` (warm-start
#: seed-cache lookups) and ``serve_warm_iterations`` /
#: ``serve_cold_iterations`` (solver iterations of completed requests, by
#: seed source), plus the ``serve_coalesce`` / ``serve_execute`` phase
#: timers.  The session layer
#: (:mod:`repro.serving.sessions`) adds ``serve_session_opened`` /
#: ``serve_session_closed`` / ``serve_session_expired`` /
#: ``serve_session_rejected`` (lifecycle) and ``serve_session_ticks`` /
#: ``serve_session_warm_ticks`` / ``serve_session_cold_ticks`` (stream
#: admissions, split by warm chaining).  The experiment orchestrator
#: (:mod:`repro.experiments`) adds ``experiment_runs_started`` (sweep
#: passes begun, fresh or resumed) and ``experiment_cells_started`` /
#: ``experiment_cells_completed`` / ``experiment_cells_failed`` /
#: ``experiment_cells_skipped`` (per-cell lifecycle; skipped counts cells
#: already ``done`` in the store that a resume pass left untouched), plus
#: the ``experiment_cell`` phase timer around each cell's execution.
COUNTER_NAMES = (
    "fk_evaluations",
    "jacobian_builds",
    "candidate_evaluations",
    "restarts",
    "guard_rejected",
    "solve_failed",
    "fallback_used",
    "nonfinite_exits",
    "watchdog_deadline",
    "watchdog_diverged",
    "watchdog_stalled",
)

#: Canonical gauge names (point-in-time values, not accumulating counts).
#: ``active_rows`` — live problems in a lock-step run at each iteration
#: (the rows that iteration's sweep touched).
GAUGE_NAMES = ("active_rows",)

#: Canonical phase-timer names.
PHASE_NAMES = ("jacobian", "alpha", "fk_sweep", "selection")


@runtime_checkable
class Tracer(Protocol):
    """Structural protocol every sink implements.

    ``enabled`` is the hot-loop guard: instrumented code checks it once and
    skips all event construction when false.
    """

    enabled: bool

    def solve_start(self, solver: str, dof: int, **fields: Any) -> None: ...

    def iteration(self, index: int, error: float, **fields: Any) -> None: ...

    def speculation_wave(self, wave: int, occupancy: int, **fields: Any) -> None: ...

    def solve_end(self, solver: str, **fields: Any) -> None: ...

    def count(self, counter: str, amount: int = 1) -> None: ...

    def gauge(self, name: str, value: float, **fields: Any) -> None: ...

    def add_phase(self, phase: str, seconds: float) -> None: ...


class TracerBase:
    """Shared event-building machinery for real (non-null) tracers.

    Subclasses implement :meth:`_record`; counters and phase totals are
    accumulated here so every sink exposes the same ``counters`` /
    ``phase_seconds`` dictionaries.  Both accumulate under one lock, so
    they stay exact when dispatch threads and client threads bump the same
    counter.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.phase_seconds: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._clock_start = time.perf_counter()
        self._lock = threading.Lock()

    # -- sink interface -------------------------------------------------

    def _record(self, event: dict[str, Any]) -> None:
        raise NotImplementedError

    def _emit(self, name: str, fields: dict[str, Any]) -> None:
        event = {"event": name, "t": time.perf_counter() - self._clock_start}
        event.update(fields)
        self._record(event)

    # -- event API ------------------------------------------------------

    def solve_start(self, solver: str, dof: int, **fields: Any) -> None:
        """A solve (or lock-step batch) is beginning."""
        fields.update(solver=solver, dof=dof)
        self._emit("solve_start", fields)

    def iteration(self, index: int, error: float, **fields: Any) -> None:
        """One outer-loop iteration finished."""
        fields.update(index=index, error=error)
        self._emit("iteration", fields)

    def speculation_wave(self, wave: int, occupancy: int, **fields: Any) -> None:
        """One SSU-array wave of speculative candidates was evaluated."""
        fields.update(wave=wave, occupancy=occupancy)
        self._emit("speculation_wave", fields)

    def solve_end(self, solver: str, **fields: Any) -> None:
        """A solve (or lock-step batch) finished."""
        fields["solver"] = solver
        self._emit("solve_end", fields)

    # -- counters / phases ----------------------------------------------

    def count(self, counter: str, amount: int = 1) -> None:
        """Bump a named counter (e.g. ``fk_evaluations``)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def gauge(self, name: str, value: float, **fields: Any) -> None:
        """Record a point-in-time value (e.g. ``active_rows``).

        Unlike :meth:`count`, gauges do not accumulate: each call emits one
        ``gauge`` event and overwrites the last value in :attr:`gauges`.
        """
        fields.update(name=name, value=value)
        self._emit("gauge", fields)
        self.gauges[name] = value

    def add_phase(self, phase: str, seconds: float) -> None:
        """Accumulate wall time into a named phase (e.g. ``jacobian``)."""
        with self._lock:
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0) + seconds
            )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context-manager sugar over :meth:`add_phase` for cold paths."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)


class NullTracer:
    """The do-nothing tracer: every method is a no-op.

    Instrumented hot loops never even call these (they guard on
    ``enabled``), but the methods exist so cold paths can call them
    unconditionally.
    """

    enabled = False

    def solve_start(self, solver: str, dof: int, **fields: Any) -> None:
        pass

    def iteration(self, index: int, error: float, **fields: Any) -> None:
        pass

    def speculation_wave(self, wave: int, occupancy: int, **fields: Any) -> None:
        pass

    def solve_end(self, solver: str, **fields: Any) -> None:
        pass

    def count(self, counter: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float, **fields: Any) -> None:
        pass

    def add_phase(self, phase: str, seconds: float) -> None:
        pass

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def __repr__(self) -> str:
        return "NullTracer()"


#: Shared null-tracer instance; ``is NULL_TRACER`` identifies "no telemetry".
NULL_TRACER = NullTracer()


class MultiTracer(TracerBase):
    """Fan one event stream out to several sinks (e.g. JSONL + metrics)."""

    def __init__(self, *sinks: Tracer) -> None:
        super().__init__()
        self.sinks = [s for s in sinks if s is not None and s.enabled]
        self.enabled = bool(self.sinks)

    def solve_start(self, solver: str, dof: int, **fields: Any) -> None:
        for sink in self.sinks:
            sink.solve_start(solver, dof, **fields)

    def iteration(self, index: int, error: float, **fields: Any) -> None:
        for sink in self.sinks:
            sink.iteration(index, error, **fields)

    def speculation_wave(self, wave: int, occupancy: int, **fields: Any) -> None:
        for sink in self.sinks:
            sink.speculation_wave(wave, occupancy, **fields)

    def solve_end(self, solver: str, **fields: Any) -> None:
        for sink in self.sinks:
            sink.solve_end(solver, **fields)

    def count(self, counter: str, amount: int = 1) -> None:
        for sink in self.sinks:
            sink.count(counter, amount)

    def gauge(self, name: str, value: float, **fields: Any) -> None:
        for sink in self.sinks:
            gauge = getattr(sink, "gauge", None)
            if gauge is not None:
                gauge(name, value, **fields)

    def add_phase(self, phase: str, seconds: float) -> None:
        for sink in self.sinks:
            sink.add_phase(phase, seconds)


# ----------------------------------------------------------------------
# Global tracer hook
# ----------------------------------------------------------------------
#
# Harness code (``repro bench``, the evaluation suite) runs solvers many
# layers deep; threading a ``tracer=`` argument through every call site would
# churn every signature.  Instead, solvers that receive no explicit tracer
# fall back to this process-global default (NULL_TRACER unless installed).

_global_tracer: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-global default tracer (:data:`NULL_TRACER` initially)."""
    return _global_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the global default; returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer`: install for the block, restore on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
