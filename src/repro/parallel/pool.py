"""Process-pool execution layer: shard a target batch across workers.

The paper's evaluation solves 1K targets per manipulator; the lock-step
engines vectorise *within* one process but leave every other core idle.
This layer shards a batch across subprocesses — each shard runs the
existing scalar or lock-step engine untouched — and merges the per-shard
results back into one order-preserving :class:`~repro.core.result.BatchResult`.

Guarantees, in order of importance:

* **Determinism.**  ``workers=1`` and ``workers=8`` produce bit-identical
  trajectories, and both match the unsharded engine under the same seed:
  initial configurations are drawn in the parent in problem order and
  per-problem RNG streams are spawned from one
  ``np.random.SeedSequence.spawn`` (see :mod:`repro.parallel.sharding`).
* **No hung pools.**  A configurable ``timeout`` bounds the whole batch;
  worker failures come back as structured :class:`ShardError` records inside
  one :class:`ParallelExecutionError` instead of a deadlock or a bare
  traceback from a random process.
* **Telemetry merges.**  Each worker aggregates its shard into an in-memory
  summary; the parent folds them together
  (:func:`repro.telemetry.merge_summaries`), forwards counter/phase totals
  into the caller's tracer, and emits one ``solve_start``/``solve_end`` pair
  for the merged batch — so ``MetricsRegistry``/``--metrics-out`` see the
  sharded run exactly like a single batch solve.

Workers receive the solver *instance* (pickled; ``fork`` start method is
preferred where available) plus explicit ``q0`` rows and per-problem seed
sequences, so a shard is a pure function of its slice.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.result import BatchResult, IKResult
from repro.execution import ON_ERROR_MODES
from repro.parallel.sharding import (
    resolve_batch_q0,
    shard_slices,
    spawn_problem_seeds,
)
from repro.resilience.guards import (
    FATAL_GUARD_KINDS,
    GuardViolation,
    guard_targets,
    rejected_result,
)
from repro.resilience.report import STAGE_WORKER, FailureRecord, FailureReport
from repro.solvers.batched import LockStepEngine
from repro.telemetry.sinks import SummaryTracer, merge_summaries
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = [
    "ShardTask",
    "ShardOutcome",
    "ShardError",
    "ParallelExecutionError",
    "ShardedBatchSolver",
    "solve_batch_sharded",
    "default_workers",
]

#: Pool start method preference: ``fork`` (cheap, inherits the loaded numpy)
#: where the platform offers it, else the platform default.
_PREFERRED_START = "fork"

#: Per-problem retry budget (seconds) when a failed shard degrades in
#: ``on_error="fallback"`` mode and neither ``retry_timeout`` nor ``timeout``
#: is configured — retries must never inherit an unbounded wait, or one hung
#: poison problem would stall the whole recovery wave.
DEFAULT_RETRY_TIMEOUT = 60.0


def default_workers() -> int:
    """Usable CPU count (honours the scheduler affinity mask when set)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class ShardTask:
    """Everything one worker needs to solve problems ``[start, stop)``."""

    index: int
    start: int
    stop: int
    solver: Any
    targets: np.ndarray
    q0: np.ndarray
    seeds: list[np.random.SeedSequence]
    trace: bool = False


@dataclass
class ShardOutcome:
    """A shard's results plus its telemetry aggregates."""

    index: int
    start: int
    stop: int
    results: list[IKResult]
    wall_time: float
    summary: dict[str, Any] | None = None
    counters: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class ShardError:
    """Structured record of one shard's failure (exception or timeout)."""

    index: int
    start: int
    stop: int
    kind: str  # "exception" | "timeout" | "pool"
    exc_type: str = ""
    message: str = ""
    traceback: str = ""

    def describe(self) -> str:
        span = f"problems [{self.start}:{self.stop})"
        if self.kind == "timeout":
            return f"shard {self.index} ({span}): timed out"
        return (
            f"shard {self.index} ({span}): {self.kind} "
            f"{self.exc_type}: {self.message}"
        )


class ParallelExecutionError(RuntimeError):
    """One or more shards failed; carries the per-shard error records."""

    def __init__(self, shard_errors: list[ShardError]) -> None:
        self.shard_errors = shard_errors
        lines = "\n  ".join(e.describe() for e in shard_errors)
        super().__init__(
            f"{len(shard_errors)} shard(s) failed:\n  {lines}"
        )


def _run_shard(task: ShardTask) -> ShardOutcome | ShardError:
    """Worker entry point: solve one shard, never raise.

    Failures come back as :class:`ShardError` values so the pool stays
    healthy and the parent can report every failing shard at once.
    """
    try:
        tracer = SummaryTracer() if task.trace else None
        start_time = time.perf_counter()
        solver = task.solver
        if isinstance(solver, LockStepEngine):
            batch = solver.solve_batch(task.targets, q0=task.q0, tracer=tracer)
            results = list(batch.results)
        else:
            results = []
            for i in range(task.targets.shape[0]):
                rng = np.random.default_rng(task.seeds[i]) if task.seeds else None
                results.append(
                    solver.solve(
                        task.targets[i], q0=task.q0[i], rng=rng, tracer=tracer
                    )
                )
        return ShardOutcome(
            index=task.index,
            start=task.start,
            stop=task.stop,
            results=results,
            wall_time=time.perf_counter() - start_time,
            summary=tracer.summary().to_dict() if tracer is not None else None,
            counters=dict(tracer.counters) if tracer is not None else {},
            phase_seconds=dict(tracer.phase_seconds) if tracer is not None else {},
        )
    except Exception as exc:  # pragma: no cover - exercised via pool tests
        return ShardError(
            index=task.index,
            start=task.start,
            stop=task.stop,
            kind="exception",
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )


def _pool_context():
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    if _PREFERRED_START in methods:
        return mp.get_context(_PREFERRED_START)
    return mp.get_context()


def _run_tasks(
    tasks: list[ShardTask],
    workers: int,
    timeout: float | None,
    force_pool: bool = False,
) -> list[ShardOutcome | ShardError]:
    """Run shard tasks inline (single worker) or on a process pool.

    ``force_pool`` runs even a single task through a subprocess — the
    fallback retry wave uses it so a crashing / hanging / SIGKILLed
    problem stays isolated from the parent instead of taking it down.
    """
    if not tasks:
        return []
    n_procs = min(workers, len(tasks))
    if n_procs <= 1 and not force_pool:
        return [_run_shard(task) for task in tasks]
    n_procs = max(n_procs, 1)

    outcomes: dict[int, ShardOutcome | ShardError] = {}
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=n_procs, mp_context=_pool_context()
    )
    try:
        futures = {pool.submit(_run_shard, task): task for task in tasks}
        done, pending = concurrent.futures.wait(futures, timeout=timeout)
        for future in done:
            task = futures[future]
            try:
                outcomes[task.index] = future.result()
            except Exception as exc:  # BrokenProcessPool, pickling, ...
                outcomes[task.index] = ShardError(
                    index=task.index,
                    start=task.start,
                    stop=task.stop,
                    kind="pool",
                    exc_type=type(exc).__name__,
                    message=str(exc),
                )
        for future in pending:
            task = futures[future]
            future.cancel()
            outcomes[task.index] = ShardError(
                index=task.index,
                start=task.start,
                stop=task.stop,
                kind="timeout",
            )
        if pending:
            # A running shard cannot be cancelled; hard-kill the workers so
            # neither this call nor interpreter exit blocks on a hung shard.
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    return [outcomes[task.index] for task in tasks]


class ShardedBatchSolver:
    """Wrap any batch-capable solver with process-pool sharding.

    Drop-in for the lock-step engines: exposes the same
    ``solve_batch(targets, q0=None, rng=None, tracer=None)`` signature and
    the same ``name``/``chain``/``config`` attributes, so the evaluation
    suite and the CLI treat a sharded solver like any other engine.

    Parameters
    ----------
    solver:
        A lock-step engine (sharded ``solve_batch`` per shard) or any scalar
        :class:`~repro.core.base.IterativeIKSolver` (per-problem loop per
        shard).  Must be picklable.
    workers:
        Subprocess count; ``1`` runs the identical shard code inline (no
        pool), which is also the fallback when a batch has a single shard.
    timeout:
        Seconds allowed for the whole batch once dispatched to a pool;
        ``None`` waits indefinitely.  On expiry every unfinished shard is
        reported in a :class:`ParallelExecutionError` (inline runs are not
        interruptible and ignore the timeout).
    on_error:
        Failure policy for guard rejections and shard failures:

        * ``"raise"`` (default, historical behaviour) — fatal guard
          violations raise :class:`~repro.resilience.guards.GuardViolation`
          and any shard failure raises :class:`ParallelExecutionError`.
        * ``"skip"`` — rejected / failed problems come back as placeholder
          results (``converged=False``, NaN error, typed ``status``) and the
          batch carries a :class:`~repro.resilience.report.FailureReport`.
        * ``"fallback"`` — like ``skip``, but every problem from a failed
          shard is retried individually through an isolated subprocess with
          a :class:`~repro.resilience.resilient.ResilientSolver` built from
          ``resilience.fallback_chain``, so one poisoned problem degrades
          alone instead of failing its shard-mates.
    resilience:
        Optional :class:`~repro.resilience.resilient.ResilienceConfig`
        controlling the fallback chain, reseeding and the guard reach
        margin.  Only consulted when ``on_error != "raise"``.
    retry_timeout:
        Seconds allowed for the whole fallback retry wave.  Defaults to
        ``timeout`` when set, else :data:`DEFAULT_RETRY_TIMEOUT` — the
        retry wave is never unbounded.
    """

    def __init__(
        self,
        solver: Any,
        workers: int,
        timeout: float | None = None,
        on_error: str = "raise",
        resilience: Any = None,
        retry_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        if retry_timeout is not None and retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive (or None)")
        self.solver = solver
        self.workers = int(workers)
        self.timeout = timeout
        self.on_error = on_error
        self.resilience = resilience
        self.retry_timeout = retry_timeout

    def _retry_solver(self) -> Any:
        """Build the per-problem fallback solver for ``on_error="fallback"``.

        Constructed from the registry fallback chain (not from the possibly
        faulty ``self.solver`` instance), so a poisoned solver object is not
        retried verbatim.
        """
        from repro.resilience.resilient import ResilienceConfig, ResilientSolver

        cfg = (
            self.resilience
            if self.resilience is not None
            else ResilienceConfig()
        )
        return ResilientSolver(self.chain, config=self.config, resilience=cfg)

    @property
    def name(self) -> str:
        return self.solver.name

    @property
    def chain(self):
        return self.solver.chain

    @property
    def config(self):
        return self.solver.config

    def solve_batch(
        self,
        targets: np.ndarray,
        q0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ) -> BatchResult:
        """Shard ``targets`` across the pool and merge, preserving order."""
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if targets.shape[1] != 3:
            raise ValueError("targets must have shape (M, 3)")
        m = targets.shape[0]
        tr = tracer if tracer is not None else get_tracer()
        traced = tr.enabled
        start_time = time.perf_counter()

        # --- guard stage -------------------------------------------------
        # In raise mode only fatal violations (non-finite / wrong shape)
        # abort; "unreachable" stays advisory so existing out-of-reach
        # workloads keep hitting the iteration cap as before.  In
        # skip/fallback modes every guarded problem is excluded up front
        # and accounted for in the batch's FailureReport.
        reach_margin = (
            self.resilience.reach_margin if self.resilience is not None else 0.0
        )
        guard_records = guard_targets(self.chain, targets, reach_margin)
        report: FailureReport | None = (
            FailureReport() if self.on_error != "raise" else None
        )
        skip = np.zeros(m, dtype=bool)
        if self.on_error == "raise":
            fatal = [r for r in guard_records if r.kind in FATAL_GUARD_KINDS]
            if fatal:
                raise GuardViolation(FailureReport(fatal))
        else:
            for record in guard_records:
                skip[record.index] = True
                report.add(record)
            if traced and guard_records:
                tr.count("guard_rejected", len(guard_records))

        # q0/seeds are resolved over *all* m problems before exclusion, so
        # the per-problem streams are identical whether or not a guard
        # fires — determinism is positional, not survivor-positional.
        qs = resolve_batch_q0(self.chain, m, q0, rng)
        seeds = spawn_problem_seeds(m, rng)
        kept = np.flatnonzero(~skip)
        slices = shard_slices(int(kept.size), self.workers) if kept.size else []
        tasks = [
            ShardTask(
                index=i,
                start=lo,
                stop=hi,
                solver=self.solver,
                targets=targets[kept[lo:hi]],
                q0=qs[kept[lo:hi]],
                seeds=[seeds[j] for j in kept[lo:hi]],
                trace=traced,
            )
            for i, (lo, hi) in enumerate(slices)
        ]
        if traced:
            tr.solve_start(
                self.name,
                self.chain.dof,
                batch=m,
                workers=self.workers,
                shards=len(tasks),
            )

        outcomes = _run_tasks(tasks, self.workers, self.timeout)
        errors = [o for o in outcomes if isinstance(o, ShardError)]
        if errors and self.on_error == "raise":
            raise ParallelExecutionError(errors)

        slots: list[IKResult | None] = [None] * m
        good_outcomes = [o for o in outcomes if isinstance(o, ShardOutcome)]
        for outcome in good_outcomes:
            for local, res in zip(
                range(outcome.start, outcome.stop), outcome.results
            ):
                slots[int(kept[local])] = res

        placeholder_count = 0
        if report is not None:
            for record in report.records:
                gi = record.index
                slots[gi] = rejected_result(
                    self.chain, targets[gi], self.name,
                    status=record.kind, q=qs[gi],
                )
                placeholder_count += 1

        if errors and self.on_error == "skip":
            for err in errors:
                for local in range(err.start, err.stop):
                    gi = int(kept[local])
                    report.add(FailureRecord(
                        index=gi,
                        stage=STAGE_WORKER,
                        kind=err.kind,
                        message=err.message or err.describe(),
                        solver=self.name,
                    ))
                    slots[gi] = rejected_result(
                        self.chain, targets[gi], self.name,
                        status=err.kind, q=qs[gi],
                    )
                    placeholder_count += 1
        elif errors:  # on_error == "fallback"
            retry_solver = self._retry_solver()
            retry_tasks: list[ShardTask] = []
            retry_map: list[tuple[int, ShardError]] = []
            for err in errors:
                for local in range(err.start, err.stop):
                    gi = int(kept[local])
                    retry_map.append((gi, err))
                    retry_tasks.append(ShardTask(
                        index=len(retry_tasks),
                        start=gi,
                        stop=gi + 1,
                        solver=retry_solver,
                        targets=targets[gi:gi + 1],
                        q0=qs[gi:gi + 1],
                        seeds=[seeds[gi]],
                        trace=traced,
                    ))
            if traced and retry_tasks:
                tr.count("fallback_used", len(retry_tasks))
            retry_timeout = (
                self.retry_timeout
                if self.retry_timeout is not None
                else (self.timeout if self.timeout is not None
                      else DEFAULT_RETRY_TIMEOUT)
            )
            # Each problem gets its own subprocess (force_pool): the retry
            # must survive the same crash/hang/SIGKILL fault that killed
            # its shard, and a still-poisoned problem must die alone.
            retry_outcomes = _run_tasks(
                retry_tasks, self.workers, retry_timeout, force_pool=True
            )
            for (gi, err), outcome in zip(retry_map, retry_outcomes):
                if isinstance(outcome, ShardOutcome) and outcome.results:
                    res = outcome.results[0]
                    slots[gi] = res
                    good_outcomes.append(outcome)
                    report.add(FailureRecord(
                        index=gi,
                        stage=STAGE_WORKER,
                        kind=err.kind,
                        message=err.message or "shard failed; retried solo",
                        solver=self.name,
                        recovered=bool(res.converged),
                        attempts=1,
                    ))
                else:
                    retry_err = outcome if isinstance(outcome, ShardError) else err
                    report.add(FailureRecord(
                        index=gi,
                        stage=STAGE_WORKER,
                        kind=retry_err.kind,
                        message=retry_err.message or "solo retry failed",
                        solver=self.name,
                        attempts=1,
                    ))
                    slots[gi] = rejected_result(
                        self.chain, targets[gi], self.name,
                        status=retry_err.kind, q=qs[gi],
                    )
                    placeholder_count += 1

        results: list[IKResult] = [r for r in slots if r is not None]
        if len(results) != m:  # pragma: no cover - internal invariant
            raise RuntimeError("sharded batch lost problems during merge")
        elapsed = time.perf_counter() - start_time
        batch = BatchResult(results=results, solver=self.name, wall_time=elapsed)
        if report is not None:
            batch.failures = report
        if traced:
            if placeholder_count:
                tr.count("solve_failed", placeholder_count)
            for outcome in good_outcomes:
                for counter, value in outcome.counters.items():
                    tr.count(counter, value)
                for phase, seconds in outcome.phase_seconds.items():
                    tr.add_phase(phase, seconds)
            # Placeholder results carry NaN errors; aggregate over the
            # finite ones so the merged record stays numeric.
            end_fields: dict[str, Any] = dict(
                batch=m,
                converged_count=batch.converged_count,
                iterations=batch.total_iterations,
                error=float(max(
                    (r.error for r in results if math.isfinite(r.error)),
                    default=0.0,
                )),
                wall_time=elapsed,
                workers=self.workers,
                shards=len(tasks),
            )
            if report is not None:
                end_fields["failed"] = len(report.fatal)
            tr.solve_end(
                self.name,
                converged=batch.converged_count == m,
                **end_fields,
            )
            shard_summaries = [
                o.summary for o in good_outcomes if o.summary is not None
            ]
            if shard_summaries:
                batch.telemetry = merge_summaries(shard_summaries).to_dict()
        return batch

    def __repr__(self) -> str:
        return (
            f"ShardedBatchSolver({self.solver!r}, workers={self.workers}, "
            f"timeout={self.timeout})"
        )


def solve_batch_sharded(
    solver: Any,
    targets: np.ndarray,
    *,
    workers: int,
    q0: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    tracer: Tracer | None = None,
    timeout: float | None = None,
) -> BatchResult:
    """Functional form: shard ``targets`` over ``workers`` and merge."""
    return ShardedBatchSolver(solver, workers=workers, timeout=timeout).solve_batch(
        targets, q0=q0, rng=rng, tracer=tracer
    )
