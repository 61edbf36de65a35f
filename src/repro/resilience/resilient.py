"""Fallback chains with retry-and-reseed: the :class:`ResilientSolver`.

IKSel-style supervision for the solver zoo: run the primary solver, and when
it fails (unconverged, watchdog trip, non-finite output, or an exception),
degrade down a configurable chain of registry solvers — the default mirrors
the paper's ranking, ``JT-Speculation -> JT-DLS -> J-1-SVD`` — drawing a
fresh random seed per attempt.  Cost accounting is honest (iterations, FK
evaluations and wall time sum over every attempt, like
:class:`~repro.solvers.restarts.RandomRestartSolver`), and the telemetry
counters ``fallback_used`` / ``solve_failed`` make degradation observable.

The wrapper is picklable (it holds only the chain, configs and registry
solver instances), so it slots directly into :mod:`repro.parallel` shard
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.result import IKResult, SolverConfig
from repro.resilience.guards import FATAL_GUARD_KINDS, guard_target, rejected_result
from repro.resilience.report import (
    STAGE_SOLVER,
    FailureRecord,
    FailureReport,
)
from repro.resilience.watchdogs import WatchdogConfig
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = [
    "ResilienceConfig",
    "ResilientSolver",
    "DEFAULT_FALLBACK_CHAIN",
]

#: Degradation order of the default fallback chain (paper Table 1 names):
#: the paper's contribution first, then damped least squares, then the SVD
#: pseudoinverse — each strictly more conservative than the last.
DEFAULT_FALLBACK_CHAIN = ("JT-Speculation", "JT-DLS", "J-1-SVD")


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy for :class:`ResilientSolver` and the resilient batch paths.

    Parameters
    ----------
    fallback_chain:
        Registry solver names tried in order after the primary fails.  Names
        equal to the primary's are skipped, so the default chain composes
        with any primary without double-running it.
    attempts_per_solver:
        Reseeded attempts per chain entry (>= 1).
    reseed:
        Draw a fresh random initial configuration for every retry (the
        caller's ``q0`` is honoured only on the very first attempt).
    watchdog:
        Optional :class:`~repro.resilience.watchdogs.WatchdogConfig` applied
        to every attempt (merged into the solver's ``SolverConfig``).
    reach_margin:
        Relative slack on the unreachable-target guard.
    """

    fallback_chain: tuple[str, ...] = DEFAULT_FALLBACK_CHAIN
    attempts_per_solver: int = 1
    reseed: bool = True
    watchdog: WatchdogConfig | None = None
    reach_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.attempts_per_solver < 1:
            raise ValueError("attempts_per_solver must be >= 1")
        if self.reach_margin < 0.0:
            raise ValueError("reach_margin must be >= 0")


class ResilientSolver:
    """Guarded, watchdogged, fallback-chained wrapper around the solver zoo.

    Exposes the scalar ``solve(target, q0=None, rng=None, tracer=None)``
    surface plus ``name`` / ``chain`` / ``config``, so it drops into every
    place a registry solver does (including shard workers).  ``solve`` never
    raises for bad inputs or failing attempts — it returns a typed
    :class:`IKResult` (``status`` tells the story) and records the attempt
    trail in :attr:`last_report`.

    Parameters
    ----------
    chain:
        The kinematic chain every chained solver is built for.
    primary:
        First solver to try: a registry name, an already-built solver
        instance, or ``None`` to start directly with the fallback chain.
    config:
        Convergence policy shared by every chained solver (the resilience
        watchdog is merged in).
    resilience:
        The :class:`ResilienceConfig`; defaults to the stock policy.
    """

    def __init__(
        self,
        chain,
        primary=None,
        config: SolverConfig | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        from repro.solvers.registry import make_solver

        self.chain = chain
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        config = config or SolverConfig()
        if self.resilience.watchdog is not None and config.watchdog is None:
            config = replace(config, watchdog=self.resilience.watchdog)
        self.config = config

        solvers = []
        if primary is not None:
            if isinstance(primary, str):
                primary = make_solver(primary, chain, config=config)
            solvers.append(primary)
        taken = {s.name for s in solvers}
        for name in self.resilience.fallback_chain:
            if name in taken:
                continue
            solvers.append(make_solver(name, chain, config=config))
            taken.add(name)
        if not solvers:
            raise ValueError(
                "resilient solver needs a primary or a non-empty fallback_chain"
            )
        self.solvers = solvers
        #: Attempt trail of the most recent ``solve`` call (diagnostics only;
        #: reset per call, not shipped back from pool workers).
        self.last_report: FailureReport = FailureReport()

    @property
    def name(self) -> str:
        """Label derived from the first solver in the chain."""
        return f"{self.solvers[0].name}+resilient"

    def solve(
        self,
        target: np.ndarray,
        q0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ) -> IKResult:
        """Solve with guards, watchdogs and the fallback chain.

        Returns the first converged (and finite) attempt with accumulated
        cost, or the best failed attempt (``status`` preserved from the
        inner driver, e.g. ``"max_iterations"`` / ``"diverged"``).  Guard
        rejections return a placeholder result with
        ``status in {"nonfinite_target", "bad_shape", "unreachable"}``.
        """
        tr = tracer if tracer is not None else get_tracer()
        report = FailureReport()
        self.last_report = report

        record = guard_target(
            self.chain, target, reach_margin=self.resilience.reach_margin
        )
        if record is not None:
            report.add(record)
            if tr.enabled:
                tr.count("guard_rejected")
                tr.count("solve_failed")
            return rejected_result(
                self.chain, target, self.name, status=record.kind, q=q0
            )

        if rng is None:
            rng = np.random.default_rng()
        total_iterations = 0
        total_fk = 0
        total_time = 0.0
        attempts = 0
        fallback_counted = False
        best: IKResult | None = None
        for solver_index, solver in enumerate(self.solvers):
            if solver_index and tr.enabled and not fallback_counted:
                tr.count("fallback_used")
                fallback_counted = True
            for attempt in range(self.resilience.attempts_per_solver):
                first = solver_index == 0 and attempt == 0
                start = q0 if (first or not self.resilience.reseed) else None
                attempts += 1
                try:
                    result = solver.solve(target, q0=start, rng=rng, tracer=tracer)
                except Exception as exc:
                    report.add(
                        FailureRecord(
                            index=-1,
                            stage=STAGE_SOLVER,
                            kind="exception",
                            message=f"{type(exc).__name__}: {exc}",
                            solver=solver.name,
                            attempts=attempts,
                        )
                    )
                    continue
                total_iterations += result.iterations
                total_fk += result.fk_evaluations
                total_time += result.wall_time
                finite = bool(np.all(np.isfinite(result.q)))
                if result.converged and finite:
                    result.iterations = total_iterations
                    result.fk_evaluations = total_fk
                    result.wall_time = total_time
                    result.solver = self.name
                    return result
                report.add(
                    FailureRecord(
                        index=-1,
                        stage=STAGE_SOLVER,
                        kind=result.status or "unconverged",
                        message=f"error {result.error:.3e} m",
                        solver=solver.name,
                        attempts=attempts,
                    )
                )
                if finite and (
                    best is None or not np.isfinite(best.error)
                    or (np.isfinite(result.error) and result.error < best.error)
                ):
                    best = result

        if tr.enabled:
            tr.count("solve_failed")
        if best is None:
            return rejected_result(
                self.chain, target, self.name, status="exception", q=q0
            )
        best.iterations = total_iterations
        best.fk_evaluations = total_fk
        best.wall_time = total_time
        best.solver = self.name
        if not best.status:
            best.status = "failed"
        return best

    def __repr__(self) -> str:
        names = " -> ".join(s.name for s in self.solvers)
        return f"ResilientSolver({names}, {self.resilience!r})"
