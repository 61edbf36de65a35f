"""Driver loop shared by every iterative IK solver.

Algorithm 1's outer structure (random initial configuration, iterate until the
accuracy constraint or the iteration cap) is identical for the Jacobian
transpose, pseudoinverse, DLS, SDLS, CCD and Quick-IK solvers; each solver
only customises one iteration via :meth:`IterativeIKSolver._step`.

Solvers whose iteration is one update of ``q`` from ``(q, e, J)`` derive from
:class:`RowUpdateSolver` and write that update once, as a row function: the
driver runs it on one row, the lock-step engine on a whole batch.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod

import numpy as np

from repro.core.result import BatchResult, IKResult, SolverConfig, StepOutcome
from repro.core.rows import row_norm
from repro.kinematics.chain import KinematicChain
from repro.telemetry.tracer import NULL_TRACER, Tracer, get_tracer

__all__ = ["IterativeIKSolver", "RowUpdateSolver", "task_errors"]


def task_errors(targets: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``||X_t - f(q)||`` per row: the one error the driver and the
    lock-step engines both test for convergence."""
    return row_norm(targets - positions)


class IterativeIKSolver(ABC):
    """Base class for iterative task-space IK solvers.

    Subclasses set :attr:`name` (used in every report/table) and
    :attr:`speculations` (1 for serial methods; the Figure 5b load metric is
    ``speculations x iterations``), and implement :meth:`_step`.
    """

    #: Solver label used in tables (overridden by subclasses).
    name = "iterative-ik"

    #: Candidate evaluations per iteration (1 for serial methods).
    speculations = 1

    #: Full Jacobian builds per iteration (0 for CCD); telemetry counter.
    jacobians_per_step = 1

    def __init__(
        self, chain: KinematicChain, config: SolverConfig | None = None
    ) -> None:
        self.config = config or SolverConfig()
        self.chain = chain
        #: Tracer active for the current solve; ``_step`` implementations may
        #: read it (guarding on ``.enabled``) to time their internal phases.
        self._tracer: Tracer = NULL_TRACER

    @abstractmethod
    def _step(
        self, q: np.ndarray, position: np.ndarray, target: np.ndarray
    ) -> StepOutcome:
        """Run one iteration from configuration ``q``.

        ``position`` is ``f(q)`` (already evaluated by the driver) and
        ``target`` is ``X_t``.  Returns the new configuration, optionally with
        its already-evaluated position/error, plus the number of FK
        evaluations the step performed.
        """

    def initial_configuration(
        self, q0: np.ndarray | None, rng: np.random.Generator | None
    ) -> np.ndarray:
        """Resolve the starting configuration.

        Algorithm 1 line 1 sets theta randomly; callers may instead pass an
        explicit ``q0`` (e.g. the previous trajectory waypoint's solution).
        """
        if q0 is not None:
            q0 = np.asarray(q0, dtype=float)
            if q0.shape != (self.chain.dof,):
                raise ValueError(
                    f"q0 must have shape ({self.chain.dof},), got {q0.shape}"
                )
            return q0.copy()
        if rng is None:
            rng = np.random.default_rng()
        return self.chain.random_configuration(rng)

    def solve(
        self,
        target: np.ndarray,
        q0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ) -> IKResult:
        """Solve ``theta = f^-1(X_t)`` for a 3-D target position.

        Parameters
        ----------
        target:
            Target end-effector position ``X_t`` (3-vector).
        q0:
            Optional starting configuration; random when omitted.
        rng:
            Random generator used when ``q0`` is omitted.
        tracer:
            Telemetry sink; defaults to the process-global tracer
            (:data:`~repro.telemetry.NULL_TRACER` unless one is installed).
        """
        target = np.asarray(target, dtype=float)
        if target.shape != (3,):
            raise ValueError(f"target must be a 3-vector, got shape {target.shape}")

        tr = tracer if tracer is not None else get_tracer()
        self._tracer = tr
        traced = tr.enabled
        config = self.config
        start = time.perf_counter()
        # The solve runs in the chain's dtype, as the lock-step engines do:
        # the start and the target are cast once, and ``q`` goes back to
        # float64 in the result, which reports the caller's target.
        dtype = self.chain.dtype
        x_t = target.astype(dtype, copy=False)
        q = self.initial_configuration(q0, rng).astype(dtype, copy=False)
        position = self.chain.end_position(q)
        error = float(task_errors(x_t, position))
        fk_evaluations = 1
        history = [error] if config.record_history else None
        if traced:
            tr.solve_start(self.name, self.chain.dof, target=target,
                           speculations=self.speculations,
                           kernel=self.chain.kernel)
            tr.count("fk_evaluations")

        # Watchdog (deadline / divergence / stall detectors): armed only
        # when configured, so the null path pays one ``is not None`` check.
        watchdog = (
            config.watchdog.start() if config.watchdog is not None else None
        )
        status = ""
        iterations = 0
        converged = error < config.tolerance
        while not converged and iterations < config.max_iterations:
            prev_q, prev_position, prev_error = q, position, error
            outcome = self._step(q, position, x_t)
            iterations += 1
            fk_evaluations += outcome.fk_evaluations
            q = outcome.q
            if config.respect_limits:
                q = self.chain.clamp(q)
                # Clamping may invalidate the step's reported position.
                outcome.position = None
                outcome.error = None
            if outcome.position is None:
                position = self.chain.end_position(q)
                fk_evaluations += 1
            else:
                position = outcome.position
            if outcome.error is None:
                error = float(task_errors(x_t, position))
            else:
                error = float(outcome.error)
            if history is not None:
                history.append(error)
            converged = error < config.tolerance or outcome.early_exit
            if traced:
                # The driver ran one extra FK when the step left position
                # unset (or limits-clamping invalidated it, which also
                # resets ``outcome.position`` to None).
                step_fk = outcome.fk_evaluations + (
                    1 if outcome.position is None else 0
                )
                tr.count("fk_evaluations", step_fk)
                tr.count("jacobian_builds", self.jacobians_per_step)
                tr.count("candidate_evaluations", self.speculations)
                tr.iteration(iterations, error, fk_evaluations=step_fk)
            if not converged:
                if not math.isfinite(error):
                    # A non-finite update would otherwise propagate through
                    # every remaining iteration (NaN comparisons are False,
                    # so the loop burns the whole budget computing garbage).
                    # Keep the last finite state and exit typed.
                    q, position, error = prev_q, prev_position, prev_error
                    status = "nonfinite"
                    if traced:
                        tr.count("nonfinite_exits")
                    break
                if watchdog is not None:
                    verdict = watchdog.check(error)
                    if verdict is not None:
                        status = verdict
                        if traced:
                            tr.count(f"watchdog_{verdict}")
                        break

        converged = bool(error < config.tolerance)
        if not status:
            status = "converged" if converged else "max_iterations"
        if traced:
            tr.solve_end(
                self.name,
                converged=converged,
                iterations=iterations,
                error=error,
                fk_evaluations=fk_evaluations,
                wall_time=time.perf_counter() - start,
                status=status,
            )
            self._tracer = NULL_TRACER
        return IKResult(
            q=q.astype(float, copy=False),
            converged=converged,
            iterations=iterations,
            error=error,
            target=target,
            solver=self.name,
            dof=self.chain.dof,
            speculations=self.speculations,
            fk_evaluations=fk_evaluations,
            wall_time=time.perf_counter() - start,
            error_history=(
                np.asarray(history) if history is not None else np.empty(0)
            ),
            status=status,
        )

    def solve_batch(
        self,
        targets: np.ndarray,
        rng: np.random.Generator | None = None,
        q0: np.ndarray | None = None,
        tracer: Tracer | None = None,
    ) -> BatchResult:
        """Solve a batch of targets (one random restart each).

        The paper's evaluation solves 1K target positions per DOF
        configuration; this is the entry point the harness uses.  Returns a
        :class:`BatchResult` (a sequence of per-target :class:`IKResult`, so
        callers of the historical ``list[IKResult]`` API are unaffected).

        ``q0`` may be one configuration (shared by every target) or one row
        per target — the same broadcast the lock-step engines and the
        sharded pool accept, so callers (e.g. the serving layer) can hand
        any batch path pre-resolved per-problem initial configurations.
        """
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if targets.shape[1] != 3:
            raise ValueError("targets must have shape (M, 3)")
        if rng is None:
            rng = np.random.default_rng()
        q0_rows = None
        if q0 is not None:
            q0 = np.asarray(q0, dtype=float)
            if q0.ndim == 2:
                if q0.shape != (targets.shape[0], self.chain.dof):
                    raise ValueError(
                        f"q0 must broadcast to "
                        f"({targets.shape[0]}, {self.chain.dof}), "
                        f"got {q0.shape}"
                    )
                q0_rows = q0
        start = time.perf_counter()
        results = [
            self.solve(
                t,
                q0=q0_rows[i] if q0_rows is not None else q0,
                rng=rng,
                tracer=tracer,
            )
            for i, t in enumerate(targets)
        ]
        return BatchResult(
            results=results,
            solver=self.name,
            wall_time=time.perf_counter() - start,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(chain={self.chain.name!r}, "
            f"tolerance={self.config.tolerance}, "
            f"max_iterations={self.config.max_iterations})"
        )


class RowUpdateSolver(IterativeIKSolver):
    """A solver whose iteration is one row update with one FK.

    :meth:`update_rows` maps configurations ``q[A, N]``, task errors
    ``e[A, 3] = X_t - f(q)`` and position Jacobians ``J[A, 3, N]`` at ``q``
    to the next configurations, advancing the per-row ``state`` arrays of
    :meth:`initial_state` in place.  It is the family's only copy of its
    arithmetic, written with :mod:`repro.core.rows` so that a row gets the
    same bits alone or in any batch: :meth:`_step` runs it on one row, and
    :class:`~repro.solvers.batched.BatchedRowSolver` on every live row of a
    batch with one prefix-frame pass per iteration.
    """

    #: The running solve's one-row state (``None`` until its first step).
    _state: tuple[np.ndarray, ...] | None = None

    def initial_state(self, rows: int) -> tuple[np.ndarray, ...]:
        """Per-row state at the start of a solve (none by default)."""
        return ()

    @abstractmethod
    def update_rows(
        self,
        q: np.ndarray,
        e: np.ndarray,
        jacobians: np.ndarray,
        state: tuple[np.ndarray, ...],
    ) -> np.ndarray:
        """One iteration for every row; returns the new configurations."""

    def initial_configuration(
        self, q0: np.ndarray | None, rng: np.random.Generator | None
    ) -> np.ndarray:
        # Every solve starts from fresh state: a reused (or unpickled)
        # solver must not carry one solve's state into the next.
        self._state = None
        return super().initial_configuration(q0, rng)

    def _step(
        self, q: np.ndarray, position: np.ndarray, target: np.ndarray
    ) -> StepOutcome:
        if self._state is None:
            self._state = self.initial_state(1)
        q_new = self.update_rows(
            q[None, :],
            (target - position)[None, :],
            self.chain.jacobian_position(q)[None],
            self._state,
        )
        return StepOutcome(q=q_new[0])
