"""Deterministic fault injection for chaos testing the solve pipeline.

Every injector here is picklable and reproducible, so the ``pytest -m
chaos`` tier can rehearse production failure modes on demand:

* numeric faults — :class:`NaNJacobianChain` (NaN Jacobians after N calls)
  and the step-level :class:`DivergingSolver` / :class:`StallingSolver` /
  :class:`SleepyStepSolver` that trip each watchdog detector;
* worker faults — :class:`FlakySolver` wraps a healthy solver and, for a
  chosen subset of targets, crashes, hangs, SIGKILLs its own process, or
  returns an unpicklable result — poisoning exactly the shards that receive
  those targets;
* :func:`poison_indices` — the deterministic "20% of the batch" selector
  the chaos tier uses.

Faults select their victims by *target value* (:class:`TargetTrigger`)
because a shard worker only sees targets, not global batch indices; the
test fixes the batch, so target identity is problem identity.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro.core.base import IterativeIKSolver
from repro.core.result import SolverConfig, StepOutcome

__all__ = [
    "TargetTrigger",
    "FlakySolver",
    "NaNJacobianChain",
    "DivergingSolver",
    "StallingSolver",
    "SleepyStepSolver",
    "poison_indices",
    "FAULT_KINDS",
]

#: Faults :class:`FlakySolver` can inject when triggered.
FAULT_KINDS = ("crash", "hang", "kill", "nan", "unpicklable")


def poison_indices(n: int, fraction: float, seed: int = 0) -> np.ndarray:
    """Deterministically pick ``ceil(fraction * n)`` problem indices."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    count = int(np.ceil(fraction * n))
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=count, replace=False))


class TargetTrigger:
    """Fires when a solve's target matches one of the poisoned rows."""

    def __init__(self, poisoned_targets: np.ndarray, atol: float = 1e-12) -> None:
        self.poisoned = np.atleast_2d(np.asarray(poisoned_targets, dtype=float))
        self.atol = atol

    def __call__(self, target: np.ndarray) -> bool:
        target = np.asarray(target, dtype=float)
        if self.poisoned.size == 0:
            return False
        return bool(
            np.any(np.all(np.abs(self.poisoned - target[None, :]) <= self.atol, axis=1))
        )


class FlakySolver:
    """Delegate to ``inner`` except for poisoned targets, which fault.

    ``fault`` is one of :data:`FAULT_KINDS`:

    * ``crash`` — raise ``RuntimeError`` (a structured in-worker exception);
    * ``hang`` — sleep ``naptime`` seconds (trips pool timeouts);
    * ``kill`` — SIGKILL the calling process (simulates the OOM killer; on
      a pool this breaks every in-flight future, which is the point);
    * ``nan`` — return the inner result with ``q`` overwritten by NaNs;
    * ``unpicklable`` — return a result whose ``q`` cannot cross a process
      boundary, so the *result pickling* path fails, not the solve.
    """

    def __init__(
        self,
        inner,
        trigger: TargetTrigger,
        fault: str = "crash",
        naptime: float = 30.0,
    ) -> None:
        if fault not in FAULT_KINDS:
            raise ValueError(f"fault must be one of {FAULT_KINDS}, got {fault!r}")
        self.inner = inner
        self.trigger = trigger
        self.fault = fault
        self.naptime = naptime

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def chain(self):
        return self.inner.chain

    @property
    def config(self):
        return self.inner.config

    def solve(self, target, q0=None, rng=None, tracer=None):
        if self.trigger(target):
            if self.fault == "crash":
                raise RuntimeError("injected fault: crash")
            if self.fault == "hang":  # pragma: no cover - reaped by timeouts
                time.sleep(self.naptime)
                raise RuntimeError("injected fault: hang survived the nap")
            if self.fault == "kill":  # pragma: no cover - kills the process
                os.kill(os.getpid(), signal.SIGKILL)
            result = self.inner.solve(target, q0=q0, rng=rng, tracer=tracer)
            if self.fault == "nan":
                result.q = np.full_like(result.q, np.nan)
                result.error = float("nan")
                result.converged = False
                result.status = "nonfinite"
            else:  # unpicklable
                result.q = lambda: None  # type: ignore[assignment]
            return result
        return self.inner.solve(target, q0=q0, rng=rng, tracer=tracer)

    def __repr__(self) -> str:
        return f"FlakySolver({self.inner!r}, fault={self.fault!r})"


class NaNJacobianChain:
    """Chain wrapper whose Jacobians turn to NaN after ``after_calls`` calls.

    Models a corrupted linearisation (bad sensor extrinsics, fixed-point
    overflow in an accelerator) without touching the FK path, so the driver
    sees finite positions but a poisoned update direction.
    """

    def __init__(self, chain, after_calls: int = 0) -> None:
        self._chain = chain
        self._after_calls = int(after_calls)
        self._calls = 0

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._chain, name)

    def _poisoned(self) -> bool:
        self._calls += 1
        return self._calls > self._after_calls

    def jacobian_position(self, q):
        jac = self._chain.jacobian_position(q)
        return np.full_like(jac, np.nan) if self._poisoned() else jac

    def jacobian_position_batch(self, qs):
        return self.fk_jacobian_batch(qs)[1]

    def fk_jacobian_batch(self, qs):
        positions, jac = self._chain.fk_jacobian_batch(qs)
        return positions, (
            np.full_like(jac, np.nan) if self._poisoned() else jac
        )

    def __repr__(self) -> str:
        return f"NaNJacobianChain({self._chain!r}, after_calls={self._after_calls})"


class DivergingSolver(IterativeIKSolver):
    """Solver whose reported error doubles every iteration.

    Models an exploding step size; the configuration never moves, so the
    run is perfectly safe — only the divergence watchdog should end it.
    """

    name = "diverging"

    def __init__(self, chain, config: SolverConfig | None = None) -> None:
        super().__init__(chain, config=config)
        self._factor = 1.0

    def initial_configuration(self, q0, rng):
        self._factor = 1.0
        return super().initial_configuration(q0, rng)

    def _step(self, q, position, target) -> StepOutcome:
        self._factor *= 2.0
        error = float(np.linalg.norm(target - position)) * self._factor
        return StepOutcome(q=q, position=position, error=error)


class StallingSolver(IterativeIKSolver):
    """Solver that never moves: constant error above tolerance (a plateau)."""

    name = "stalling"

    def _step(self, q, position, target) -> StepOutcome:
        error = float(np.linalg.norm(target - position))
        return StepOutcome(q=q, position=position, error=error)


class SleepyStepSolver(IterativeIKSolver):
    """Solver whose every step sleeps ``nap_per_step`` seconds (and stalls)."""

    name = "sleepy-step"

    def __init__(
        self,
        chain,
        config: SolverConfig | None = None,
        nap_per_step: float = 0.05,
    ) -> None:
        super().__init__(chain, config=config)
        self.nap_per_step = nap_per_step

    def _step(self, q, position, target) -> StepOutcome:
        time.sleep(self.nap_per_step)
        error = float(np.linalg.norm(target - position))
        return StepOutcome(q=q, position=position, error=error)
