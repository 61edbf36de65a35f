"""Shared result/configuration types for every IK solver in the repository.

The fields mirror the quantities the paper reports:

* ``iterations`` — outer-loop count (Figures 4 and 5a).
* ``work`` — ``speculations x iterations``, the computation-load metric of
  Figure 5(b) ("For JT-serial and J-1-SVD, the speculation is one").
* ``fk_evaluations`` — exact forward-kinematics call count, used by the
  platform cost models to price a solve on Atom / TX1 / IKAcc (Table 2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.resilience.watchdogs import WatchdogConfig

__all__ = ["SolverConfig", "StepOutcome", "IKResult", "BatchResult"]

#: Paper accuracy constraint: 1e-2 metre (Section 6.1).
DEFAULT_TOLERANCE = 1e-2

#: Paper iteration cap: 10k (Section 6.1).
DEFAULT_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class SolverConfig:
    """Convergence policy shared by all solvers.

    Parameters
    ----------
    tolerance:
        Accuracy constraint on ``||X_t - f(theta)||`` in metres.
    max_iterations:
        Hard cap on outer iterations; a run that hits it is *not converged*.
    record_history:
        When true, the per-iteration error norms are kept on the result.
    respect_limits:
        When true, every candidate configuration is clamped into the joint
        limits before evaluation (an extension; the paper ignores limits).
    watchdog:
        Optional :class:`~repro.resilience.watchdogs.WatchdogConfig`.  When
        set, the shared driver arms one watchdog per solve (wall-clock
        deadline, divergence and stall detectors) and records trips as a
        typed early exit on ``IKResult.status``.  ``None`` (the default)
        costs the hot loop a single ``is not None`` check per solve.

    The FK/Jacobian kernel is not part of the convergence policy: a solver
    runs on the chain it is handed (``ExecutionOptions.kernel`` picks it at
    the entry points, see :mod:`repro.execution`).
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    record_history: bool = True
    respect_limits: bool = False
    watchdog: "WatchdogConfig | None" = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class StepOutcome:
    """What one solver iteration produced.

    ``position``/``error`` are optional: a solver that already evaluated the
    FK of its new configuration (Quick-IK evaluates every speculation) reports
    them so the driver loop does not recompute; a solver that did not leaves
    them ``None``.
    """

    q: np.ndarray
    position: np.ndarray | None = None
    error: float | None = None
    fk_evaluations: int = 0
    early_exit: bool = False


@dataclass
class IKResult:
    """Outcome of one IK solve.

    ``status`` is the typed termination reason: ``"converged"`` /
    ``"max_iterations"`` from the driver, ``"nonfinite"`` when a step
    produced a non-finite update, a watchdog status (``"deadline"`` /
    ``"diverged"`` / ``"stalled"``), or a guard / worker failure kind from
    the resilience layer (see ``docs/robustness.md``).  Legacy constructors
    that never set it leave the empty string.
    """

    q: np.ndarray
    converged: bool
    iterations: int
    error: float
    target: np.ndarray
    solver: str
    dof: int
    speculations: int = 1
    fk_evaluations: int = 0
    wall_time: float = 0.0
    error_history: np.ndarray = field(default_factory=lambda: np.empty(0))
    status: str = ""

    @property
    def work(self) -> int:
        """Computation load ``speculations x iterations`` (Figure 5b)."""
        return self.speculations * self.iterations

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "converged" if self.converged else "FAILED"
        return (
            f"{self.solver}: {status} in {self.iterations} iterations, "
            f"error {self.error:.3e} m ({self.dof} DOF, "
            f"{self.fk_evaluations} FK evals)"
        )


@dataclass
class BatchResult(Sequence):
    """Outcome of one batch solve: per-problem results plus aggregates.

    Every ``solve_batch`` entry point returns one of these.  It is a
    :class:`~collections.abc.Sequence` of :class:`IKResult`, so pre-existing
    callers that iterated/indexed the old ``list[IKResult]`` return value
    keep working unchanged.

    ``wall_time`` is the *aggregate* wall time of the whole batch (the
    per-problem ``result.wall_time`` fields amortise it); ``telemetry`` is an
    optional summary dict attached when the batch ran under a tracer;
    ``failures`` is a :class:`~repro.resilience.report.FailureReport`
    attached by the resilient batch paths (``on_error="skip"/"fallback"``)
    accounting for every guarded, failed or recovered problem.
    """

    results: list[IKResult]
    solver: str
    wall_time: float = 0.0
    telemetry: dict[str, Any] | None = None
    failures: Any = None

    # -- sequence protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):  # type: ignore[override]
        return self.results[index]

    def __iter__(self) -> Iterator[IKResult]:
        return iter(self.results)

    # -- aggregates -----------------------------------------------------

    @property
    def converged_count(self) -> int:
        """Number of problems that met the accuracy constraint."""
        return sum(1 for r in self.results if r.converged)

    @property
    def convergence_rate(self) -> float:
        """Fraction of converged problems (NaN for an empty batch)."""
        if not self.results:
            return float("nan")
        return self.converged_count / len(self.results)

    @property
    def total_iterations(self) -> int:
        """Outer-loop iterations summed over the batch."""
        return sum(r.iterations for r in self.results)

    @property
    def total_fk_evaluations(self) -> int:
        """FK evaluations summed over the batch."""
        return sum(r.fk_evaluations for r in self.results)

    def summary(self) -> str:
        """One-line human-readable summary."""
        n = len(self.results)
        return (
            f"{self.solver}: {self.converged_count}/{n} converged, "
            f"{self.total_iterations} iterations, "
            f"{self.total_fk_evaluations} FK evals, "
            f"{self.wall_time * 1e3:.2f} ms total"
        )
