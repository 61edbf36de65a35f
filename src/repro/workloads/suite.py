"""The paper's evaluation suite: manipulators, targets and aggregation.

One :class:`EvaluationSuite` instance pins down everything an experiment
needs to be reproducible: the DOF sweep (12/25/50/75/100), the per-DOF
manipulator (seeded, deterministic), the target distribution and count, and
the solver seed.  Experiments (:mod:`repro.evaluation.experiments`) only add
*which solvers* to run.

The paper solves 1000 targets per DOF; pure-Python runs default to a smaller
deterministic sample, overridable with the ``REPRO_TARGETS`` environment
variable (the statistics are means over i.i.d. targets, stable well below
1000 samples).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.base import IterativeIKSolver
from repro.core.result import IKResult
from repro.execution import ExecutionOptions
from repro.kinematics.chain import KinematicChain
from repro.kinematics.robots import PAPER_DOFS, paper_chain
from repro.workloads.targets import make_targets

__all__ = [
    "default_target_count",
    "default_dofs",
    "SolverStats",
    "aggregate_results",
    "EvaluationSuite",
]

#: Targets per DOF when ``REPRO_TARGETS`` is unset.
DEFAULT_TARGET_COUNT = 20

#: The paper's per-DOF target count (Section 6.2).
PAPER_TARGET_COUNT = 1000


def default_target_count() -> int:
    """Targets per DOF configuration, honouring ``REPRO_TARGETS``."""
    raw = os.environ.get("REPRO_TARGETS", "")
    if raw.strip():
        value = int(raw)
        if value < 1:
            raise ValueError("REPRO_TARGETS must be >= 1")
        return value
    return DEFAULT_TARGET_COUNT


def default_dofs() -> tuple[int, ...]:
    """DOF sweep, honouring ``REPRO_DOFS`` (comma-separated, e.g. "12,25")."""
    raw = os.environ.get("REPRO_DOFS", "")
    if raw.strip():
        dofs = tuple(int(part) for part in raw.split(",") if part.strip())
        if not dofs or any(d < 1 for d in dofs):
            raise ValueError("REPRO_DOFS must be a comma list of positive ints")
        return dofs
    return PAPER_DOFS


@dataclass(frozen=True)
class SolverStats:
    """Aggregate of one solver over one target set (one Figure-5 bar)."""

    solver: str
    dof: int
    speculations: int
    n_targets: int
    mean_iterations: float
    median_iterations: float
    max_iterations: int
    mean_work: float
    mean_fk_evaluations: float
    success_rate: float
    mean_error: float
    mean_wall_time: float
    iterations: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))

    def row(self) -> dict:
        """Flat dict for table formatting."""
        return {
            "solver": self.solver,
            "dof": self.dof,
            "speculations": self.speculations,
            "targets": self.n_targets,
            "mean_iterations": self.mean_iterations,
            "median_iterations": self.median_iterations,
            "mean_work": self.mean_work,
            "success_rate": self.success_rate,
        }


def aggregate_results(results: list[IKResult]) -> SolverStats:
    """Collapse per-target results into a :class:`SolverStats`."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    iterations = np.array([r.iterations for r in results])
    first = results[0]
    return SolverStats(
        solver=first.solver,
        dof=first.dof,
        speculations=first.speculations,
        n_targets=len(results),
        mean_iterations=float(iterations.mean()),
        median_iterations=float(np.median(iterations)),
        max_iterations=int(iterations.max()),
        mean_work=float(
            np.mean([r.work for r in results])
        ),
        mean_fk_evaluations=float(np.mean([r.fk_evaluations for r in results])),
        success_rate=float(np.mean([r.converged for r in results])),
        mean_error=float(np.mean([r.error for r in results])),
        mean_wall_time=float(np.mean([r.wall_time for r in results])),
        iterations=iterations,
    )


class EvaluationSuite:
    """Deterministic workload: chains + targets for the paper's DOF sweep.

    Parameters
    ----------
    dofs:
        DOF configurations (default: ``REPRO_DOFS`` or the paper's
        12/25/50/75/100).
    targets_per_dof:
        Targets per configuration (default: :func:`default_target_count`).
    target_kind:
        Generator name from :mod:`repro.workloads.targets`.
    seed:
        Master seed; targets and solver restarts derive from it.
    total_reach:
        Reach of the generated manipulators (metres).
    options:
        Typed execution policy (:class:`~repro.execution.ExecutionOptions`):
        the kernel spec (mode / dtype / chunk) is applied to every
        evaluation chain (``None`` keeps the chains' default, scalar), and
        ``workers`` shards each solver run (``timeout`` bounds each
        sharded run).  Any worker count produces identical per-target
        results — the sharded path draws the same restart stream (see
        :mod:`repro.parallel`).  The suite runs every target as the paper
        does, so a failure policy (``on_error`` other than ``"raise"``)
        or a ``resilience`` config is rejected rather than ignored.
    """

    def __init__(
        self,
        dofs: tuple[int, ...] | None = None,
        targets_per_dof: int | None = None,
        target_kind: str = "reachable",
        seed: int = 2017,
        total_reach: float = 1.2,
        options: "ExecutionOptions | None" = None,
    ) -> None:
        if dofs is None:
            dofs = default_dofs()
        if not dofs:
            raise ValueError("dofs must be non-empty")
        self.dofs = tuple(dofs)
        self.targets_per_dof = (
            default_target_count() if targets_per_dof is None else targets_per_dof
        )
        if self.targets_per_dof < 1:
            raise ValueError("targets_per_dof must be >= 1")
        self.target_kind = target_kind
        self.seed = seed
        self.total_reach = total_reach
        self.options = ExecutionOptions.coerce(options)
        if self.options.on_error != "raise" or self.options.resilience:
            raise ValueError(
                "EvaluationSuite runs without a failure policy: pass "
                "ExecutionOptions without on_error / resilience"
            )
        self._chains: dict[int, KinematicChain] = {}
        self._targets: dict[int, np.ndarray] = {}

    def chain(self, dof: int) -> KinematicChain:
        """The (cached) evaluation manipulator for ``dof``."""
        if dof not in self._chains:
            chain = paper_chain(dof, total_reach=self.total_reach)
            spec = self.options.kernel
            if spec is not None:
                chain = spec.apply(chain)
            self._chains[dof] = chain
        return self._chains[dof]

    def targets(self, dof: int) -> np.ndarray:
        """The (cached, deterministic) target set for ``dof``; ``(M, 3)``."""
        if dof not in self._targets:
            rng = np.random.default_rng((self.seed, dof))
            self._targets[dof] = make_targets(
                self.target_kind, self.chain(dof), self.targets_per_dof, rng
            )
        return self._targets[dof]

    def solver_rng(self, dof: int, solver_name: str) -> np.random.Generator:
        """Deterministic restart RNG per (dof, solver).

        Uses a stable CRC of the name — Python's ``hash()`` is randomised per
        process and would break cross-run reproducibility.
        """
        name_key = zlib.crc32(solver_name.encode())
        return np.random.default_rng((self.seed, dof, name_key))

    def run_solver(self, solver: IterativeIKSolver, dof: int) -> SolverStats:
        """Run ``solver`` over the target set of ``dof`` and aggregate."""
        if solver.chain is not self.chain(dof):
            raise ValueError(
                "solver was built for a different chain; use suite.chain(dof)"
            )
        return aggregate_results(self.run_results(solver, dof))

    def run_results(self, solver: IterativeIKSolver, dof: int) -> list[IKResult]:
        """Like :meth:`run_solver` but returning the raw per-target results.

        With ``workers > 1`` the target batch is sharded across worker
        processes; the per-target results are identical to the in-process
        run (the parent draws the same restart stream in target order).
        """
        rng = self.solver_rng(dof, solver.name)
        workers = self.options.workers or 1
        if workers > 1:
            from repro.parallel import solve_batch_sharded

            batch = solve_batch_sharded(
                solver, self.targets(dof), workers=workers, rng=rng,
                timeout=self.options.timeout,
            )
            return list(batch.results)
        return [solver.solve(t, rng=rng) for t in self.targets(dof)]

    def __repr__(self) -> str:
        return (
            f"EvaluationSuite(dofs={self.dofs}, targets_per_dof="
            f"{self.targets_per_dof}, kind={self.target_kind!r}, seed={self.seed})"
        )
