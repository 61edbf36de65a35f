"""Oracle correctness gate: re-check results on the scalar oracle chain.

The workloads solve on the vectorized kernel.  Every returned configuration
is re-evaluated here on a separately built default-kernel chain (the scalar
oracle), so the check does not trust the kernel under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OracleGateError", "Verdict", "Oracle"]


class OracleGateError(RuntimeError):
    """A result reported as converged misses its target on the oracle."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one group of results."""

    failed: int
    wrong: int
    #: Largest oracle error among results reported as converged.
    worst_error: float


class Oracle:
    """Checks results of ``workload`` against a scalar-kernel chain."""

    def __init__(self, chain, tolerance: float, workload: str) -> None:
        if chain.kernel != "scalar":
            raise ValueError("the oracle chain must use the scalar kernel")
        self.chain = chain
        self.tolerance = tolerance
        self.workload = workload

    def check(self, targets: np.ndarray, results) -> Verdict:
        """Count failures among ``results`` (one per row of ``targets``).

        A result fails when it is not converged or when its configuration
        misses the target by ``tolerance`` or more on the oracle; the latter
        for a result reported as converged is ``wrong``.
        """
        targets = np.asarray(targets, dtype=float)
        if len(results) != len(targets):
            raise OracleGateError(
                f"{self.workload}: {len(results)} results for "
                f"{len(targets)} targets"
            )
        if not len(results):
            return Verdict(failed=0, wrong=0, worst_error=0.0)
        qs = np.stack([np.asarray(r.q, dtype=float) for r in results])
        errors = np.linalg.norm(
            targets - self.chain.end_positions_batch(qs), axis=1
        )
        hit = errors < self.tolerance  # NaN compares False: a miss
        converged = np.array([bool(r.converged) for r in results])
        return Verdict(
            failed=int((~(converged & hit)).sum()),
            wrong=int((converged & ~hit).sum()),
            worst_error=float(errors[converged].max()) if converged.any() else 0.0,
        )

    def gate(self, verdict: Verdict) -> None:
        """Raise :class:`OracleGateError` when any result was wrong."""
        if verdict.wrong:
            raise OracleGateError(
                f"{self.workload}: {verdict.wrong} result(s) reported "
                f"converged miss the target by >= {self.tolerance} m on the "
                f"scalar oracle (worst {verdict.worst_error:.3e} m)"
            )
