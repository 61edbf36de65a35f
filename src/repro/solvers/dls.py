"""Damped least squares (Levenberg-Marquardt) IK.

Per iteration: ``dtheta = J^T (J J^T + lambda^2 I)^-1 e``.  Included as the
classic robust member of the inverse-Jacobian family (paper references
[5, 20]); it anchors the solver-shootout example and the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import RowUpdateSolver
from repro.core.result import SolverConfig
from repro.core.rows import clamp_norm, rmatvec, row_norm
from repro.kinematics.chain import KinematicChain

__all__ = ["DampedLeastSquaresSolver"]


class DampedLeastSquaresSolver(RowUpdateSolver):
    """Damped least squares with optional adaptive damping.

    Parameters
    ----------
    damping:
        The constant ``lambda``.  A good default for metre-scale chains is
        0.05-0.2: large enough to tame near-singular poses, small enough not
        to crawl.
    adaptive:
        When true, ``lambda`` is scaled by the current error magnitude
        (``lambda_eff = damping * max(1, ||e||)``), which damps aggressively
        far from the target and converges quadratically near it.
    error_clamp:
        Same role as in :class:`~repro.solvers.pseudoinverse.
        PseudoinverseSolver`.
    """

    name = "JT-DLS"
    speculations = 1

    def __init__(
        self,
        chain: KinematicChain,
        config: SolverConfig | None = None,
        damping: float = 0.1,
        adaptive: bool = False,
        error_clamp: float | None = 0.1,
    ) -> None:
        super().__init__(chain, config)
        if damping <= 0.0:
            raise ValueError("damping must be positive")
        if error_clamp is not None and error_clamp <= 0.0:
            raise ValueError("error_clamp must be positive")
        self.damping = damping
        self.adaptive = adaptive
        self.error_clamp = error_clamp

    def update_rows(self, q, e, jacobians, state):
        magnitude = row_norm(e)
        e = clamp_norm(e, self.error_clamp, magnitude)
        lam = (
            self.damping * np.maximum(1.0, magnitude)[..., None, None]
            if self.adaptive
            else self.damping
        )
        jjt = jacobians @ np.swapaxes(jacobians, -1, -2)
        damped = jjt + (lam**2) * np.eye(jjt.shape[-1])
        rhs = np.linalg.solve(damped, e[..., None])[..., 0]
        return q + rmatvec(jacobians, rhs)
