"""J^-1-SVD: the SVD-based pseudoinverse method (paper's strong baseline).

Per iteration: ``dtheta = J^+ e`` where ``J^+`` is the Moore-Penrose
pseudoinverse computed from an explicit singular value decomposition — the
KDL-style solver the paper benchmarks ("The implementation of the
pseudoinverse method is from the Kinematics and Dynamics Library (KDL)").

The SVD is the point of the comparison: it converges in few iterations but
each iteration contains an inherently serial decomposition, which is why the
paper's accelerator targets the transpose method instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import RowUpdateSolver
from repro.core.result import SolverConfig
from repro.core.rows import clamp_norm, matvec
from repro.kinematics.chain import KinematicChain

__all__ = ["PseudoinverseSolver", "damped_pinv"]


def damped_pinv(
    jacobian: np.ndarray, rank_tolerance: float = 1e-6, damping: float = 0.0
) -> np.ndarray:
    """Pseudoinverse of ``J`` via explicit SVD.

    Singular values below ``rank_tolerance * sigma_max`` are treated as zero
    (rank truncation, KDL's behaviour); with ``damping > 0`` the inverse
    singular values become ``s / (s^2 + damping^2)`` (damped least squares).
    ``jacobian`` may be one ``(M, N)`` matrix or a stack ``(..., M, N)``;
    each matrix of a stack gets the same bits as alone.
    """
    u, s, vt = np.linalg.svd(jacobian, full_matrices=False)
    if s.shape[-1] == 0:
        return np.zeros(jacobian.shape[:-2] + jacobian.shape[:-3:-1])
    cutoff = rank_tolerance * s[..., :1]
    if damping > 0.0:
        inv_s = np.where(s > cutoff, s / (s**2 + damping**2), 0.0)
    else:
        inv_s = np.where(s > cutoff, 1.0 / np.maximum(s, 1e-300), 0.0)
    pinv = np.swapaxes(vt, -1, -2) @ (
        inv_s[..., :, None] * np.swapaxes(u, -1, -2)
    )
    zero = s[..., 0] == 0.0
    if zero.any():
        pinv[zero] = 0.0
    return pinv


class PseudoinverseSolver(RowUpdateSolver):
    """The SVD-based pseudoinverse solver ("J-1-SVD" in Table 1).

    Parameters
    ----------
    error_clamp:
        Maximum task-space error magnitude fed to one Newton step (metres).
        Clamping the error keeps the linearisation honest far from the target
        (the standard KDL/numerics practice); ``None`` disables it.
    damping:
        Damped-least-squares constant passed to :func:`damped_pinv`.
    """

    name = "J-1-SVD"
    speculations = 1

    def __init__(
        self,
        chain: KinematicChain,
        config: SolverConfig | None = None,
        error_clamp: float | None = 0.1,
        damping: float = 0.0,
    ) -> None:
        super().__init__(chain, config)
        if error_clamp is not None and error_clamp <= 0.0:
            raise ValueError("error_clamp must be positive")
        if damping < 0.0:
            raise ValueError("damping must be >= 0")
        self.error_clamp = error_clamp
        self.damping = damping
        #: Number of SVDs performed across all solves (cost-model input).
        self.svd_count = 0

    def update_rows(self, q, e, jacobians, state):
        e = clamp_norm(e, self.error_clamp)
        pinv = damped_pinv(jacobians, damping=self.damping)
        self.svd_count += q.shape[0]
        return q + matvec(pinv, e)
