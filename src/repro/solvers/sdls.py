"""Selectively damped least squares (Buss & Kim 2005; paper reference [20]).

The paper cites SDLS as the state-of-the-art serial accelerator of the
pseudoinverse method ("Buss adopted a selectively damped least squares to
accelerate the convergence of the pseudoinverse method, but the improvement is
limited").  We implement the single-end-effector, position-only form:

for each singular triple ``(sigma_i, u_i, v_i)`` of ``J``:

* ``phi_i = sigma_i^-1 (u_i . e) v_i`` — the undamped contribution;
* ``M_i = sigma_i^-1 sum_j |v_ij| rho_j`` with ``rho_j = ||J_:,j||`` — a bound
  on how much the end effector moves per radian along this direction;
* the contribution is clamped component-wise to
  ``gamma_i = min(1, 1 / M_i) * gamma_max``;

and the summed update is finally clamped to ``gamma_max`` again.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import RowUpdateSolver
from repro.core.result import SolverConfig
from repro.core.rows import row_dot
from repro.kinematics.chain import KinematicChain

__all__ = ["SelectivelyDampedSolver", "clamp_max_abs"]


def clamp_max_abs(vector: np.ndarray, bound) -> np.ndarray:
    """Rescale ``vector`` so its largest component magnitude is <= ``bound``.

    ``vector`` may be a stack ``(..., N)`` with one ``bound`` per row; a
    non-positive bound leaves its row unchanged.
    """
    largest = np.max(np.abs(vector), axis=-1, initial=0.0)
    bound = np.asarray(bound, dtype=float)
    scale = np.ones(largest.shape, dtype=np.result_type(vector, 1.0))
    np.divide(bound, largest, out=scale, where=(largest > bound) & (bound > 0.0))
    return vector * scale[..., None]


class SelectivelyDampedSolver(RowUpdateSolver):
    """SDLS ("selectively damped least squares") for position IK.

    Parameters
    ----------
    gamma_max:
        Maximum joint change per iteration, radians (Buss & Kim use pi/4).
    rank_tolerance:
        Singular values below ``rank_tolerance * sigma_max`` are dropped.
    """

    name = "JT-SDLS"
    speculations = 1

    def __init__(
        self,
        chain: KinematicChain,
        config: SolverConfig | None = None,
        gamma_max: float = math.pi / 4.0,
        rank_tolerance: float = 1e-8,
    ) -> None:
        super().__init__(chain, config)
        if gamma_max <= 0.0:
            raise ValueError("gamma_max must be positive")
        self.gamma_max = gamma_max
        self.rank_tolerance = rank_tolerance

    def update_rows(self, q, e, jacobians, state):
        u, s, vt = np.linalg.svd(jacobians, full_matrices=False)
        column_norms = np.linalg.norm(jacobians, axis=-2)  # rho_j
        directions = range(s.shape[-1])
        # One dot per singular direction i (columns i of ``u``, rows of
        # ``vt``), then every direction's contribution at once.
        tau = np.stack([row_dot(u[..., :, i], e) for i in directions], -1)
        reach = np.stack(
            [row_dot(np.abs(vt[..., i, :]), column_norms) for i in directions],
            -1,
        )
        live = (s > self.rank_tolerance * s[..., :1]) & (s > 0.0)
        # Dropped directions (sigma at or below the cutoff) may divide by
        # zero; their contribution is masked out below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            phi = (tau / s)[..., None] * vt
            bound_m = reach / s
            gamma = np.minimum(1.0, np.where(bound_m > 0.0, 1.0 / bound_m, 1.0))
            gamma *= self.gamma_max
            steps = np.where(live[..., None], clamp_max_abs(phi, gamma), 0.0)
        update = np.zeros(q.shape)
        for i in directions:
            update += steps[..., i, :]
        return q + clamp_max_abs(update, self.gamma_max)
