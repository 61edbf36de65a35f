"""JT-Serial: the original Jacobian-transpose method (paper's baseline).

Per iteration: ``dtheta = alpha J^T e`` (Eq. 7).  The *original* transpose
method — the paper's references [6] (Wolovich & Elliott) and [7] (Slotine) —
uses a constant gain ``alpha``; choosing it is the classic difficulty the
paper's Section 4 opens with.  The gain must satisfy
``alpha < 2 / sigma_max(J)^2`` everywhere for stability, so the classic choice
is a conservative constant derived from a workspace-wide bound on
``sigma_max`` (:func:`classic_transpose_gain`).  That conservatism is exactly
why JT-Serial needs thousands of iterations, and why Quick-IK's per-iteration
speculative line search (whose candidate set tops out at the Buss Eq.-8 step)
cuts them by ~97%.

``alpha_mode="buss"`` instead applies the Eq.-8 step every iteration — the
strongest serial transpose variant, included as an ablation (see
``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.alpha import buss_alpha_rows
from repro.core.base import RowUpdateSolver
from repro.core.result import SolverConfig
from repro.core.rows import matvec, rmatvec
from repro.kinematics.chain import KinematicChain

__all__ = ["JacobianTransposeSolver", "classic_transpose_gain"]


def classic_transpose_gain(chain, safety: float = 1.0) -> float:
    """Workspace-safe constant gain for the classic transpose method.

    The spectral norm of the position Jacobian is bounded by
    ``sigma_max^2 <= sum_j d_j^2`` where ``d_j`` is the largest possible
    distance from joint ``j`` to the end effector (each Jacobian column has
    norm at most ``d_j``; the chain provides the per-joint bounds via
    ``joint_tip_distance_bounds``).  The classic stable gain is
    ``safety / sigma_max^2`` (strictly inside the ``2 / sigma_max^2``
    stability bound).  Works for DH and generic chains alike.
    """
    if safety <= 0.0:
        raise ValueError("safety must be positive")
    bounds = chain.joint_tip_distance_bounds()
    bound_sq = float(np.sum(np.square(bounds)))
    if bound_sq <= 0.0:
        raise ValueError("chain has zero reach; cannot derive a gain")
    return safety / bound_sq


class JacobianTransposeSolver(RowUpdateSolver):
    """The serial Jacobian-transpose solver ("JT-Serial" in Table 1).

    Parameters
    ----------
    alpha_mode:
        ``"classic"`` (default) — constant gain from
        :func:`classic_transpose_gain`, the original method of refs [6, 7];
        ``"buss"`` — the per-iteration near-optimal step of Eq. (8).
    fixed_alpha:
        Explicit constant gain; overrides ``alpha_mode``.
    """

    name = "JT-Serial"
    speculations = 1

    def __init__(
        self,
        chain: KinematicChain,
        config: SolverConfig | None = None,
        alpha_mode: str = "classic",
        fixed_alpha: float | None = None,
    ) -> None:
        super().__init__(chain, config)
        if alpha_mode not in ("classic", "buss"):
            raise ValueError(f"alpha_mode must be 'classic' or 'buss', got {alpha_mode!r}")
        if fixed_alpha is not None and fixed_alpha <= 0.0:
            raise ValueError("fixed_alpha must be positive")
        self.alpha_mode = alpha_mode
        if fixed_alpha is not None:
            self._constant_alpha: float | None = fixed_alpha
        elif alpha_mode == "classic":
            self._constant_alpha = classic_transpose_gain(chain)
        else:
            self._constant_alpha = None

    @property
    def constant_alpha(self) -> float | None:
        """The constant gain in use (``None`` in Buss mode)."""
        return self._constant_alpha

    def update_rows(self, q, e, jacobians, state):
        dq_base = rmatvec(jacobians, e)
        if self._constant_alpha is not None:
            return q + self._constant_alpha * dq_base
        alpha = buss_alpha_rows(e, matvec(jacobians, dq_base))
        return q + alpha[..., None] * dq_base
