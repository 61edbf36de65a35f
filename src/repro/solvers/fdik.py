"""fdik: forward-dynamics IK — virtual-model damped dynamics steps.

Scherzinger et al. (PAPERS.md, "Inverse Kinematics with Forward Dynamics
Solvers for Sampled Motion Tracking") solve IK by simulating a *virtual*
mechanism: the task-space error is applied as a force at the end effector,
mapped to joint torques through ``J^T``, and the joint state is integrated
through damped second-order dynamics.  The virtual robot "falls" toward the
target like a physical arm pulled by a spring, which is exactly the right
prior for sampled motion tracking — successive targets are near the current
state, and the velocity state carries useful momentum between iterations.

This implementation keeps the virtual-model structure but normalises the
force impulse with the Buss Eq.-8 step (the near-optimal scalar gain for a
Jacobian-transpose direction), so one damped-dynamics iteration is never
larger than the provably stable transpose step.  Per iteration::

    tau   = J^T e                      (virtual torque from the task force)
    alpha = buss_alpha(e, J tau)       (near-optimal impulse scale)
    qd   <- (1 - damping) qd + force_scale * alpha * tau
    q    <- q + qd

``damping=1`` removes the velocity memory entirely and recovers the serial
Buss-mode transpose solver; smaller values retain momentum across
iterations (heavy-ball acceleration on smooth tracking streams).  The
velocity state is **per solve**: it is reset when a new solve begins, so
results are deterministic and independent of batch composition, worker
count, and solver reuse — the conformance tier holds ``fdik`` to the same
cross-path bit-identity as every other registry member.
"""

from __future__ import annotations

import numpy as np

from repro.core.alpha import buss_alpha_rows
from repro.core.base import RowUpdateSolver
from repro.core.result import SolverConfig
from repro.core.rows import clamp_norm, matvec, rmatvec
from repro.kinematics.chain import KinematicChain

__all__ = ["ForwardDynamicsSolver"]


class ForwardDynamicsSolver(RowUpdateSolver):
    """Forward-dynamics IK ("fdik"): damped virtual dynamics on ``J^T e``.

    Parameters
    ----------
    damping:
        Per-iteration velocity dissipation in ``(0, 1]``.  ``1`` discards
        the velocity state every step (pure Buss-mode transpose); smaller
        values keep momentum between iterations.
    force_scale:
        Multiplier on the normalised force impulse.  ``1`` applies exactly
        the Buss step per impulse.
    error_clamp:
        Cap on the task-space error magnitude fed to the virtual force
        (metres); ``None`` disables clamping.
    """

    name = "fdik"
    speculations = 1

    def __init__(
        self,
        chain: KinematicChain,
        config: SolverConfig | None = None,
        damping: float = 0.75,
        force_scale: float = 1.0,
        error_clamp: float | None = 0.2,
    ) -> None:
        super().__init__(chain, config)
        if not 0.0 < damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if force_scale <= 0.0:
            raise ValueError("force_scale must be positive")
        if error_clamp is not None and error_clamp <= 0.0:
            raise ValueError("error_clamp must be positive")
        self.damping = damping
        self.force_scale = force_scale
        self.error_clamp = error_clamp

    def initial_state(self, rows: int) -> tuple[np.ndarray, ...]:
        # The virtual mechanism starts every solve at rest: the velocity
        # is per solve, so results never depend on batch composition,
        # worker count or solver reuse.
        return (np.zeros((rows, self.chain.dof), dtype=self.chain.dtype),)

    def update_rows(self, q, e, jacobians, state):
        (qd,) = state
        e = clamp_norm(e, self.error_clamp)
        tau = rmatvec(jacobians, e)
        alpha = buss_alpha_rows(e, matvec(jacobians, tau))
        qd *= 1.0 - self.damping
        qd += (self.force_scale * alpha)[..., None] * tau
        return q + qd
