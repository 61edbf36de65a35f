"""mdik: mirror-descent IK — box-constrained joint space by construction.

Kobayashi & Jin (PAPERS.md, "Mirror-Descent Inverse Kinematics with
Box-constrained Joint Space") replace the Euclidean gradient step with a
mirror-descent step whose mirror map is the sigmoid/logit pair over each
joint's limit box.  Updates happen in the unconstrained dual space
``z = logit((q - lower) / width)`` and are pulled back through the sigmoid,
so every iterate lies **strictly inside** the joint-limit box — no clamping,
no projection, no limit violations, ever.  Per iteration::

    g     = J^T e                              (task-space gradient)
    alpha = buss_alpha(e, J g)                 (near-optimal base step)
    z     = logit((q - lower) / width)         (mirror map, per joint)
    z    <- z + (4 alpha / width) * g          (dual-space ascent)
    q    <- lower + width * sigmoid(z)         (pull-back)

The per-joint step ``4 alpha / width`` makes the pulled-back update equal
the Buss transpose step at mid-range (the sigmoid's slope at its midpoint
is ``width / 4``) and shrink smoothly as a joint approaches either limit —
the mirror map's barrier replaces the hard clamp of ``respect_limits``.
Joints with non-finite (or degenerate) limits fall back to the plain
Euclidean gradient step.
"""

from __future__ import annotations

import numpy as np

from repro.core.alpha import buss_alpha_rows
from repro.core.base import RowUpdateSolver
from repro.core.result import SolverConfig
from repro.core.rows import clamp_norm, matvec, rmatvec
from repro.kinematics.chain import KinematicChain

__all__ = ["MirrorDescentSolver"]

#: Interior clip for the mirror map: a seed *on* a joint limit maps to a
#: finite dual coordinate instead of ``logit(0) = -inf``.
_RATIO_EPS = 1e-9

#: Dual-coordinate magnitude cap; keeps ``exp`` in the stable range while
#: leaving the pulled-back ratio within ~1e-15 of the boundary.
_Z_CLIP = 36.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class MirrorDescentSolver(RowUpdateSolver):
    """Mirror-descent IK ("mdik"): sigmoid/logit mirror map per joint.

    Parameters
    ----------
    step_scale:
        Multiplier on the per-joint dual step (``1`` matches the Buss
        transpose step at mid-range).
    error_clamp:
        Cap on the task-space error magnitude fed to the gradient
        (metres); ``None`` disables clamping.
    """

    name = "mdik"
    speculations = 1

    def __init__(
        self,
        chain: KinematicChain,
        config: SolverConfig | None = None,
        step_scale: float = 1.0,
        error_clamp: float | None = 0.2,
    ) -> None:
        super().__init__(chain, config)
        if step_scale <= 0.0:
            raise ValueError("step_scale must be positive")
        if error_clamp is not None and error_clamp <= 0.0:
            raise ValueError("error_clamp must be positive")
        self.step_scale = step_scale
        self.error_clamp = error_clamp
        lower = self.chain.lower_limits
        upper = self.chain.upper_limits
        width = upper - lower
        self._boxed = np.isfinite(lower) & np.isfinite(upper) & (width > 0)
        self._lower = lower
        # Neutral width for unboxed joints keeps the vectorised arithmetic
        # finite; their update is overridden by the Euclidean branch below.
        self._width = np.where(self._boxed, width, 1.0)

    def update_rows(self, q, e, jacobians, state):
        e = clamp_norm(e, self.error_clamp)
        grad = rmatvec(jacobians, e)
        alpha = buss_alpha_rows(e, matvec(jacobians, grad))[..., None]

        ratio = np.clip(
            (q - self._lower) / self._width, _RATIO_EPS, 1.0 - _RATIO_EPS
        )
        z = np.log(ratio) - np.log1p(-ratio)
        eta = (4.0 * self.step_scale * alpha) / self._width
        z_new = np.clip(z + eta * grad, -_Z_CLIP, _Z_CLIP)
        q_boxed = self._lower + self._width * _sigmoid(z_new)
        q_euclid = q + (self.step_scale * alpha) * grad
        return np.where(self._boxed, q_boxed, q_euclid)
