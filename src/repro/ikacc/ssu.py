"""Speculative Search Unit (SSU) — one per concurrent speculation.

Each SSU (Figure 2) receives the broadcast ``theta, dtheta_base, alpha_base``
and a speculation index ``k``, then

1. generates ``alpha_k = (k/Max) alpha_base`` (the ``k/Max`` reciprocals are
   constants from a small ROM, so this is one multiply);
2. forms ``theta_k = theta + alpha_k dtheta_base`` with a MAC that streams one
   joint per cycle, running just ahead of the FKU's consumption;
3. evaluates ``X_k = f(theta_k)`` on its FKU;
4. computes ``error_k = ||X_t - X_k||`` and compares it to the threshold.

All SSUs in a wave run in lock-step on identical work, so a wave's latency is
a single SSU's latency.

This is the unit's cost model.  The candidates and their errors are
Quick-IK's shared sweep (a :class:`~repro.kinematics.kernels.
SpeculationGrid` through :func:`~repro.core.quick_ik.speculate`) on the
simulator's float32 twin.
"""

from __future__ import annotations

from repro.ikacc.config import IKAccConfig
from repro.ikacc.fku import ForwardKinematicsUnit
from repro.kinematics.chain import KinematicChain

__all__ = ["SpeculativeSearchUnit"]


class SpeculativeSearchUnit:
    """Cycle-level model of one SSU (and its FKU)."""

    def __init__(self, chain: KinematicChain, config: IKAccConfig) -> None:
        self.config = config
        self.fku = ForwardKinematicsUnit(chain, config)

    def cycles_per_speculation(self) -> int:
        """Latency of one speculative search on one SSU.

        The theta-update MAC streams ahead of the FKU, so only its first
        element (one mul + one add) is exposed; the error evaluation adds a
        short epilogue (3 subs, squared norm, sqrt, compare).
        """
        timing = self.config.timing
        alpha_gen = timing.mul
        theta_fill = timing.mul + timing.add
        error_tail = (
            3 * timing.add  # X_t - X_k
            + 3 * timing.mul
            + 2 * timing.add  # squared norm
            + timing.sqrt
            + timing.compare
        )
        return alpha_gen + theta_fill + self.fku.cycles_per_fk() + error_tail
