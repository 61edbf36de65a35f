"""Forward Kinematics Unit (FKU) — the datapath core of every SSU.

Section 5.2: each speculative search is dominated by the forward kinematics
``f(theta) = prod_i i-1Ti`` (Eq. 10), a chain of 4x4 matrix multiplies.  The
FKU couples

* a screw generator (one sin/cos unit + matrix assembly) producing
  ``i-1Ti(theta_k(i))`` for the next joint, and
* the HLS-generated 4x4 matrix-multiply block ("a few multipliers and adders
  ... tens of cycles"),

with the generator for joint ``i+1`` overlapped with the multiply for joint
``i`` (the ``i-1Ti Registers`` / ``1Ti Registers`` double-buffering of
Figure 2).  Steady-state throughput is therefore one joint per
``max(matmul4, sincos + assemble)`` cycles.

This is the unit's cost model.  The positions it stands for are the
simulator's float32 twin's (``chain.astype(np.float32)``), evaluated by
Quick-IK's shared sweep.
"""

from __future__ import annotations

from repro.ikacc.config import IKAccConfig
from repro.kinematics.chain import KinematicChain

__all__ = ["ForwardKinematicsUnit"]

#: Cycles to assemble a screw matrix from a computed sin/cos pair
#: (multiplexing constants into the register file).
ASSEMBLE_CYCLES = 2


class ForwardKinematicsUnit:
    """Cycle-level model of one FKU."""

    def __init__(self, chain: KinematicChain, config: IKAccConfig) -> None:
        self.config = config
        #: Joints handled per FK evaluation.
        self.dof = chain.dof

    def cycles_per_fk(self) -> int:
        """Latency of one complete FK evaluation.

        ``fill`` is the first screw generation (not overlappable), then one
        joint retires per steady-state interval, plus the final tool-transform
        multiply.
        """
        timing = self.config.timing
        fill = timing.sincos + ASSEMBLE_CYCLES
        steady = max(timing.matmul4, timing.sincos + ASSEMBLE_CYCLES)
        return fill + self.dof * steady + timing.matmul4
