"""Serial Process Unit (SPU) — the fused, pipelined serial block.

Algorithm 1 lines 3-5 (Jacobian, ``dtheta_base``, ``alpha_base``) are serial
work with per-joint data dependences.  Figure 3 shows the paper's key
optimisation: the four per-joint loops of the original flow (compute
``i-1Ti``; accumulate ``1Ti``; form the Jacobian column ``Ji``; accumulate
``JJTE``) are fused into a single loop and executed as a four-stage pipeline

    ``i-1TiC -> 1TiC -> JiC -> JJTEC``

so one joint retires per initiation interval and no intermediate matrix is
stored to memory.  The initiation interval is set by the slowest stage (the
``1TiC`` 4x4 multiply).

This is the unit's cost model.  The values the SPU produces are Quick-IK's
shared step on the simulator's float32 twin (``QuickIKSolver._step``:
``J``, ``J^T e`` and Eq. 8's ``buss_alpha_rows``).  The model charges
cycles for either the pipelined flow or — when ``config.spu_pipelined`` is
false — the original four-loop flow of Figure 3(a), including the memory
round-trips for the intermediate ``1Ti`` and ``J`` arrays that the fused
pipeline avoids.  That knob is the Figure-3 ablation.
"""

from __future__ import annotations

from repro.ikacc.config import IKAccConfig
from repro.ikacc.fku import ASSEMBLE_CYCLES
from repro.kinematics.chain import KinematicChain

__all__ = ["SerialProcessUnit", "MEMORY_ROUNDTRIP_CYCLES"]

#: Cycles charged per intermediate-array element store+load in the
#: unpipelined (Figure 3a) flow.
MEMORY_ROUNDTRIP_CYCLES = 2


class SerialProcessUnit:
    """Cycle-level model of the SPU."""

    #: Latencies of the two non-matmul pipeline stages (JiC: cross product on
    #: short multiplier/adder trees; JJTEC: two fused dot/MAC groups).
    JIC_CYCLES = 6
    JJTEC_CYCLES = 8

    def __init__(self, chain: KinematicChain, config: IKAccConfig) -> None:
        self.config = config
        #: Joints processed per iteration.
        self.dof = chain.dof

    def _stage_latencies(self) -> tuple[int, int, int, int]:
        timing = self.config.timing
        return (
            timing.sincos + ASSEMBLE_CYCLES,  # i-1TiC
            timing.matmul4,  # 1TiC
            self.JIC_CYCLES,  # JiC
            self.JJTEC_CYCLES,  # JJTEC
        )

    def _epilogue_cycles(self) -> int:
        """Eq. 8 after the loop: two 3-D dots + one divide."""
        timing = self.config.timing
        dot3 = 3 * timing.mul + 2 * timing.add
        return 2 * dot3 + timing.div

    def cycles_per_iteration(self) -> int:
        """Serial-block latency for one Quick-IK iteration."""
        stages = self._stage_latencies()
        if self.config.spu_pipelined:
            # Pipeline fill + one joint per initiation interval + epilogue.
            fill = sum(stages)
            interval = max(stages)
            return fill + (self.dof - 1) * interval + self._epilogue_cycles()
        # Figure 3(a): four separate loops, each paying its stage latency per
        # joint, plus memory round-trips for the intermediate 1Ti (16 words)
        # and Ji (3 words) arrays.
        loops = sum(latency * self.dof for latency in stages)
        memory = MEMORY_ROUNDTRIP_CYCLES * self.dof * (16 + 3)
        return loops + memory + self._epilogue_cycles()
