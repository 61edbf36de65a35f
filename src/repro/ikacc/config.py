"""IKAcc hardware configuration: unit counts, clock, datapath latencies.

The defaults encode the paper's evaluated design point (Section 6.3):

* 32 Speculative Search Units (SSU) serving 64 software speculations, so the
  Parallel Search Scheduler issues **two waves** per iteration;
* 1 GHz clock in a 65 nm process at 1.1 V (Table 3);
* a 4x4 matrix-multiply block that finishes in "tens of cycles" using a small
  number of multipliers/adders (Section 5.2 — the HLS-generated block), which
  we default to 24 cycles;
* a 4-stage SPU pipeline (``i-1TiC -> 1TiC -> JiC -> JJTEC``, Figure 3) whose
  initiation interval is one matmul-block latency.

Latencies are per-operation cycle counts for the float32 datapath; they feed
both the cycle-accurate timing model and the power model's activity factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DatapathTiming", "IKAccConfig"]


@dataclass(frozen=True)
class DatapathTiming:
    """Cycle latencies of the float32 functional units.

    ``matmul4`` is the latency of the HLS-generated 4x4 matrix-multiply block
    (64 multiplies + 48 adds folded onto a few units — "tens of cycles").
    ``sincos`` is a CORDIC-style unit evaluating sin and cos together.
    """

    mul: int = 3
    add: int = 2
    div: int = 12
    sqrt: int = 12
    sincos: int = 20
    compare: int = 1
    matmul4: int = 24

    def __post_init__(self) -> None:
        for name in ("mul", "add", "div", "sqrt", "sincos", "compare", "matmul4"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} latency must be >= 1 cycle")


@dataclass(frozen=True)
class IKAccConfig:
    """Full accelerator configuration.

    Parameters
    ----------
    n_ssus:
        Physical Speculative Search Units (``MaxSSUs``).  The paper's design
        has 32.
    speculations:
        Software speculation count (``Max``); when it exceeds ``n_ssus`` the
        scheduler runs multiple waves (the paper runs 64 over 32 -> 2 waves).
    frequency_hz:
        Clock frequency (paper: 1 GHz).
    timing:
        Functional-unit latencies.
    spu_pipelined:
        When true the SPU runs the fused four-stage pipeline of Figure 3;
        when false it executes the four per-joint loops back to back (the
        "original process flow" of Figure 3a) — the ablation knob.
    broadcast_latency:
        Cycles for the Parallel Search Scheduler to broadcast
        ``theta, dtheta_base, alpha_base`` to the SSUs per wave.
    dtype:
        Numpy dtype of the datapath (the silicon uses float32): the
        simulator solves on the chain's twin in this dtype.
    kernel:
        FK/Jacobian kernel mode of that twin (see
        :mod:`repro.kinematics.kernels`): ``None`` (the default) inherits
        the chain's kernel, ``"scalar"`` / ``"vectorized"`` force one.  The
        *timing* model is unaffected — it prices the silicon's sequential
        datapath either way.
    """

    n_ssus: int = 32
    speculations: int = 64
    frequency_hz: float = 1.0e9
    timing: DatapathTiming = field(default_factory=DatapathTiming)
    spu_pipelined: bool = True
    broadcast_latency: int = 4
    dtype: str = "float32"
    kernel: str | None = None

    def __post_init__(self) -> None:
        if self.n_ssus < 1:
            raise ValueError("n_ssus must be >= 1")
        if self.speculations < 1:
            raise ValueError("speculations must be >= 1")
        if self.frequency_hz <= 0.0:
            raise ValueError("frequency_hz must be positive")
        if self.broadcast_latency < 0:
            raise ValueError("broadcast_latency must be >= 0")
        if self.kernel is not None:
            from repro.kinematics.kernels import resolve_kernel_mode

            resolve_kernel_mode(self.kernel)

    @property
    def waves_per_iteration(self) -> int:
        """Scheduler waves needed to serve all speculations (ceil division)."""
        return -(-self.speculations // self.n_ssus)

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at the configured clock."""
        return cycles / self.frequency_hz
