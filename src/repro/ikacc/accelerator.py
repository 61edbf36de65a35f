"""IKAcc top level: the cycle-level accelerator simulator.

Ties together the four modules of Figure 2 — Serial Process Unit, the SSU
array, the Parallel Search Scheduler and the Parameter Selector — as cost
models of one solve.  The solve itself is Quick-IK's shared one
(:class:`~repro.core.quick_ik.QuickIKSolver`, the step the lock-step engine
also runs) on a float32 twin of the chain, the silicon's datapath; the
simulator then prices its iterations in cycles, operations, energy and
power.  Its answers are the float32 software solve's, bit for bit.

Timing of one iteration::

    SPU (pipelined serial block)
    for each wave:                         # ceil(Max / MaxSSUs) waves
        broadcast theta/dtheta/alpha       # scheduler
        SSU array latency (lock-step)      # one speculative search
        selector tree merge

Algorithm 1 returns at the first candidate within tolerance (lines 12-13),
so only a converged solve's last iteration stops early: it runs the waves
up to the one holding the winner, ``ceil(k / MaxSSUs)`` of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.quick_ik import QuickIKSolver
from repro.core.result import SolverConfig
from repro.execution import KernelSpec
from repro.ikacc.config import IKAccConfig
from repro.ikacc.opcounts import (
    OpCounts,
    error_ops,
    fk_ops,
    jacobian_serial_ops,
    speculation_update_ops,
)
from repro.ikacc.power import IKAccPowerModel
from repro.ikacc.scheduler import ParallelSearchScheduler
from repro.ikacc.selector import ParameterSelector
from repro.ikacc.spu import SerialProcessUnit
from repro.ikacc.ssu import SpeculativeSearchUnit
from repro.kinematics.chain import KinematicChain
from repro.telemetry.tracer import NULL_TRACER, Tracer, get_tracer

__all__ = ["IKAccRunResult", "IKAccSimulator"]


@dataclass
class IKAccRunResult:
    """Outcome of one IK solve on the simulated accelerator."""

    q: np.ndarray
    converged: bool
    iterations: int
    error: float
    cycles: int
    seconds: float
    ops: OpCounts
    energy_j: float
    average_power_w: float
    waves_executed: int
    cycle_breakdown: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "converged" if self.converged else "FAILED"
        return (
            f"IKAcc: {status} in {self.iterations} iterations / "
            f"{self.cycles} cycles = {self.seconds * 1e3:.4f} ms, "
            f"energy {self.energy_j * 1e3:.4f} mJ"
        )


class IKAccSimulator:
    """Cycle-level simulator of the IKAcc accelerator.

    :meth:`solve` runs Quick-IK's shared solve on :attr:`twin` and prices
    it with the SPU, SSU, scheduler, selector and power models.

    Parameters
    ----------
    chain:
        Manipulator; the solve runs on its twin in ``config.dtype`` (the
        silicon's float32) and ``config.kernel``.
    config:
        Hardware configuration (default: the paper's 32-SSU / 64-speculation
        design at 1 GHz).
    solver_config:
        Convergence policy (paper defaults: 1e-2 m, 10k iterations).
    power_model:
        Area/energy model; a default one is built from ``config``.
    """

    def __init__(
        self,
        chain: KinematicChain,
        config: IKAccConfig | None = None,
        solver_config: SolverConfig | None = None,
        power_model: IKAccPowerModel | None = None,
    ) -> None:
        self.chain = chain
        self.config = config or IKAccConfig()
        self.solver_config = solver_config or SolverConfig()
        self.spu = SerialProcessUnit(chain, self.config)
        self.ssu = SpeculativeSearchUnit(chain, self.config)
        self.scheduler = ParallelSearchScheduler(self.config)
        self.selector = ParameterSelector(self.config)
        self.power_model = power_model or IKAccPowerModel(self.config)
        self.scheduler.validate()
        #: The chain on the datapath: the one solve :meth:`solve` prices.
        self.twin = KernelSpec(
            name=self.config.kernel, dtype=self.config.dtype
        ).apply(chain)

    # ------------------------------------------------------------------
    # Static timing queries (used by Table 2 and the design-space example)
    # ------------------------------------------------------------------

    def cycles_per_full_iteration(self) -> int:
        """Latency of one iteration when no wave exits early."""
        cycles = self.spu.cycles_per_iteration()
        for wave in self.scheduler.waves():
            cycles += self.scheduler.broadcast_cycles()
            cycles += self.ssu.cycles_per_speculation()
            cycles += self.selector.cycles_per_wave(wave.occupancy)
        return cycles

    def seconds_per_full_iteration(self) -> float:
        """:meth:`cycles_per_full_iteration` at the configured clock."""
        return self.config.cycles_to_seconds(self.cycles_per_full_iteration())

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------

    def solve(
        self,
        target: np.ndarray,
        q0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ) -> IKAccRunResult:
        """Run the accelerator on one target position.

        ``QuickIKSolver.solve`` on :attr:`twin` from ``q0`` (random from
        ``rng`` when omitted) gives the answer; each of its iterations
        costs the SPU and every wave, except the last iteration of a
        converged solve, which stops at the wave holding its winner.
        """
        target = np.asarray(target, dtype=float)
        if target.shape != (3,):
            raise ValueError(f"target must be a 3-vector, got shape {target.shape}")
        wall_start = time.perf_counter()
        solver = QuickIKSolver(
            self.twin,
            speculations=self.config.speculations,
            # The telemetry's iteration events carry each iteration's error.
            config=replace(self.solver_config, record_history=True),
            track_chosen=True,
        )
        result = solver.solve(target, q0=q0, rng=rng, tracer=NULL_TRACER)

        dof = self.chain.dof
        waves = self.scheduler.waves()
        iterations = result.iterations
        spu = self.spu.cycles_per_iteration()
        broadcast = self.scheduler.broadcast_cycles()
        ssu = self.ssu.cycles_per_speculation()
        select = [self.selector.cycles_per_wave(w.occupancy) for w in waves]
        # Waves of the last iteration: up to the winner's when it hit.
        last = len(waves) if iterations else 0
        if result.converged and iterations:
            winner = solver.chosen_history[-1] + 1
            last = self.scheduler.wave_for_speculation(winner) + 1
        full = max(iterations - 1, 0)
        waves_executed = full * len(waves) + last
        candidates = full * self.config.speculations + sum(
            w.occupancy for w in waves[:last]
        )
        breakdown = {
            "spu": iterations * spu,
            "ssu": waves_executed * ssu,
            "scheduler": waves_executed * broadcast,
            "selector": full * sum(select) + sum(select[:last]),
            "init": self.ssu.fku.cycles_per_fk(),
        }
        ops = (
            fk_ops(dof)  # the initial FK
            + jacobian_serial_ops(dof).scaled(iterations)
            + (
                speculation_update_ops(dof) + fk_ops(dof) + error_ops()
            ).scaled(candidates)
        )
        cycles = sum(breakdown.values())
        seconds = self.config.cycles_to_seconds(cycles)
        energy = self.power_model.energy_j(ops, seconds)

        tr = tracer if tracer is not None else get_tracer()
        if tr.enabled:
            tr.solve_start(
                "IKAcc", dof, target=target,
                speculations=self.config.speculations, n_ssus=self.config.n_ssus,
            )
            tr.count("fk_evaluations")
            for i in range(1, iterations + 1):
                ran = waves if i < iterations else waves[:last]
                for w, wave in enumerate(ran, 1):
                    tr.count("fk_evaluations", wave.occupancy)
                    tr.count("candidate_evaluations", wave.occupancy)
                    tr.speculation_wave(
                        w,
                        wave.occupancy,
                        iteration=i,
                        hit=result.converged and i == iterations and w == last,
                        broadcast_cycles=broadcast,
                        ssu_cycles=ssu,
                    )
                tr.count("jacobian_builds")
                tr.iteration(
                    i,
                    float(result.error_history[i]),
                    spu_cycles=spu,
                    selector_cycles=sum(select[:len(ran)]),
                    waves=len(ran),
                )
            tr.solve_end(
                "IKAcc",
                converged=result.converged,
                iterations=iterations,
                error=result.error,
                cycles=cycles,
                seconds=seconds,
                energy_j=energy,
                waves_executed=waves_executed,
                wall_time=time.perf_counter() - wall_start,
            )
        return IKAccRunResult(
            q=result.q,
            converged=result.converged,
            iterations=iterations,
            error=result.error,
            cycles=cycles,
            seconds=seconds,
            ops=ops,
            energy_j=energy,
            average_power_w=energy / seconds if seconds > 0.0 else 0.0,
            waves_executed=waves_executed,
            cycle_breakdown=breakdown,
            wall_time=time.perf_counter() - wall_start,
        )

    def solve_batch(
        self,
        targets: np.ndarray,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ) -> list[IKAccRunResult]:
        """Solve several targets (fresh random restart each)."""
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if rng is None:
            rng = np.random.default_rng()
        return [self.solve(t, rng=rng, tracer=tracer) for t in targets]
