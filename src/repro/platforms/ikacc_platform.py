"""IKAcc as a platform model: timing from the cycle simulator, energy from
the component power model.

Unlike Atom/TX1 (analytic constants), the IKAcc column of Table 2/3 is backed
by :class:`~repro.ikacc.accelerator.IKAccSimulator` — the per-iteration
latency is derived from the actual SPU pipeline / scheduler-wave / selector
structure, and solve-level numbers can come from full simulated runs
(including early-exit waves) via :meth:`IKAccPlatform.simulate`.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import SolverConfig
from repro.ikacc.accelerator import IKAccRunResult, IKAccSimulator
from repro.ikacc.config import IKAccConfig
from repro.ikacc.opcounts import quick_ik_iteration_ops
from repro.ikacc.power import IKAccPowerModel
from repro.kinematics import KinematicChain, chain_fingerprint
from repro.platforms.base import PlatformModel

__all__ = ["IKAccPlatform"]


class IKAccPlatform(PlatformModel):
    """The accelerator column of Tables 2 and 3."""

    name = "IKAcc"
    technology = "65nm 1.1V"

    def __init__(self, config: IKAccConfig | None = None) -> None:
        self.config = config or IKAccConfig()
        self.power_model = IKAccPowerModel(self.config)
        #: Simulators by :func:`~repro.kinematics.chain_fingerprint` of
        #: their chain: chains of one name and DOF but another geometry
        #: get their own.
        self._simulators: dict[bytes, IKAccSimulator] = {}

    @property
    def avg_power_w(self) -> float:  # type: ignore[override]
        """Average power at the design point's typical utilisation.

        Reported in Table 3; per-run averages come from the simulator.
        """
        # Leakage plus dynamic power of a fully busy iteration at 100 DOF.
        ops = quick_ik_iteration_ops(100, self.config.speculations)
        dummy_seconds = 7.5e-6  # one 100-DOF iteration at the default config
        return self.power_model.average_power_w(ops, dummy_seconds)

    def simulator(self, chain: KinematicChain, solver_config: SolverConfig | None = None) -> IKAccSimulator:
        """A (cached) simulator for ``chain``'s geometry."""
        key = chain_fingerprint(chain)
        if key not in self._simulators:
            self._simulators[key] = IKAccSimulator(
                chain, config=self.config, solver_config=solver_config
            )
        return self._simulators[key]

    def seconds_per_iteration(
        self, method: str, dof: int, speculations: int = 1
    ) -> float:
        if method != "JT-Speculation":
            raise KeyError(f"IKAcc runs only JT-Speculation, not {method!r}")
        # Analytic per-iteration latency for a chain of this DOF (geometry
        # does not affect timing, only joint count).
        from repro.kinematics.robots import paper_chain

        sim = self.simulator(paper_chain(dof))
        return sim.seconds_per_full_iteration()

    def energy_j(self, seconds: float) -> float:
        """Coarse energy estimate from average power (prefer
        :meth:`simulate`, which integrates the component model)."""
        return self.avg_power_w * seconds

    def simulate(
        self,
        chain: KinematicChain,
        targets: np.ndarray,
        rng: np.random.Generator | None = None,
        solver_config: SolverConfig | None = None,
    ) -> list[IKAccRunResult]:
        """Full cycle-level runs over a target set (the Table 2/3 backing)."""
        sim = self.simulator(chain, solver_config=solver_config)
        if solver_config is not None:
            sim.solver_config = solver_config
        if rng is None:
            rng = np.random.default_rng()
        return [sim.solve(t, rng=rng) for t in np.atleast_2d(targets)]
