"""Cross-validation between independent implementations of the same math."""

import numpy as np
import pytest

from repro.core.alpha import buss_alpha
from repro.core.result import SolverConfig
from repro.ikacc.accelerator import IKAccSimulator
from repro.ikacc.opcounts import quick_ik_iteration_ops
from repro.kinematics.robots import paper_chain
from repro.platforms.atom import AtomModel
from repro.platforms.ikacc_platform import IKAccPlatform


class TestOpCountsVsInstrumentation:
    def test_simulator_ops_match_analytic_per_iteration(self, rng):
        """The ops the simulator actually tallies per full iteration must
        match the analytic per-iteration count used by the platform models
        (modulo the one-off init FK)."""
        chain = paper_chain(12)
        sim = IKAccSimulator(chain)
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=np.random.default_rng(0))
        if result.iterations == 0:
            pytest.skip("degenerate restart")
        analytic = quick_ik_iteration_ops(12, 64)
        from repro.ikacc.opcounts import fk_ops

        init = fk_ops(12)
        measured_mul = result.ops.mul - init.mul
        # Early-exit in the final iteration may skip one wave (half the
        # speculative muls of one iteration at most).
        upper = analytic.mul * result.iterations
        lower = upper - analytic.mul // 2 - 1
        assert lower <= measured_mul <= upper


class TestTimingModelsAgree:
    def test_platform_wrapper_equals_simulator_static_timing(self):
        platform = IKAccPlatform()
        for dof in (12, 50):
            sim = IKAccSimulator(paper_chain(dof))
            assert platform.seconds_per_iteration(
                "JT-Speculation", dof, 64
            ) == pytest.approx(sim.seconds_per_full_iteration())

    def test_simulated_solve_time_close_to_iterations_times_static(self, rng):
        """Dynamic simulation (with early exits) must sit within the static
        upper bound and not far below it."""
        chain = paper_chain(25)
        sim = IKAccSimulator(chain)
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=np.random.default_rng(1))
        if result.iterations == 0:
            pytest.skip("degenerate restart")
        static = sim.seconds_per_full_iteration() * result.iterations
        assert result.seconds <= static * 1.2  # + init FK margin
        assert result.seconds >= 0.4 * static


class TestAtomModelInternalConsistency:
    def test_quick_ik_iteration_costs_about_64_jt_iterations(self):
        """Figure 5(b)'s premise: Quick-IK trades 64x per-iteration work for
        ~30x fewer iterations.  The Atom model must reflect that work ratio."""
        atom = AtomModel()
        qik = atom.seconds_per_iteration("JT-Speculation", 50, 64)
        jts = atom.seconds_per_iteration("JT-Serial", 50)
        assert 20 < qik / jts < 70


class TestFloat32SPUvsFloat64:
    def test_spu_alpha_base_matches_double_precision(self, rng, broadcasts):
        """Each simulated iteration's float32 ``alpha_base`` (the shared
        step's Eq. 8 on the twin) matches the float64 value at its ``q``."""
        chain = paper_chain(50)
        sim = IKAccSimulator(chain, solver_config=SolverConfig(max_iterations=1))
        for _ in range(5):
            q0 = chain.random_configuration(rng)
            target = chain.end_position(chain.random_configuration(rng))
            sim.solve(target, q0=q0)
            grid = broadcasts[-1]
            q = grid.q[0].astype(float)
            jac = chain.jacobian_position(q)
            error = target - chain.end_position(q)
            sw_alpha = buss_alpha(error, jac @ (jac.T @ error))
            assert float(grid.alpha_base[0]) == pytest.approx(sw_alpha, rel=1e-3)
        assert len(broadcasts) == 5
