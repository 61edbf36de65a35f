"""Tests for the Atom/TX1/IKAcc platform cost models."""

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.ikacc.accelerator import IKAccSimulator
from repro.kinematics.robots import paper_chain, random_chain
from repro.platforms.atom import AtomModel
from repro.platforms.base import METHOD_NAMES, iteration_ops
from repro.platforms.ikacc_platform import IKAccPlatform
from repro.platforms.tx1 import TX1Model


class TestIterationOps:
    def test_all_method_names_priceable(self):
        for name in METHOD_NAMES:
            assert iteration_ops(name, 12, 64).flops > 0

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            iteration_ops("JT-Magic", 12)

    def test_speculation_only_affects_quick_ik(self):
        assert iteration_ops("JT-Serial", 12, 64) == iteration_ops("JT-Serial", 12, 1)
        assert (
            iteration_ops("JT-Speculation", 12, 64).flops
            > iteration_ops("JT-Speculation", 12, 16).flops
        )


class TestAtom:
    def test_time_scales_with_flops(self):
        atom = AtomModel()
        t12 = atom.seconds_per_iteration("JT-Serial", 12)
        t100 = atom.seconds_per_iteration("JT-Serial", 100)
        assert t100 > 5 * t12

    def test_svd_penalty_applied(self):
        lenient = AtomModel(svd_efficiency=1.0)
        harsh = AtomModel(svd_efficiency=0.1)
        assert harsh.seconds_per_iteration("J-1-SVD", 50) > lenient.seconds_per_iteration(
            "J-1-SVD", 50
        )
        # JT-Serial unaffected by the SVD penalty.
        assert harsh.seconds_per_iteration("JT-Serial", 50) == pytest.approx(
            lenient.seconds_per_iteration("JT-Serial", 50)
        )

    def test_estimate_multiplies_iterations(self):
        atom = AtomModel()
        one = atom.estimate("JT-Serial", 25, 1.0)
        hundred = atom.estimate("JT-Serial", 25, 100.0)
        assert hundred.seconds == pytest.approx(100 * one.seconds)

    def test_energy_is_power_times_time(self):
        atom = AtomModel()
        estimate = atom.estimate("JT-Serial", 25, 50.0)
        assert estimate.energy_j == pytest.approx(10.0 * estimate.seconds)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AtomModel(effective_flops=0.0)
        with pytest.raises(ValueError):
            AtomModel(svd_efficiency=0.0)
        with pytest.raises(ValueError):
            AtomModel().estimate("JT-Serial", 12, -1.0)

    def test_milliseconds_property(self):
        estimate = AtomModel().estimate("JT-Serial", 12, 10.0)
        assert estimate.milliseconds == pytest.approx(estimate.seconds * 1e3)


class TestTX1:
    def test_only_prices_quick_ik(self):
        tx1 = TX1Model()
        with pytest.raises(KeyError):
            tx1.seconds_per_iteration("JT-Serial", 12)
        with pytest.raises(KeyError):
            tx1.seconds_per_iteration("J-1-SVD", 12)

    def test_overhead_dominates_low_dof(self):
        tx1 = TX1Model()
        t12 = tx1.seconds_per_iteration("JT-Speculation", 12, 64)
        assert t12 < 2.5 * tx1.offload_overhead_s

    def test_per_iteration_grows_sublinearly_with_dof(self):
        """The fixed offload overhead flattens the DOF scaling — the paper's
        explanation for TX1's shrinking advantage."""
        tx1 = TX1Model()
        t12 = tx1.seconds_per_iteration("JT-Speculation", 12, 64)
        t100 = tx1.seconds_per_iteration("JT-Speculation", 100, 64)
        assert t100 / t12 < 100 / 12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TX1Model(offload_overhead_s=-1.0)
        with pytest.raises(ValueError):
            TX1Model(joint_level_s=0.0)
        with pytest.raises(ValueError):
            TX1Model(serial_flops=0.0)


class TestIKAccPlatform:
    def test_only_prices_quick_ik(self):
        with pytest.raises(KeyError):
            IKAccPlatform().seconds_per_iteration("JT-Serial", 12)

    def test_per_iteration_matches_simulator(self):
        platform = IKAccPlatform()
        direct = IKAccSimulator(paper_chain(25)).seconds_per_full_iteration()
        assert platform.seconds_per_iteration("JT-Speculation", 25, 64) == pytest.approx(
            direct
        )

    def test_avg_power_in_paper_band(self):
        assert 0.08 < IKAccPlatform().avg_power_w < 0.32

    def test_simulate_applies_its_solver_config_to_a_cached_simulator(self):
        platform, chain = IKAccPlatform(), paper_chain(12)
        platform.simulator(chain)  # cached with the default config
        (run,) = platform.simulate(
            chain, np.array([[99.0, 0.0, 0.0]]), rng=np.random.default_rng(0),
            solver_config=SolverConfig(max_iterations=3),
        )
        assert run.iterations == 3

    def test_chains_sharing_a_name_and_dof_get_their_own_simulator(self):
        a = random_chain(12, np.random.default_rng(1))
        b = random_chain(12, np.random.default_rng(2))
        assert (a.name, a.dof) == (b.name, b.dof)
        target = np.array([[0.3, 0.2, 0.1]])
        platform = IKAccPlatform()
        platform.simulate(a, target, rng=np.random.default_rng(0))
        (run,) = platform.simulate(b, target, rng=np.random.default_rng(0))
        assert platform.simulator(b).chain is b
        assert platform.simulator(a).chain is a
        direct = IKAccSimulator(b).solve(target[0], rng=np.random.default_rng(0))
        assert np.array_equal(run.q, direct.q)
        # One geometry, one simulator: an identically built chain (as
        # ``seconds_per_iteration`` builds one per call) finds it.
        assert platform.simulator(paper_chain(12)) is platform.simulator(
            paper_chain(12)
        )


class TestCrossPlatformShape:
    """The architectural ratios of Table 2 (iteration counts cancel)."""

    def test_ikacc_beats_tx1_beats_atom(self):
        atom, tx1, ikacc = AtomModel(), TX1Model(), IKAccPlatform()
        for dof in (12, 50, 100):
            a = atom.seconds_per_iteration("JT-Speculation", dof, 64)
            t = tx1.seconds_per_iteration("JT-Speculation", dof, 64)
            k = ikacc.seconds_per_iteration("JT-Speculation", dof, 64)
            assert k < t < a

    def test_atom_over_ikacc_near_1000x(self):
        """Paper Table 2 column3/column5: ~800-1200x across the sweep."""
        atom, ikacc = AtomModel(), IKAccPlatform()
        for dof in (12, 25, 50, 75, 100):
            ratio = atom.seconds_per_iteration(
                "JT-Speculation", dof, 64
            ) / ikacc.seconds_per_iteration("JT-Speculation", dof, 64)
            assert 500 < ratio < 2000

    def test_tx1_over_ikacc_declines_with_dof(self):
        """Paper Table 2 column4/column5 falls from ~126x to ~26x."""
        tx1, ikacc = TX1Model(), IKAccPlatform()
        ratios = [
            tx1.seconds_per_iteration("JT-Speculation", dof, 64)
            / ikacc.seconds_per_iteration("JT-Speculation", dof, 64)
            for dof in (12, 25, 50, 75, 100)
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert 60 < ratios[0] < 250
        assert 15 < ratios[-1] < 70
