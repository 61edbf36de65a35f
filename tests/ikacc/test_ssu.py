"""Tests for the Speculative Search Unit.

The candidates and errors an SSU produces are Quick-IK's shared sweep
(the step's ``SpeculationGrid`` through ``speculate``) on the simulator's
float32 twin; the functional tests read a simulated iteration's grid.
"""

import numpy as np
import pytest

from repro.core.quick_ik import speculate
from repro.core.result import SolverConfig
from repro.ikacc.accelerator import IKAccSimulator
from repro.ikacc.config import IKAccConfig
from repro.ikacc.ssu import SpeculativeSearchUnit
from repro.kinematics.robots import paper_chain
from repro.telemetry.tracer import NULL_TRACER


@pytest.fixture
def chain():
    return paper_chain(12)


@pytest.fixture
def setup(chain, rng, broadcasts):
    """A simulated iteration's broadcast grid, the twin and the target."""
    sim = IKAccSimulator(chain, solver_config=SolverConfig(max_iterations=1))
    q0 = chain.random_configuration(rng)
    target = chain.end_position(chain.random_configuration(rng))
    sim.solve(target, q0=q0)
    (grid,) = broadcasts
    return sim.twin, grid, target


class TestFunctional:
    def test_alpha_k_follows_equation_9(self, setup):
        _, grid, _ = setup
        alpha_base = float(grid.alpha_base[0])
        for k in (1, 17, 64):
            assert float(grid.alphas[0, k - 1]) == pytest.approx(
                (k / 64) * alpha_base, rel=1e-5
            )

    def test_k_max_reproduces_full_buss_step(self, setup):
        _, grid, _ = setup
        expected = grid.q[0].astype(float) + float(
            grid.alpha_base[0]
        ) * grid.direction[0].astype(float)
        assert np.allclose(grid.candidates()[63].astype(float), expected, atol=1e-4)

    def test_error_is_distance_to_target(self, setup):
        twin, grid, target = setup
        _, position, error, _, _ = speculate(
            twin.end_positions_batch, grid, target.astype(np.float32)[None],
            1e-2, NULL_TRACER,
        )
        expected = np.linalg.norm(target - position[0].astype(float))
        assert float(error[0]) == pytest.approx(expected, rel=1e-5)

    def test_below_threshold_flag(self, setup):
        twin, grid, target = setup
        _, _, _, chosen, below = speculate(
            twin.end_positions_batch, grid, target.astype(np.float32)[None],
            1e9, NULL_TRACER,
        )
        assert below[0]
        assert chosen[0] == 0  # k = 1, the first within the threshold

    def test_run_wave_matches_individual_runs(self, setup):
        twin, grid, _ = setup
        ks = np.array([1, 5, 33, 64])
        block = grid.candidates()
        wave = twin.end_positions_batch(block[ks - 1])
        for i, k in enumerate(ks):
            assert np.array_equal(grid.rows(np.array([k - 1]))[0], block[k - 1])
            single = twin.end_position(block[k - 1])
            assert np.allclose(wave[i], single, atol=1e-6)


class TestTiming:
    def test_cycles_dominated_by_fku(self, chain):
        config = IKAccConfig()
        ssu = SpeculativeSearchUnit(chain, config)
        assert ssu.cycles_per_speculation() > ssu.fku.cycles_per_fk()
        assert ssu.cycles_per_speculation() < ssu.fku.cycles_per_fk() + 100

    def test_wave_results_carry_single_speculation_latency(self, chain, rng):
        """A simulated solve charges one speculation's latency per wave."""
        sim = IKAccSimulator(chain)
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=rng)
        assert result.waves_executed > 0
        assert result.cycle_breakdown["ssu"] == (
            result.waves_executed * sim.ssu.cycles_per_speculation()
        )
