"""Tests for the top-level IKAcc simulator."""

import numpy as np
import pytest

from repro.core.quick_ik import QuickIKSolver
from repro.core.result import SolverConfig
from repro.ikacc.accelerator import IKAccSimulator
from repro.ikacc.config import IKAccConfig
from repro.kinematics.robots import paper_chain
from repro.solvers.batched import BatchedQuickIK


@pytest.fixture
def chain():
    return paper_chain(12)


@pytest.fixture
def sim(chain):
    return IKAccSimulator(chain)


class TestSolve:
    def test_converges_on_reachable_target(self, chain, sim, rng):
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=rng)
        assert result.converged
        assert result.error < sim.solver_config.tolerance
        assert np.allclose(chain.end_position(result.q), target, atol=2e-2)

    def test_matches_software_quick_ik_iterations(self, chain, rng):
        """The accelerator runs Quick-IK's shared solve on its float32 twin:
        the same restart gives the software solve's q, error and iteration
        count bit for bit, on the scalar driver and the lock-step engine."""
        for arm in (chain, paper_chain(50)):
            sim = IKAccSimulator(arm)
            assert sim.twin.dtype == np.float32
            config = sim.solver_config
            software = QuickIKSolver(sim.twin, speculations=64, config=config)
            engine = BatchedQuickIK(sim.twin, speculations=64, config=config)
            for seed in range(5):
                target = arm.end_position(arm.random_configuration(rng))
                a = sim.solve(target, rng=np.random.default_rng(seed))
                for b in (
                    software.solve(target, rng=np.random.default_rng(seed)),
                    engine.solve_batch(
                        target[None], rng=np.random.default_rng(seed)
                    )[0],
                ):
                    assert a.iterations == b.iterations
                    assert a.error == b.error
                    np.testing.assert_array_equal(a.q, b.q)

    def test_cycle_breakdown_sums_to_total(self, chain, sim, rng):
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=rng)
        assert sum(result.cycle_breakdown.values()) == result.cycles

    def test_seconds_follow_frequency(self, chain, rng):
        slow = IKAccSimulator(chain, config=IKAccConfig(frequency_hz=0.5e9))
        target = chain.end_position(chain.random_configuration(rng))
        result = slow.solve(target, rng=np.random.default_rng(1))
        assert result.seconds == pytest.approx(result.cycles / 0.5e9)

    def test_energy_positive_and_consistent(self, chain, sim, rng):
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=rng)
        assert result.energy_j > 0.0
        assert result.average_power_w == pytest.approx(
            result.energy_j / result.seconds
        )

    def test_average_power_near_paper_value(self, rng):
        """Table 3: 158.6 mW average.  Accept a generous band — this is a
        component model, not PrimeTime."""
        chain = paper_chain(100)
        sim = IKAccSimulator(chain)
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=rng)
        assert 0.08 < result.average_power_w < 0.32

    def test_wave_early_exit_skips_second_wave(self, chain, rng):
        """Only a converged solve's last iteration stops early, at the wave
        holding its winner (the first candidate within tolerance): a
        winner in the first wave skips the second."""
        sim = IKAccSimulator(chain)
        n_waves = sim.scheduler.n_waves
        last_waves = set()
        for seed in range(8):
            target = chain.end_position(chain.random_configuration(rng))
            result = sim.solve(target, rng=np.random.default_rng(seed))
            assert result.converged and result.iterations > 0
            software = QuickIKSolver(
                sim.twin, config=sim.solver_config, track_chosen=True
            )
            software.solve(target, rng=np.random.default_rng(seed))
            winner = software.chosen_history[-1] + 1  # 1-based k
            last = -(-winner // sim.config.n_ssus)
            assert result.waves_executed == (
                n_waves * (result.iterations - 1) + last
            )
            last_waves.add(last)
        assert 1 in last_waves  # some solve skipped its second wave

    def test_zero_iterations_when_start_is_solution(self, chain, rng):
        q0 = chain.random_configuration(rng)
        target = chain.end_position(q0)
        result = IKAccSimulator(chain).solve(target, q0=q0)
        assert result.iterations == 0
        assert result.converged
        assert result.cycles == result.cycle_breakdown["init"]

    def test_iteration_cap(self, chain, rng):
        config = SolverConfig(max_iterations=3)
        sim = IKAccSimulator(chain, solver_config=config)
        # Unreachable target forces the cap.
        result = sim.solve(np.array([99.0, 0.0, 0.0]), rng=rng)
        assert not result.converged
        assert result.iterations == 3

    def test_bad_target_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.solve(np.zeros(2))

    def test_solve_batch(self, chain, sim, rng):
        targets = np.stack(
            [chain.end_position(chain.random_configuration(rng)) for _ in range(3)]
        )
        results = sim.solve_batch(targets, rng=rng)
        assert len(results) == 3
        assert all(r.converged for r in results)

    def test_summary_format(self, chain, sim, rng):
        target = chain.end_position(chain.random_configuration(rng))
        text = sim.solve(target, rng=rng).summary()
        assert "IKAcc" in text
        assert "ms" in text


class TestStaticTiming:
    def test_full_iteration_includes_all_units(self, sim):
        total = sim.cycles_per_full_iteration()
        assert total > sim.spu.cycles_per_iteration()
        assert total > 2 * sim.ssu.cycles_per_speculation()

    def test_more_ssus_fewer_cycles(self, chain):
        narrow = IKAccSimulator(chain, config=IKAccConfig(n_ssus=8))
        wide = IKAccSimulator(chain, config=IKAccConfig(n_ssus=64))
        assert wide.cycles_per_full_iteration() < narrow.cycles_per_full_iteration()

    def test_paper_scale_iteration_latency(self):
        """At the design point a 100-DOF iteration is O(10 us) — the scale
        implied by Table 2 once iteration counts are factored out."""
        sim = IKAccSimulator(paper_chain(100))
        per_iter = sim.seconds_per_full_iteration()
        assert 2e-6 < per_iter < 40e-6
