"""Tests for the Serial Process Unit.

The values the SPU produces are Quick-IK's shared step on the simulator's
float32 twin; the functional tests read them from a simulated solve's
first broadcast and hold them to the float64 reference.
"""

import numpy as np
import pytest

from repro.core.alpha import buss_alpha
from repro.core.result import SolverConfig
from repro.ikacc.accelerator import IKAccSimulator
from repro.ikacc.config import IKAccConfig
from repro.ikacc.spu import SerialProcessUnit
from repro.kinematics.robots import paper_chain


@pytest.fixture
def chain():
    return paper_chain(12)


@pytest.fixture
def spu(chain):
    return SerialProcessUnit(chain, IKAccConfig())


@pytest.fixture
def serial_block(chain, rng, broadcasts):
    """``(q, dtheta_base, alpha_base, target)`` of one simulated iteration,
    ``q`` and ``dtheta_base`` as the float32 twin computed them."""
    sim = IKAccSimulator(chain, solver_config=SolverConfig(max_iterations=1))
    q0 = chain.random_configuration(rng)
    target = chain.end_position(chain.random_configuration(rng))
    sim.solve(target, q0=q0)
    (grid,) = broadcasts
    return grid.q[0], grid.direction[0], float(grid.alpha_base[0]), target


class TestFunctional:
    def test_jacobian_matches_float32_chain(self, chain, serial_block):
        q, dtheta_base, _, target = serial_block
        chain32 = chain.astype(np.float32)
        assert q.dtype == dtheta_base.dtype == np.float32
        error32 = target.astype(np.float32) - chain32.end_position(q)
        assert np.array_equal(
            dtheta_base, chain32.jacobian_position(q).T @ error32
        )

    def test_dtheta_base_is_transpose_times_error(self, chain, serial_block):
        q, dtheta_base, _, target = serial_block
        q = q.astype(float)
        error64 = target - chain.end_position(q)
        expected = chain.jacobian_position(q).T @ error64
        assert np.allclose(dtheta_base.astype(float), expected, atol=1e-4)

    def test_alpha_base_matches_equation_8(self, chain, serial_block):
        q, _, alpha_base, target = serial_block
        q = q.astype(float)
        jac = chain.jacobian_position(q)
        error = target - chain.end_position(q)
        expected = buss_alpha(error, jac @ (jac.T @ error))
        assert alpha_base == pytest.approx(expected, rel=1e-3)


class TestTiming:
    def test_pipelined_one_joint_per_interval(self):
        config = IKAccConfig()
        small = SerialProcessUnit(paper_chain(10), config).cycles_per_iteration()
        large = SerialProcessUnit(paper_chain(30), config).cycles_per_iteration()
        assert large - small == 20 * config.timing.matmul4

    def test_pipelined_faster_than_unpipelined(self, chain):
        piped = SerialProcessUnit(chain, IKAccConfig(spu_pipelined=True))
        flat = SerialProcessUnit(chain, IKAccConfig(spu_pipelined=False))
        assert piped.cycles_per_iteration() < flat.cycles_per_iteration()

    def test_unpipelined_charges_memory_traffic(self, chain):
        from repro.ikacc.spu import MEMORY_ROUNDTRIP_CYCLES

        flat = SerialProcessUnit(chain, IKAccConfig(spu_pipelined=False))
        stages_only = sum(flat._stage_latencies()) * chain.dof
        assert (
            flat.cycles_per_iteration()
            >= stages_only + MEMORY_ROUNDTRIP_CYCLES * chain.dof * 19
        )

    def test_pipeline_speedup_grows_with_dof(self):
        def ratio(dof):
            chain = paper_chain(dof)
            piped = SerialProcessUnit(chain, IKAccConfig(spu_pipelined=True))
            flat = SerialProcessUnit(chain, IKAccConfig(spu_pipelined=False))
            return flat.cycles_per_iteration() / piped.cycles_per_iteration()

        assert ratio(100) > ratio(12) > 1.0

    def test_reported_cycles_consistent(self, chain, rng):
        """A simulated solve charges the serial block once per iteration."""
        sim = IKAccSimulator(chain)
        target = chain.end_position(chain.random_configuration(rng))
        result = sim.solve(target, rng=rng)
        assert result.iterations > 0
        assert result.cycle_breakdown["spu"] == (
            result.iterations * sim.spu.cycles_per_iteration()
        )
