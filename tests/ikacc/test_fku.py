"""Tests for the Forward Kinematics Unit.

The positions an FKU produces are the simulator's float32 twin's; the
functional tests hold that twin to the chain it stands for.
"""

import numpy as np
import pytest

from repro.ikacc.accelerator import IKAccSimulator
from repro.ikacc.config import DatapathTiming, IKAccConfig
from repro.ikacc.fku import ForwardKinematicsUnit
from repro.kinematics.robots import paper_chain


@pytest.fixture
def chain():
    return paper_chain(12)


@pytest.fixture
def twin(chain):
    return IKAccSimulator(chain).twin


class TestFunctional:
    def test_matches_float32_chain(self, chain, twin, rng):
        chain32 = chain.astype(np.float32)
        assert twin is chain32
        for _ in range(5):
            q = chain.random_configuration(rng)
            position = twin.end_position(q)
            assert position.dtype == np.float32
            assert np.array_equal(position, chain32.end_position(q))

    def test_close_to_float64_reference(self, chain, twin, rng):
        q = chain.random_configuration(rng)
        position = twin.end_position(q)
        assert np.linalg.norm(position.astype(float) - chain.end_position(q)) < 1e-5

    def test_run_batch_matches_run(self, chain, twin, rng):
        qs = np.stack([chain.random_configuration(rng) for _ in range(4)])
        batch_positions = twin.end_positions_batch(qs)
        for i in range(4):
            single = twin.end_position(qs[i])
            assert np.allclose(batch_positions[i], single, atol=1e-6)


class TestTiming:
    def test_cycles_scale_linearly_with_dof(self):
        config = IKAccConfig()
        small = ForwardKinematicsUnit(paper_chain(10), config).cycles_per_fk()
        large = ForwardKinematicsUnit(paper_chain(20), config).cycles_per_fk()
        steady = max(
            config.timing.matmul4, config.timing.sincos + 2
        )
        assert large - small == 10 * steady

    def test_steady_state_set_by_slowest_of_matmul_and_screw(self, chain):
        fast_screw = IKAccConfig(timing=DatapathTiming(sincos=2, matmul4=30))
        slow_screw = IKAccConfig(timing=DatapathTiming(sincos=50, matmul4=30))
        a = ForwardKinematicsUnit(chain, fast_screw).cycles_per_fk()
        b = ForwardKinematicsUnit(chain, slow_screw).cycles_per_fk()
        assert b > a  # screw generation became the bottleneck

    def test_report_ops_match_opcounts(self, chain):
        """A solve that starts at its solution runs one FK: the FKU's
        cycles and ops."""
        from repro.ikacc.opcounts import fk_ops

        q0 = chain.random_configuration(np.random.default_rng(0))
        sim = IKAccSimulator(chain)
        result = sim.solve(chain.end_position(q0), q0=q0)
        assert result.iterations == 0
        assert result.ops == fk_ops(chain.dof)
        assert result.cycles == sim.ssu.fku.cycles_per_fk()

    def test_accepts_prebuilt_float32_chain(self, chain):
        chain32 = chain.astype(np.float32)
        assert IKAccSimulator(chain32).twin is chain32
