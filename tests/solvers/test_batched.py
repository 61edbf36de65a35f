"""Tests for the lock-step throughput solvers."""

import numpy as np
import pytest

from repro.core.quick_ik import QuickIKSolver
from repro.core.result import SolverConfig
from repro.kinematics.robots import paper_chain
from repro.solvers.batched import BatchedQuickIK, BatchedRowSolver
from repro.solvers.jacobian_transpose import JacobianTransposeSolver
from repro.solvers.registry import make_batch_solver


@pytest.fixture(scope="module")
def workload():
    chain = paper_chain(12)
    rng = np.random.default_rng(4)
    targets = np.stack(
        [chain.end_position(chain.random_configuration(rng)) for _ in range(8)]
    )
    q0 = np.stack([chain.random_configuration(rng) for _ in range(8)])
    return chain, targets, q0


class TestBatchedQuickIK:
    def test_matches_scalar_exactly(self, workload):
        chain, targets, q0 = workload
        config = SolverConfig(max_iterations=2000, record_history=False)
        batched = BatchedQuickIK(chain, config=config).solve_batch(targets, q0=q0)
        scalar = QuickIKSolver(chain, config=config)
        for i, result in enumerate(batched):
            reference = scalar.solve(targets[i], q0=q0[i])
            assert result.iterations == reference.iterations
            assert np.allclose(result.q, reference.q, atol=1e-9)
            assert result.converged == reference.converged

    def test_all_converge(self, workload):
        chain, targets, q0 = workload
        results = BatchedQuickIK(chain).solve_batch(targets, q0=q0)
        assert all(r.converged for r in results)

    def test_chunking_does_not_change_results(self, workload):
        chain, targets, q0 = workload
        config = SolverConfig(max_iterations=2000, record_history=False)
        small = BatchedQuickIK(chain, config=config, chunk=7).solve_batch(
            targets, q0=q0
        )
        large = BatchedQuickIK(chain, config=config, chunk=10_000).solve_batch(
            targets, q0=q0
        )
        for a, b in zip(small, large):
            assert a.iterations == b.iterations
            assert np.allclose(a.q, b.q, atol=1e-12)

    def test_shared_q0_broadcast(self, workload):
        chain, targets, _ = workload
        shared = np.full(chain.dof, 0.3)
        results = BatchedQuickIK(chain).solve_batch(targets, q0=shared)
        assert len(results) == len(targets)

    def test_random_restarts_without_q0(self, workload):
        chain, targets, _ = workload
        results = BatchedQuickIK(chain).solve_batch(
            targets, rng=np.random.default_rng(0)
        )
        assert all(r.converged for r in results)

    def test_iteration_cap_respected(self, workload):
        chain, _, q0 = workload
        unreachable = np.tile([99.0, 0.0, 0.0], (len(q0), 1))
        config = SolverConfig(max_iterations=4, record_history=False)
        results = BatchedQuickIK(chain, config=config).solve_batch(
            unreachable, q0=q0
        )
        assert all(not r.converged and r.iterations == 4 for r in results)

    def test_invalid_inputs(self, workload):
        chain, targets, _ = workload
        with pytest.raises(ValueError):
            BatchedQuickIK(chain, speculations=0)
        with pytest.raises(ValueError):
            BatchedQuickIK(chain, chunk=0)
        with pytest.raises(ValueError):
            BatchedQuickIK(chain).solve_batch(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            BatchedQuickIK(chain).solve_batch(targets, q0=np.zeros((3, chain.dof)))

    def test_fk_accounting(self, workload):
        chain, targets, q0 = workload
        results = BatchedQuickIK(chain, speculations=16).solve_batch(
            targets, q0=q0
        )
        for result in results:
            assert result.fk_evaluations == 1 + 16 * result.iterations


class TestBatchedJacobianTranspose:
    """JT-Serial on the lock-step row engine."""

    def test_matches_scalar_exactly(self, workload):
        chain, targets, q0 = workload
        config = SolverConfig(max_iterations=5000, record_history=False)
        batched = make_batch_solver("JT-Serial", chain, config=config).solve_batch(
            targets, q0=q0
        )
        scalar = JacobianTransposeSolver(chain, config=config)
        for i, result in enumerate(batched):
            reference = scalar.solve(targets[i], q0=q0[i])
            assert result.iterations == reference.iterations
            np.testing.assert_array_equal(result.q, reference.q)
            assert result.error == reference.error

    def test_uses_classic_gain_by_default(self, workload):
        from repro.solvers.jacobian_transpose import classic_transpose_gain

        chain, _, _ = workload
        engine = make_batch_solver("JT-Serial", chain)
        assert isinstance(engine, BatchedRowSolver)
        assert engine.solver.constant_alpha == pytest.approx(
            classic_transpose_gain(chain)
        )

    def test_fixed_alpha_override(self, workload):
        chain, _, _ = workload
        engine = make_batch_solver("JT-Serial", chain, fixed_alpha=0.02)
        assert engine.solver.constant_alpha == 0.02

    def test_buss_mode_runs_lock_step(self, workload):
        chain, targets, q0 = workload
        config = SolverConfig(max_iterations=500)
        batched = make_batch_solver(
            "JT-Serial", chain, config=config, alpha_mode="buss"
        ).solve_batch(targets, q0=q0)
        scalar = JacobianTransposeSolver(chain, config=config, alpha_mode="buss")
        for i, result in enumerate(batched):
            reference = scalar.solve(targets[i], q0=q0[i])
            assert result.iterations == reference.iterations
            np.testing.assert_array_equal(result.q, reference.q)

    def test_mixed_convergence_bookkeeping(self, workload):
        """Reachable and unreachable targets in one batch keep independent
        iteration counts."""
        chain, targets, q0 = workload
        mixed = targets.copy()
        mixed[0] = [99.0, 0.0, 0.0]
        config = SolverConfig(max_iterations=50, record_history=False)
        results = make_batch_solver("JT-Serial", chain, config=config).solve_batch(
            mixed, q0=q0
        )
        assert not results[0].converged
        assert results[0].iterations == 50
