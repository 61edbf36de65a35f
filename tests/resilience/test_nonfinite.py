"""Regression tests: non-finite updates must exit typed, not burn the budget.

Before the guard, a NaN Jacobian propagated NaN into ``q``; NaN error
comparisons are always False, so the scalar driver looped to the full
iteration cap computing garbage, and the lock-step engines silently
deactivated the row (dropping it from ``active`` with no status at all).
"""

import numpy as np

from repro.core.result import SolverConfig
from repro.kinematics.robots import paper_chain
from repro.resilience import NaNJacobianChain
from repro.solvers.jacobian_transpose import JacobianTransposeSolver
from repro.solvers.registry import make_batch_solver
from repro.telemetry import SummaryTracer

CAP = 500


def _target(chain, seed=0):
    rng = np.random.default_rng(seed)
    return chain.end_position(chain.random_configuration(rng))


class TestScalarDriver:
    def test_nan_jacobian_exits_early_with_finite_state(self):
        chain = NaNJacobianChain(paper_chain(6), after_calls=3)
        solver = JacobianTransposeSolver(
            chain, config=SolverConfig(max_iterations=CAP)
        )
        result = solver.solve(
            _target(paper_chain(6)), rng=np.random.default_rng(1)
        )
        assert result.status == "nonfinite"
        assert not result.converged
        assert result.iterations < CAP  # the cap is NOT burned
        # the driver rewinds to the last finite state
        assert np.all(np.isfinite(result.q))
        assert np.isfinite(result.error)

    def test_nonfinite_exit_counter(self):
        chain = NaNJacobianChain(paper_chain(6), after_calls=0)
        solver = JacobianTransposeSolver(
            chain, config=SolverConfig(max_iterations=CAP)
        )
        tracer = SummaryTracer()
        solver.solve(
            _target(paper_chain(6)), rng=np.random.default_rng(1), tracer=tracer
        )
        assert tracer.counters.get("nonfinite_exits") == 1


class TestLockStepEngine:
    def test_nan_jacobian_rows_exit_typed(self):
        base = paper_chain(6)
        chain = NaNJacobianChain(base, after_calls=2)
        engine = make_batch_solver(
            "JT-Serial", chain, config=SolverConfig(max_iterations=CAP)
        )
        targets = np.stack([_target(base, s) for s in range(3)])
        tracer = SummaryTracer()
        batch = engine.solve_batch(
            targets, rng=np.random.default_rng(2), tracer=tracer
        )
        assert len(batch) == 3
        statuses = {r.status for r in batch.results}
        # every row either converged before the poison or exited typed
        assert statuses <= {"converged", "nonfinite"}
        assert "nonfinite" in statuses
        for r in batch.results:
            if r.status == "nonfinite":
                assert not r.converged
                assert r.iterations < CAP
                # As the scalar driver: the row keeps its last finite state.
                assert np.all(np.isfinite(r.q))
                assert np.isfinite(r.error)
        assert tracer.counters.get("nonfinite_exits", 0) >= 1

    def test_healthy_batch_statuses(self):
        base = paper_chain(6)
        engine = make_batch_solver(
            "JT-Serial", base, config=SolverConfig(max_iterations=2000)
        )
        targets = np.stack([_target(base, s) for s in range(3)])
        batch = engine.solve_batch(targets, rng=np.random.default_rng(2))
        for r in batch.results:
            assert r.status in ("converged", "max_iterations")
            assert r.status == ("converged" if r.converged else "max_iterations")
