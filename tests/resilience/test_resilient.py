"""ResilientSolver tests: fallback order, accounting, API integration."""

import pickle

import numpy as np
import pytest

from repro import api
from repro.core.result import SolverConfig
from repro.execution import ExecutionOptions
from repro.kinematics.robots import paper_chain
from repro.resilience import (
    DEFAULT_FALLBACK_CHAIN,
    DivergingSolver,
    ResilienceConfig,
    ResilientSolver,
    WatchdogConfig,
    rejected_result,
)
from repro.telemetry import SummaryTracer

CHAIN = paper_chain(6)
CONFIG = SolverConfig(max_iterations=500, record_history=False)


def _reachable(seed=0):
    rng = np.random.default_rng(seed)
    return CHAIN.end_position(CHAIN.random_configuration(rng))


class TestConfig:
    def test_defaults(self):
        config = ResilienceConfig()
        assert config.fallback_chain == DEFAULT_FALLBACK_CHAIN
        assert config.reseed

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(attempts_per_solver=0)
        with pytest.raises(ValueError):
            ResilienceConfig(reach_margin=-0.1)


class TestRejectedResult:
    def test_placeholder_shape(self):
        result = rejected_result(CHAIN, [0.1, 0.2, 0.3], "x", status="timeout")
        assert not result.converged
        assert np.isnan(result.error)
        assert result.iterations == 0
        assert result.status == "timeout"
        assert result.q.shape == (CHAIN.dof,)


class TestResilientSolver:
    def test_primary_success_passthrough(self):
        solver = ResilientSolver(CHAIN, primary="JT-Speculation", config=CONFIG)
        result = solver.solve(_reachable(3), rng=np.random.default_rng(4))
        assert result.converged
        assert result.status == "converged"
        assert result.solver == "JT-Speculation+resilient"
        assert not solver.last_report  # clean solve leaves no records

    def test_failing_primary_degrades(self):
        primary = DivergingSolver(CHAIN, config=SolverConfig(max_iterations=20))
        solver = ResilientSolver(CHAIN, primary=primary, config=CONFIG)
        result = solver.solve(_reachable(5), rng=np.random.default_rng(6))
        assert result.converged
        # the primary's failed attempt is on the record
        assert solver.last_report.records[0].solver == "diverging"
        # cost accounting spans the failed attempt plus the recovery
        assert result.iterations > 20 - 1

    def test_exhausted_chain_keeps_best_failure(self):
        tiny = SolverConfig(max_iterations=1, record_history=False)
        solver = ResilientSolver(CHAIN, config=tiny)
        tracer = SummaryTracer()
        result = solver.solve(
            _reachable(7), rng=np.random.default_rng(8), tracer=tracer
        )
        assert not result.converged
        assert result.status == "max_iterations"
        assert np.all(np.isfinite(result.q))
        # one iteration per chained solver accumulated
        assert result.iterations == len(solver.solvers)
        assert tracer.counters.get("solve_failed") == 1
        assert tracer.counters.get("fallback_used") == 1
        assert len(solver.last_report) == len(solver.solvers)

    def test_exception_in_solver_is_recorded_not_raised(self):
        class Exploding:
            name = "exploding"
            chain = CHAIN
            config = CONFIG

            def solve(self, *a, **k):
                raise RuntimeError("boom")

        solver = ResilientSolver(CHAIN, primary=Exploding(), config=CONFIG)
        result = solver.solve(_reachable(9), rng=np.random.default_rng(10))
        assert result.converged  # fallback chain recovered
        kinds = [r.kind for r in solver.last_report]
        assert "exception" in kinds

    def test_guard_rejection_returns_placeholder(self):
        solver = ResilientSolver(CHAIN, config=CONFIG)
        result = solver.solve([np.nan, 0.0, 0.0])
        assert result.status == "nonfinite_target"
        result = solver.solve([99.0, 0.0, 0.0])
        assert result.status == "unreachable"

    def test_dedups_primary_from_chain(self):
        solver = ResilientSolver(CHAIN, primary="JT-Speculation", config=CONFIG)
        names = [s.name for s in solver.solvers]
        assert names == ["JT-Speculation", "JT-DLS", "J-1-SVD"]

    def test_custom_chain_and_watchdog_merge(self):
        res = ResilienceConfig(
            fallback_chain=("JT-DLS",),
            watchdog=WatchdogConfig(stall_window=50),
        )
        solver = ResilientSolver(CHAIN, config=CONFIG, resilience=res)
        assert [s.name for s in solver.solvers] == ["JT-DLS"]
        assert solver.config.watchdog is res.watchdog

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ResilientSolver(
                CHAIN, resilience=ResilienceConfig(fallback_chain=())
            )

    def test_picklable(self):
        solver = ResilientSolver(CHAIN, config=CONFIG)
        clone = pickle.loads(pickle.dumps(solver))
        assert [s.name for s in clone.solvers] == [s.name for s in solver.solvers]


class TestApiIntegration:
    def test_solve_resilience_true(self):
        result = api.solve(
            CHAIN, _reachable(11), seed=12, max_iterations=500,
            options=ExecutionOptions(resilience=True),
        )
        assert result.converged
        assert result.solver.endswith("+resilient")

    def test_solve_resilience_never_raises_on_nan(self):
        result = api.solve(
            CHAIN, [np.nan, 0.0, 0.0],
            options=ExecutionOptions(resilience=True),
        )
        assert result.status == "nonfinite_target"

    def test_plain_solve_still_raises_on_bad_shape(self):
        with pytest.raises(ValueError):
            api.solve(CHAIN, [0.1, 0.2])

    def test_restarts_and_resilience_exclusive(self):
        with pytest.raises(ValueError):
            api.solve(
                CHAIN, _reachable(), restarts=3,
                options=ExecutionOptions(resilience=True),
            )

    def test_batch_fallback_config_plumbs_through(self):
        batch = api.solve_batch(
            CHAIN,
            np.stack([_reachable(i) for i in range(3)]),
            options=ExecutionOptions(
                on_error="fallback",
                resilience=ResilienceConfig(fallback_chain=("JT-DLS",)),
            ),
            max_iterations=500,
            seed=13,
        )
        assert len(batch) == 3
        assert batch.failures is not None and not batch.failures
