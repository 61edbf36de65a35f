"""Tests for the evaluation suite."""

import numpy as np
import pytest

from repro.core.quick_ik import QuickIKSolver
from repro.core.result import IKResult, SolverConfig
from repro.workloads.suite import (
    EvaluationSuite,
    aggregate_results,
    default_target_count,
)


class TestDefaults:
    def test_paper_dofs_default(self):
        assert EvaluationSuite().dofs == (12, 25, 50, 75, 100)

    def test_env_var_overrides_target_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_TARGETS", "7")
        assert default_target_count() == 7
        assert EvaluationSuite().targets_per_dof == 7

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TARGETS", "0")
        with pytest.raises(ValueError):
            default_target_count()

    def test_explicit_count_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TARGETS", "7")
        assert EvaluationSuite(targets_per_dof=3).targets_per_dof == 3

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EvaluationSuite(dofs=())
        with pytest.raises(ValueError):
            EvaluationSuite(targets_per_dof=0)

    @pytest.mark.parametrize(
        "fields",
        [{"on_error": "skip"}, {"on_error": "fallback"}, {"resilience": True}],
        ids=["skip", "fallback", "resilience"],
    )
    def test_failure_policy_rejected_not_ignored(self, fields):
        """The suite solves every target under the defaults, so options it
        would not apply raise instead of being dropped silently."""
        from repro.execution import ExecutionOptions

        with pytest.raises(ValueError, match="on_error / resilience"):
            EvaluationSuite(
                dofs=(12,), targets_per_dof=2,
                options=ExecutionOptions(**fields),
            )


class TestDeterminism:
    def test_targets_deterministic(self):
        a = EvaluationSuite(dofs=(12,), targets_per_dof=4)
        b = EvaluationSuite(dofs=(12,), targets_per_dof=4)
        assert np.array_equal(a.targets(12), b.targets(12))

    def test_targets_cached(self):
        suite = EvaluationSuite(dofs=(12,), targets_per_dof=4)
        assert suite.targets(12) is suite.targets(12)

    def test_chains_cached(self):
        suite = EvaluationSuite(dofs=(12,), targets_per_dof=4)
        assert suite.chain(12) is suite.chain(12)

    def test_different_seed_different_targets(self):
        a = EvaluationSuite(dofs=(12,), targets_per_dof=4, seed=1)
        b = EvaluationSuite(dofs=(12,), targets_per_dof=4, seed=2)
        assert not np.array_equal(a.targets(12), b.targets(12))

    def test_run_solver_deterministic(self):
        def run():
            suite = EvaluationSuite(dofs=(12,), targets_per_dof=4)
            solver = QuickIKSolver(
                suite.chain(12), config=SolverConfig(max_iterations=2000)
            )
            return suite.run_solver(solver, 12)

        assert run().mean_iterations == run().mean_iterations


class TestRunSolver:
    def test_rejects_foreign_chain(self):
        from repro.kinematics.robots import paper_chain

        suite = EvaluationSuite(dofs=(12,), targets_per_dof=2)
        foreign = QuickIKSolver(paper_chain(12))  # same geometry, not the cached object
        with pytest.raises(ValueError):
            suite.run_solver(foreign, 12)

    def test_stats_fields(self):
        suite = EvaluationSuite(dofs=(12,), targets_per_dof=3)
        solver = QuickIKSolver(
            suite.chain(12), config=SolverConfig(max_iterations=2000)
        )
        stats = suite.run_solver(solver, 12)
        assert stats.n_targets == 3
        assert stats.solver == "JT-Speculation"
        assert stats.dof == 12
        assert stats.speculations == 64
        assert 0.0 <= stats.success_rate <= 1.0
        assert stats.iterations.shape == (3,)
        assert stats.mean_work == pytest.approx(64 * stats.mean_iterations)

    def test_run_results_returns_raw(self):
        suite = EvaluationSuite(dofs=(12,), targets_per_dof=2)
        solver = QuickIKSolver(
            suite.chain(12), config=SolverConfig(max_iterations=2000)
        )
        results = suite.run_results(solver, 12)
        assert len(results) == 2
        assert all(hasattr(r, "iterations") for r in results)


class TestAggregate:
    def _result(self, iterations, converged=True):
        return IKResult(
            q=np.zeros(3),
            converged=converged,
            iterations=iterations,
            error=1e-3,
            target=np.zeros(3),
            solver="x",
            dof=3,
            speculations=4,
            fk_evaluations=iterations * 4,
        )

    def test_aggregate_statistics(self):
        stats = aggregate_results([self._result(10), self._result(30)])
        assert stats.mean_iterations == 20.0
        assert stats.median_iterations == 20.0
        assert stats.max_iterations == 30
        assert stats.mean_work == 80.0
        assert stats.success_rate == 1.0

    def test_aggregate_failure_rate(self):
        stats = aggregate_results(
            [self._result(10), self._result(99, converged=False)]
        )
        assert stats.success_rate == 0.5

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results([])

    def test_row_keys(self):
        row = aggregate_results([self._result(10)]).row()
        assert {"solver", "dof", "mean_iterations", "success_rate"} <= set(row)
