"""Unit tests for the process-pool layer: wiring, failures, telemetry."""

import time

import numpy as np
import pytest

from repro import api
from repro.core.result import BatchResult, SolverConfig
from repro.kinematics.robots import paper_chain
from repro.parallel import (
    ParallelExecutionError,
    ShardedBatchSolver,
    default_workers,
    solve_batch_sharded,
)
from repro.solvers.registry import make_batch_solver
from repro.telemetry import MetricsRegistry, SummaryTracer

CONFIG = SolverConfig(max_iterations=200, record_history=False)


def _targets(chain, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack(
        [chain.end_position(chain.random_configuration(rng)) for _ in range(n)]
    )


class _ExplodingSolver:
    """Picklable solver stub whose scalar path always raises."""

    name = "exploding"

    def __init__(self, chain):
        self.chain = chain
        self.config = SolverConfig()

    def solve(self, target, q0=None, rng=None, tracer=None):
        raise RuntimeError("boom on purpose")


class _SleepySolver:
    """Picklable solver stub that sleeps long enough to trip timeouts."""

    name = "sleepy"

    def __init__(self, chain, naptime=5.0):
        self.chain = chain
        self.config = SolverConfig()
        self.naptime = naptime

    def solve(self, target, q0=None, rng=None, tracer=None):
        time.sleep(self.naptime)  # pragma: no cover - killed by the pool
        raise AssertionError("should have been terminated")


class TestWiring:
    def test_wrapper_exposes_engine_surface(self):
        chain = paper_chain(12)
        engine = make_batch_solver("JT-Speculation", chain, config=CONFIG)
        sharded = ShardedBatchSolver(engine, workers=2)
        assert sharded.name == engine.name
        assert sharded.chain is chain
        assert sharded.config is CONFIG

    def test_registry_workers_kwarg_wraps(self):
        chain = paper_chain(12)
        sharded = make_batch_solver(
            "JT-Serial", chain, config=CONFIG, workers=3, timeout=60.0
        )
        assert isinstance(sharded, ShardedBatchSolver)
        assert sharded.workers == 3
        assert sharded.timeout == 60.0

    def test_registry_without_workers_unchanged(self):
        chain = paper_chain(12)
        engine = make_batch_solver("JT-Serial", chain, config=CONFIG)
        assert not isinstance(engine, ShardedBatchSolver)

    def test_api_returns_batch_result(self):
        chain = paper_chain(12)
        batch = api.solve_batch(
            chain, _targets(chain, 5), workers=2, seed=1, max_iterations=200
        )
        assert isinstance(batch, BatchResult)
        assert len(batch) == 5

    def test_validation(self):
        chain = paper_chain(12)
        engine = make_batch_solver("JT-Speculation", chain, config=CONFIG)
        with pytest.raises(ValueError):
            ShardedBatchSolver(engine, workers=0)
        with pytest.raises(ValueError):
            ShardedBatchSolver(engine, workers=2, timeout=0.0)
        with pytest.raises(ValueError):
            ShardedBatchSolver(engine, workers=2).solve_batch(np.zeros((3, 2)))

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestFailureModel:
    def test_worker_exception_surfaces_structured(self):
        chain = paper_chain(12)
        with pytest.raises(ParallelExecutionError) as excinfo:
            solve_batch_sharded(
                _ExplodingSolver(chain), _targets(chain, 6), workers=2
            )
        errors = excinfo.value.shard_errors
        assert len(errors) == 2
        assert all(e.kind == "exception" for e in errors)
        assert all(e.exc_type == "RuntimeError" for e in errors)
        assert all("boom on purpose" in e.message for e in errors)
        # Shards identify their problem spans for replay/requeue.
        assert {(e.start, e.stop) for e in errors} == {(0, 3), (3, 6)}
        assert "shard 0" in str(excinfo.value)

    def test_inline_worker_exception_also_structured(self):
        chain = paper_chain(12)
        with pytest.raises(ParallelExecutionError) as excinfo:
            solve_batch_sharded(
                _ExplodingSolver(chain), _targets(chain, 4), workers=1
            )
        assert [e.kind for e in excinfo.value.shard_errors] == ["exception"]

    def test_timeout_reports_unfinished_shards(self):
        chain = paper_chain(12)
        start = time.perf_counter()
        with pytest.raises(ParallelExecutionError) as excinfo:
            solve_batch_sharded(
                _SleepySolver(chain, naptime=30.0),
                _targets(chain, 4),
                workers=2,
                timeout=1.0,
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0  # pool was reaped, not joined to completion
        errors = excinfo.value.shard_errors
        assert errors and all(e.kind == "timeout" for e in errors)


class TestTelemetryMerge:
    def test_counters_and_phases_reach_parent_tracer(self):
        chain = paper_chain(12)
        targets = _targets(chain, 6)
        engine = make_batch_solver("JT-Speculation", chain, config=CONFIG)

        reference = SummaryTracer()
        engine.solve_batch(
            targets, rng=np.random.default_rng(5), tracer=reference
        )
        sharded = SummaryTracer()
        ShardedBatchSolver(engine, workers=2).solve_batch(
            targets, rng=np.random.default_rng(5), tracer=sharded
        )
        # Work counters are exact across execution layouts; phase timings
        # are wall-clock and only required to be present.
        assert sharded.counters == reference.counters
        assert set(sharded.phase_seconds) == set(reference.phase_seconds)

    def test_merged_summary_attached_to_batch(self):
        chain = paper_chain(12)
        engine = make_batch_solver("JT-Speculation", chain, config=CONFIG)
        batch = ShardedBatchSolver(engine, workers=2).solve_batch(
            _targets(chain, 6), rng=np.random.default_rng(5),
            tracer=SummaryTracer(),
        )
        assert batch.telemetry is not None
        assert batch.telemetry["counters"]["fk_evaluations"] > 0
        # One lock-step sub-batch ran per shard.
        assert batch.telemetry["solves"] == 2

    def test_metrics_registry_sees_one_merged_solve(self):
        chain = paper_chain(12)
        engine = make_batch_solver("JT-Speculation", chain, config=CONFIG)
        registry = MetricsRegistry()
        ShardedBatchSolver(engine, workers=2).solve_batch(
            _targets(chain, 6), rng=np.random.default_rng(5), tracer=registry
        )
        report = registry.report()
        entry = report["solvers"]["JT-Speculation-batched"]
        assert entry["solves"] == 1  # the merged batch, not per shard
        assert report["counters"]["fk_evaluations"] > 0

    def test_untraced_run_attaches_no_telemetry(self):
        chain = paper_chain(12)
        engine = make_batch_solver("JT-Speculation", chain, config=CONFIG)
        batch = ShardedBatchSolver(engine, workers=2).solve_batch(
            _targets(chain, 4), rng=np.random.default_rng(5)
        )
        assert batch.telemetry is None
