"""IKServer behaviour: futures, backpressure, deadlines, shutdown, telemetry.

Every queued request is due at once, so tests that need requests to share
a batch, or to stay queued, submit them while the ``hold_dispatch``
fixture keeps the dispatch loops off the queues.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import api
from repro.core.result import IKResult
from repro.execution import ExecutionOptions
from repro.kinematics.robots import named_robot
from repro.serving import (
    DeadlineExceeded,
    IKServer,
    Overloaded,
    ServerClosed,
    ServerConfig,
    SolveRequest,
)
from repro.telemetry import SummaryTracer

ROBOT = "dadu-12dof"
MAX_ITERATIONS = 300


def reachable_targets(robot: str, count: int, seed: int = 0) -> np.ndarray:
    chain = named_robot(robot)
    rng = np.random.default_rng(seed)
    return np.stack([
        chain.end_position(chain.random_configuration(rng))
        for _ in range(count)
    ])


def request(target, seed=0, **kwargs) -> SolveRequest:
    kwargs.setdefault("max_iterations", MAX_ITERATIONS)
    return SolveRequest(ROBOT, target, seed=seed, **kwargs)


class TestRoundTrip:
    def test_submit_returns_future_with_ikresult(self):
        (target,) = reachable_targets(ROBOT, 1)
        with IKServer(ServerConfig()) as srv:
            result = srv.submit(request(target)).result(timeout=60)
        assert isinstance(result, IKResult)
        assert result.converged
        assert result.dof == 12

    def test_full_group_coalesces_into_one_batch(self, hold_dispatch):
        targets = reachable_targets(ROBOT, 4)
        # The 4 submissions queue while the loop is held, so the loop
        # takes all of them at once.
        config = ServerConfig(max_batch_size=4)
        with IKServer(config) as srv:
            with hold_dispatch(srv):
                futures = [
                    srv.submit(request(t, seed=i))
                    for i, t in enumerate(targets)
                ]
            results = [f.result(timeout=60) for f in futures]
        assert all(r.converged for r in results)
        stats = srv.stats()
        assert stats.submitted == stats.completed == 4
        assert stats.batches == 1
        assert stats.occupancy_peak == 4
        assert stats.mean_occupancy == pytest.approx(4.0)
        assert stats.queue_depth_peak >= 1

    def test_incompatible_requests_never_share_a_batch(self, hold_dispatch):
        targets = reachable_targets(ROBOT, 2)
        other = reachable_targets("planar-8dof", 2, seed=1)
        config = ServerConfig(max_batch_size=32)
        with IKServer(config) as srv:
            with hold_dispatch(srv):
                futures = [srv.submit(request(t, seed=i))
                           for i, t in enumerate(targets)]
                futures += [
                    srv.submit(SolveRequest("planar-8dof", t, seed=i,
                                            max_iterations=MAX_ITERATIONS))
                    for i, t in enumerate(other)
                ]
        dofs = [f.result(timeout=60).dof for f in futures]
        assert dofs == [12, 12, 8, 8]
        stats = srv.stats()
        assert stats.batches == 2
        assert stats.requests_batched == 4

    def test_solve_sugar_blocks_for_result(self):
        (target,) = reachable_targets(ROBOT, 1)
        with IKServer(ServerConfig()) as srv:
            result = srv.solve(request(target), timeout=60)
        assert result.converged

    def test_explicit_q0_is_honoured(self):
        (target,) = reachable_targets(ROBOT, 1)
        chain = named_robot(ROBOT)
        q0 = chain.random_configuration(np.random.default_rng(99))
        with IKServer(ServerConfig()) as srv:
            served = srv.solve(request(target, q0=q0), timeout=60)
        direct = api.solve(ROBOT, target, q0=q0,
                           max_iterations=MAX_ITERATIONS)
        assert served.iterations == direct.iterations
        np.testing.assert_allclose(served.q, direct.q, atol=1e-9, rtol=0.0)


class TestRejections:
    def test_overloaded_when_queue_full(self, hold_dispatch):
        targets = reachable_targets(ROBOT, 3)
        config = ServerConfig(max_batch_size=100, max_queue=2)
        srv = IKServer(config)
        try:
            with hold_dispatch(srv):
                futures = [srv.submit(request(t, seed=i))
                           for i, t in enumerate(targets[:2])]
                with pytest.raises(Overloaded) as excinfo:
                    srv.submit(request(targets[2], seed=2))
                record = excinfo.value.record
                assert record.stage == "serving"
                assert record.kind == "overloaded"
                assert srv.stats().rejected_overloaded == 1
        finally:
            srv.close(drain=True)
        # Backpressure rejected the overflow; the admitted requests survive.
        assert all(f.result(timeout=60).converged for f in futures)

    def test_deadline_rejected_at_admission(self):
        (target,) = reachable_targets(ROBOT, 1)
        with IKServer(ServerConfig()) as srv:
            with pytest.raises(DeadlineExceeded) as excinfo:
                srv.submit(request(target, deadline_s=0.0))
            assert excinfo.value.record.kind == "deadline_exceeded"
            assert srv.stats().rejected_deadline == 1

    def test_deadline_expires_in_queue(self, hold_dispatch):
        (target,) = reachable_targets(ROBOT, 1)
        # The loop is held until long after the 1 ms budget expired, so
        # the entry is dead on dispatch.
        config = ServerConfig(max_batch_size=100)
        with IKServer(config) as srv:
            with hold_dispatch(srv):
                future = srv.submit(request(target, deadline_s=0.001))
                time.sleep(0.05)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=60)
        assert srv.stats().expired_in_queue == 1

    def test_submit_after_close_raises_server_closed(self):
        srv = IKServer(ServerConfig())
        srv.close()
        (target,) = reachable_targets(ROBOT, 1)
        with pytest.raises(ServerClosed):
            srv.submit(request(target))

    def test_close_without_drain_fails_pending_futures(self, hold_dispatch):
        (target,) = reachable_targets(ROBOT, 1)
        srv = IKServer(ServerConfig(max_batch_size=100)).start()
        with hold_dispatch(srv):
            future = srv.submit(request(target))
            srv.close(drain=False)
        with pytest.raises(ServerClosed):
            future.result(timeout=60)


class TestErrorSemantics:
    def test_on_error_skip_degrades_bad_request_only(self, hold_dispatch):
        (good,) = reachable_targets(ROBOT, 1)
        config = ServerConfig(
            max_batch_size=2, options=ExecutionOptions(on_error="skip"),
        )
        with IKServer(config) as srv:
            with hold_dispatch(srv):
                bad_future = srv.submit(request([np.nan, 0.0, 0.0]))
                good_future = srv.submit(request(good, seed=1))
            bad, ok = bad_future.result(timeout=60), good_future.result(timeout=60)
        assert not bad.converged
        assert bad.status == "nonfinite_target"
        assert ok.converged

    def test_on_error_raise_fails_the_whole_batch(self, hold_dispatch):
        targets = reachable_targets(ROBOT, 2)
        config = ServerConfig(
            max_batch_size=2, options=ExecutionOptions(on_error="raise"),
        )
        with IKServer(config) as srv:
            with hold_dispatch(srv):
                futures = [
                    srv.submit(request(t, seed=i,
                                       options={"bogus_option": 1}))
                    for i, t in enumerate(targets)
                ]
            errors = [f.exception(timeout=60) for f in futures]
        assert all(isinstance(e, TypeError) for e in errors)
        assert srv.stats().failed == 2


class TestWarmStart:
    def test_repeat_target_converges_instantly(self):
        (target,) = reachable_targets(ROBOT, 1)
        config = ServerConfig(warm_start=True)
        with IKServer(config) as srv:
            cold = srv.solve(request(target), timeout=60)
            warm = srv.solve(request(target, seed=1), timeout=60)
        assert cold.converged and warm.converged
        # q0 is the cached solution of the identical target: already within
        # tolerance, so the driver exits before iterating.
        assert warm.iterations == 0
        stats = srv.stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.cache_hit_rate == pytest.approx(0.5)

    def test_request_overrides_server_policy(self):
        (target,) = reachable_targets(ROBOT, 1)
        config = ServerConfig(warm_start=True)
        with IKServer(config) as srv:
            srv.solve(request(target), timeout=60)
            opted_out = srv.solve(
                request(target, seed=0, warm_start=False), timeout=60
            )
        direct = api.solve(ROBOT, target, seed=0,
                           max_iterations=MAX_ITERATIONS)
        # warm_start=False restored the seeded draw, so the served result
        # matches the offline solve.
        assert opted_out.iterations == direct.iterations

    def test_cache_disabled_when_capacity_zero(self):
        (target,) = reachable_targets(ROBOT, 1)
        config = ServerConfig(warm_start=True, seed_cache_capacity=0)
        with IKServer(config) as srv:
            srv.solve(request(target), timeout=60)
            srv.solve(request(target, seed=1), timeout=60)
        stats = srv.stats()
        assert stats.cache_hits == 0 and stats.cache_misses == 0


class TestTelemetry:
    def test_counters_and_phases_flow_through_tracer(self, hold_dispatch):
        targets = reachable_targets(ROBOT, 3)
        tracer = SummaryTracer()
        config = ServerConfig(max_batch_size=3)
        with IKServer(config, tracer=tracer) as srv:
            with hold_dispatch(srv):
                futures = [srv.submit(request(t, seed=i))
                           for i, t in enumerate(targets)]
            [f.result(timeout=60) for f in futures]
        assert tracer.counters["serve_requests"] == 3
        assert tracer.counters["serve_batches"] == 1
        assert tracer.phase_seconds["serve_coalesce"] >= 0.0
        assert tracer.phase_seconds["serve_execute"] > 0.0
        # The underlying solves traced through the same sink.
        assert tracer.counters["fk_evaluations"] > 0

    def test_rejections_count(self):
        (target,) = reachable_targets(ROBOT, 1)
        tracer = SummaryTracer()
        with IKServer(ServerConfig(), tracer=tracer) as srv:
            with pytest.raises(DeadlineExceeded):
                srv.submit(request(target, deadline_s=-1.0))
        assert tracer.counters["serve_deadline_expired"] == 1


class TestFacade:
    def test_api_serve_context_manager(self):
        (target,) = reachable_targets(ROBOT, 1)
        with api.serve(max_batch_size=8) as srv:
            assert isinstance(srv, IKServer)
            result = srv.solve(request(target), timeout=60)
        assert result.converged

    def test_api_serve_rejects_config_plus_overrides(self):
        with pytest.raises(ValueError, match="not both"):
            api.serve(ServerConfig(), max_batch_size=8)

    def test_api_serve_start_false_defers_worker(self):
        srv = api.serve(start=False)
        try:
            assert srv._threads == []
            (target,) = reachable_targets(ROBOT, 1)
            # submit auto-starts the loops.
            assert srv.solve(request(target), timeout=60).converged
            assert len(srv._threads) == srv.config.dispatch_workers
        finally:
            srv.close()

    def test_repro_top_level_export(self):
        import repro

        assert repro.serve is api.serve


class TestConfigValidation:
    #: Each entry builds its settings inside the check, since the execution
    #: policy validates itself when built.
    BAD_CONFIGS = [
        lambda: {"max_batch_size": 0},
        lambda: {"warm_start_max_distance": -1.0},
        lambda: {"max_queue": 0},
        lambda: {"options": ExecutionOptions(workers=0)},
        lambda: {"dispatch_workers": 0},
        lambda: {"options": ExecutionOptions(on_error="explode")},
        lambda: {"seed_cache_capacity": -1},
        lambda: {"seed_k": 0},
        lambda: {"seed_limit_penalty": -0.1},
    ]

    @pytest.mark.parametrize(
        "kwargs", BAD_CONFIGS,
        ids=[f"kwargs{i}" for i in range(len(BAD_CONFIGS))],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs())

    def test_serving_defaults(self):
        # Defaults: warm-start on, predictive shedding on, one dispatch
        # loop.
        config = ServerConfig()
        assert config.warm_start is True
        assert config.slo_shedding is True
        assert config.dispatch_workers == 1

    @pytest.mark.parametrize("field", ["max_wait_ms", "adaptive"])
    def test_flush_trigger_fields_are_gone(self, field):
        # Every queued request is due at once; no setting holds it back.
        value = {"max_wait_ms": 1.0, "adaptive": False}[field]
        with pytest.raises(TypeError):
            ServerConfig(**{field: value})
        with pytest.raises(TypeError):
            api.serve(start=False, **{field: value})
