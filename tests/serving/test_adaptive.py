"""SLO-aware shedding, and the one-batch-per-call dispatch unit.

The shedding tests drive a real server but inject the per-group
execution-time estimate directly, making the predicted-miss path
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kinematics.robots import named_robot
from repro.serving import IKServer, ServerConfig, SloShed, SolveRequest
from repro.serving.batcher import GroupKey, MicroBatcher, PendingEntry

KEY = GroupKey("robot-a", "JT-DLS", None, ())
OTHER = GroupKey("robot-b", "JT-DLS", None, ())


def entry(t: float, key: GroupKey = KEY) -> PendingEntry:
    return PendingEntry(
        request=None, chain=None, key=key, target=None, q0=None,
        future=None, enqueue_t=t,
    )


def feed(batcher: MicroBatcher, times, key: GroupKey = KEY) -> None:
    for t in times:
        batcher.add(entry(t, key))


class TestPopOne:
    def test_one_batch_per_call_oldest_group_first(self):
        b = MicroBatcher(max_batch_size=2)
        feed(b, [1.0], key=OTHER)
        feed(b, [0.0, 0.5], key=KEY)
        first = b.pop_one()
        second = b.pop_one()
        assert first.key == KEY and len(first) == 2
        assert second.key == OTHER and len(second) == 1
        assert b.pop_one() is None


class TestSloShedding:
    ROBOT = "dadu-12dof"

    def _target(self, seed: int = 0) -> np.ndarray:
        chain = named_robot(self.ROBOT)
        rng = np.random.default_rng(seed)
        return chain.end_position(chain.random_configuration(rng))

    def _prime(self, srv: IKServer) -> None:
        """One probe solve so the group has an execution-time estimate."""
        srv.solve(
            SolveRequest(self.ROBOT, self._target(), max_iterations=300),
            timeout=60,
        )
        assert srv._exec_ewma  # the probe's group is now known

    def test_predicted_miss_is_shed_not_solved_late(self):
        with IKServer(ServerConfig(warm_start=False)) as srv:
            self._prime(srv)
            # Inject a pathological estimate: every future batch of this
            # group "will take" 100s, so a 5s budget is predictably dead.
            for key in srv._exec_ewma:
                srv._exec_ewma[key] = 100.0
            future = srv.submit(SolveRequest(
                self.ROBOT, self._target(1), max_iterations=300,
                seed=1, deadline_s=5.0,
            ))
            with pytest.raises(SloShed) as excinfo:
                future.result(timeout=60)
        assert excinfo.value.record.kind == "slo_shed"
        assert excinfo.value.record.stage == "serving"
        stats = srv.stats()
        assert stats.rejected_shed == 1
        # Shed is distinct from the queue-expiry path.
        assert stats.expired_in_queue == 0

    def test_requests_without_deadline_never_shed(self):
        with IKServer(ServerConfig(warm_start=False)) as srv:
            self._prime(srv)
            for key in srv._exec_ewma:
                srv._exec_ewma[key] = 100.0
            result = srv.solve(
                SolveRequest(self.ROBOT, self._target(2), seed=2,
                             max_iterations=300),
                timeout=60,
            )
        assert result.dof == 12
        assert srv.stats().rejected_shed == 0

    def test_shedding_disabled_solves_despite_prediction(self):
        with IKServer(ServerConfig(warm_start=False, slo_shedding=False)) as srv:
            self._prime(srv)
            for key in srv._exec_ewma:
                srv._exec_ewma[key] = 100.0
            result = srv.solve(
                SolveRequest(self.ROBOT, self._target(3), seed=3,
                             max_iterations=300, deadline_s=30.0),
                timeout=60,
            )
        assert result.dof == 12
        assert srv.stats().rejected_shed == 0

    def test_shed_counter_flows_through_tracer(self):
        from repro.telemetry import SummaryTracer

        tracer = SummaryTracer()
        with IKServer(ServerConfig(warm_start=False),
                      tracer=tracer) as srv:
            self._prime(srv)
            for key in srv._exec_ewma:
                srv._exec_ewma[key] = 100.0
            future = srv.submit(SolveRequest(
                self.ROBOT, self._target(4), max_iterations=300,
                seed=4, deadline_s=5.0,
            ))
            with pytest.raises(SloShed):
                future.result(timeout=60)
        assert tracer.counters["serve_shed"] == 1
