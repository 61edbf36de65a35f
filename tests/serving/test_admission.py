"""Iteration-level admission: requests join a live lock-step run.

A key served in-process on a lock-step engine opens one resumable run
(:class:`~repro.solvers.batched.LockStepRun`).  Requests of that key that
arrive while it is live join it at its next iteration, and each completes
the moment its own row retires.  The contract pinned here:

* a request that joins a live run equals offline ``api.solve_batch`` of
  its target from its ``q0``, bit for bit;
* a request converged at admission completes before a slow batch-mate;
* a run never holds more than ``max_batch_size`` live rows;
* ``close(drain=False)`` fails only queued, unadmitted requests and still
  finishes the admitted ones;
* a busy run stops admitting while another key waits for the only
  dispatch loop;
* other keys keep the one-``solve_batch``-per-batch path.

The slow batch-mate is an unreachable target under ``on_error="raise"``
(no target guards), so it runs to its iteration cap while the others come
and go.  Every wait is time-bounded.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import api
from repro.execution import ExecutionOptions
from repro.kinematics.robots import named_robot
from repro.resilience.guards import GuardViolation
from repro.serving import IKServer, ServerClosed, ServerConfig, SolveRequest
from repro.solvers.batched import BatchedQuickIK
from repro.telemetry import SummaryTracer

ROBOT = "dadu-12dof"
TOLERANCE = 1e-2
#: Long enough that the slow row outlives every other request here.
CAP = 400
FAR = np.array([5.0, 5.0, 5.0])
TIMEOUT = 60


def _problems(count: int, seed: int = 0):
    chain = named_robot(ROBOT)
    rng = np.random.default_rng(seed)
    targets = np.stack([
        chain.end_position(chain.random_configuration(rng))
        for _ in range(count)
    ])
    q0 = np.stack([chain.random_configuration(rng) for _ in range(count)])
    return targets, q0


def _request(target, q0, solver="JT-Speculation", **kwargs) -> SolveRequest:
    return SolveRequest(
        ROBOT, target, solver, q0=q0, tolerance=TOLERANCE,
        max_iterations=CAP, **kwargs,
    )


def _offline(target, q0, solver="JT-Speculation"):
    return api.solve_batch(
        ROBOT, np.atleast_2d(target), solver, q0=np.atleast_2d(q0),
        tolerance=TOLERANCE, max_iterations=CAP,
    )[0]


def _assert_bit_identical(served, offline) -> None:
    assert served.solver == offline.solver
    assert served.iterations == offline.iterations
    assert served.status == offline.status
    assert served.fk_evaluations == offline.fk_evaluations
    assert np.array_equal(served.q, offline.q)
    assert served.error == offline.error


def _wait_until(predicate, timeout: float = TIMEOUT) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def _start_slow_run(srv: IKServer):
    """Submit the slow request and wait until its run has admitted it."""
    _, q0 = _problems(1, seed=99)
    slow = srv.submit(_request(FAR, q0[0]))
    _wait_until(lambda: srv.stats().requests_batched == 1)
    return slow


def _config(**kwargs) -> ServerConfig:
    kwargs.setdefault("max_wait_ms", 0.0)
    return ServerConfig(
        options=ExecutionOptions(on_error="raise"), warm_start=False, **kwargs
    )


def test_requests_join_the_live_run_and_equal_offline():
    targets, q0 = _problems(3)
    with IKServer(_config()) as srv:
        slow = _start_slow_run(srv)
        late = [srv.submit(_request(t, q)) for t, q in zip(targets, q0)]
        served = [f.result(timeout=TIMEOUT) for f in late]
        # They finished while the slow row was still iterating.
        assert not slow.done()
        slow_result = slow.result(timeout=TIMEOUT)
    assert slow_result.status == "max_iterations"
    assert slow_result.iterations == CAP
    stats = srv.stats()
    # One run carried all four requests.
    assert stats.batches == 1
    assert stats.requests_batched == stats.completed == 4
    assert stats.occupancy_peak >= 2
    for t, q, result in zip(targets, q0, served):
        _assert_bit_identical(result, _offline(t, q))


def test_request_converged_at_admission_completes_before_slow_batch_mate():
    chain = named_robot(ROBOT)
    solved = chain.random_configuration(np.random.default_rng(5))
    with IKServer(_config()) as srv:
        slow = _start_slow_run(srv)
        instant = srv.submit(_request(chain.end_position(solved), solved))
        result = instant.result(timeout=TIMEOUT)
        assert not slow.done()
    assert result.converged and result.iterations == 0
    assert srv.stats().batches == 1


def test_a_run_never_holds_more_than_max_batch_size_rows():
    targets, q0 = _problems(10, seed=1)
    tracer = SummaryTracer()
    config = ServerConfig(
        max_batch_size=3, max_wait_ms=1.0, dispatch_workers=2,
        warm_start=False,
    )
    with IKServer(config, tracer=tracer) as srv:
        futures = [srv.submit(_request(t, q)) for t, q in zip(targets, q0)]
        served = [f.result(timeout=TIMEOUT) for f in futures]
    active = [e["active"] for e in tracer.events_of("iteration")]
    assert active and max(active) <= 3
    assert srv.stats().occupancy_peak <= 3
    for t, q, result in zip(targets, q0, served):
        _assert_bit_identical(result, _offline(t, q))


def test_close_without_drain_fails_only_unadmitted_requests():
    targets, q0 = _problems(2, seed=2)
    # A full run (max_batch_size=1) and one dispatch loop: the later
    # requests stay queued behind the slow row.
    srv = IKServer(_config(max_batch_size=1)).start()
    slow = _start_slow_run(srv)
    queued = [srv.submit(_request(t, q)) for t, q in zip(targets, q0)]
    srv.close(drain=False)
    for future in queued:
        assert isinstance(future.exception(timeout=TIMEOUT), ServerClosed)
    assert slow.result(timeout=TIMEOUT).status == "max_iterations"
    stats = srv.stats()
    assert stats.completed == 1
    assert stats.requests_batched == 1


def test_busy_run_stops_admitting_while_another_key_waits():
    targets, q0 = _problems(2, seed=3)
    with IKServer(_config(dispatch_workers=1)) as srv:
        slow = _start_slow_run(srv)
        other_key = srv.submit(_request(targets[0], q0[0], solver="JT-DLS"))
        same_key = srv.submit(_request(targets[1], q0[1]))
        results = [f.result(timeout=TIMEOUT) for f in (other_key, same_key)]
        slow.result(timeout=TIMEOUT)
    # The slow run did not take its key's second request while the other
    # key waited: three runs, in arrival order of their heads.
    assert srv.stats().batches == 3
    _assert_bit_identical(results[0], _offline(targets[0], q0[0], "JT-DLS"))
    _assert_bit_identical(results[1], _offline(targets[1], q0[1]))


def test_engine_failure_fails_the_live_requests_only(monkeypatch):
    targets, q0 = _problems(4, seed=4)

    def boom(self, *args):
        raise RuntimeError("boom")

    with IKServer(_config(max_wait_ms=10_000.0, max_batch_size=2)) as srv:
        monkeypatch.setattr(BatchedQuickIK, "_advance_dense", boom)
        failing = [
            srv.submit(_request(t, q)) for t, q in zip(targets[:2], q0[:2])
        ]
        errors = [f.exception(timeout=TIMEOUT) for f in failing]
        assert all(isinstance(e, RuntimeError) for e in errors)
        monkeypatch.undo()
        # The loop survived: the next run serves the next requests.
        later = [
            srv.submit(_request(t, q)) for t, q in zip(targets[2:], q0[2:])
        ]
        assert all(f.result(timeout=TIMEOUT).converged for f in later)
    assert srv.stats().failed == 2


def test_fatal_guard_under_raise_with_one_worker_fails_its_request_only():
    targets, q0 = _problems(1, seed=5)
    config = ServerConfig(
        max_batch_size=2, max_wait_ms=10_000.0,
        options=ExecutionOptions(workers=1, on_error="raise"),
        warm_start=False,
    )
    with IKServer(config) as srv:
        bad = srv.submit(_request([np.nan, 0.0, 0.0], q0[0]))
        good = srv.submit(_request(targets[0], q0[0]))
        assert isinstance(bad.exception(timeout=TIMEOUT), GuardViolation)
        result = good.result(timeout=TIMEOUT)
    _assert_bit_identical(result, _offline(targets[0], q0[0]))
    with pytest.raises(GuardViolation):
        api.solve_batch(
            ROBOT, [[np.nan, 0.0, 0.0]], q0=q0[:1], tolerance=TOLERANCE,
            max_iterations=CAP, options=config.options,
        )


def test_other_keys_keep_one_solve_batch_per_batch(monkeypatch):
    targets, q0 = _problems(2, seed=6)
    calls = []
    original = api.solve_batch

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(api, "solve_batch", counting)
    # CCD has no lock-step engine, so its batches go through solve_batch.
    with IKServer(_config(max_batch_size=2, max_wait_ms=10_000.0)) as srv:
        futures = [
            srv.submit(_request(t, q, solver="CCD"))
            for t, q in zip(targets, q0)
        ]
        served = [f.result(timeout=TIMEOUT) for f in futures]
    assert calls == [2]
    for t, q, result in zip(targets, q0, served):
        _assert_bit_identical(result, _offline(t, q, "CCD"))
