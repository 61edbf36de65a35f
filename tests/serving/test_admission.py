"""Iteration-level admission: requests join a live lock-step run.

A key served in-process on a lock-step engine opens one resumable run
(:class:`~repro.solvers.batched.LockStepRun`).  Requests of that key that
arrive while it is live join it at its next iteration, and each completes
the moment its own row retires.  The contract pinned here:

* a request that joins a live run equals offline ``api.solve_batch`` of
  its target from its ``q0``, bit for bit;
* a run opens with whatever is queued when a dispatch loop is free;
* a request converged at admission completes before a slow batch-mate,
  and costs the run no extra prefix-frame pass;
* a run completes its retired rows' futures before it takes the next
  wave, so a request submitted on its predecessor's completion joins at
  that boundary and a chained stream keeps one run open;
* a run never holds more than ``max_batch_size`` live rows;
* a ``timeout`` with ``workers`` unset or 1 keeps a key on admission;
* ``close(drain=False)`` fails only queued, unadmitted requests and still
  finishes the admitted ones;
* a busy run stops admitting while another key waits for the only
  dispatch loop;
* other keys keep the one-``solve_batch``-per-batch path;
* a target the guards reject under ``on_error="skip"`` completes with its
  placeholder and leaves the key's SLO estimate alone.
* a run takes its chain's seed-cache fingerprint once, when it opens, and
  files its results under that geometry: a chain mutated in place mid-run
  never warm-starts a later request from them.

The slow batch-mate is an unreachable target under ``on_error="raise"``
(no target guards), so it runs to its iteration cap while the others come
and go.  Every wait is time-bounded.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.execution import ExecutionOptions
from repro.kinematics.chain import KinematicChain
from repro.kinematics.robots import named_robot
from repro.resilience.guards import GuardViolation
from repro.serving import IKServer, ServerClosed, ServerConfig, SolveRequest
from repro.serving import server as server_module
from repro.solvers.batched import BatchedQuickIK, LockStepRun
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


@pytest.mark.parametrize("queued", [1, 3])
def test_a_run_opens_with_what_is_queued_when_a_loop_is_free(
    queued, hold_dispatch
):
    targets, q0 = _problems(queued, seed=8)
    tracer = SummaryTracer()
    with IKServer(_config(), tracer=tracer) as srv:
        with hold_dispatch(srv):
            futures = [srv.submit(_request(t, q)) for t, q in zip(targets, q0)]
        served = [f.result(timeout=TIMEOUT) for f in futures]
    # Nothing waited to fill the run: its first wave is the whole queue,
    # a lone request included.
    (start,) = tracer.events_of("solve_start")
    assert start["batch"] == queued
    assert srv.stats().batches == 1
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


def test_a_joiner_retired_at_admission_adds_no_frame_pass(monkeypatch):
    """The live rows step in the iteration where a joiner retired at
    admission, so the next joiner's admission pass is that of the next
    step: one ``fk_jacobian_batch`` call per lock-step iteration."""
    chain = named_robot(ROBOT)
    solved = chain.random_configuration(np.random.default_rng(5))
    targets, q0 = _problems(1, seed=9)
    passes, runs, follower = [], set(), []
    fk_jacobian_batch, admit = KinematicChain.fk_jacobian_batch, LockStepRun.admit

    def counting(self, qs):
        if threading.current_thread().name.startswith("ik-server"):
            passes.append(len(qs))
        return fk_jacobian_batch(self, qs)

    def admitting(self, *args):
        runs.add(self)
        finished = admit(self, *args)
        if finished and not follower:
            # The next request is queued before the run's next boundary.
            follower.append(srv.submit(_request(targets[0], q0[0])))
        return finished

    monkeypatch.setattr(KinematicChain, "fk_jacobian_batch", counting)
    monkeypatch.setattr(LockStepRun, "admit", admitting)
    with IKServer(_config()) as srv:
        slow = _start_slow_run(srv)
        instant = srv.submit(_request(chain.end_position(solved), solved))
        assert instant.result(timeout=TIMEOUT).iterations == 0
        result = follower[0].result(timeout=TIMEOUT)
        assert slow.result(timeout=TIMEOUT).status == "max_iterations"
    (run,) = runs
    assert len(passes) == run.steps
    monkeypatch.undo()
    _assert_bit_identical(result, _offline(targets[0], q0[0]))


def test_a_stream_chained_on_completion_stays_in_one_run(
    monkeypatch, hold_dispatch
):
    """Each request is submitted from its predecessor's done-callback,
    which runs in the dispatch thread while the run completes that
    future.  The run takes its next wave only after that, so every
    request joins at the boundary where its predecessor retired, and the
    stream never leaves the run without a row to step."""
    count = 5
    targets, q0 = _problems(count, seed=13)
    requests = [_request(t, q) for t, q in zip(targets, q0)]
    admitted = []  # (the run's steps at admission, request)
    admit = LockStepRun.admit

    def recording(self, targets, q0, tags):
        tags = list(tags)
        admitted.extend((self.steps, entry.request) for entry in tags)
        return admit(self, targets, q0, tags)

    monkeypatch.setattr(LockStepRun, "admit", recording)
    futures = []

    def submit(i):
        future = srv.submit(requests[i])
        futures.append(future)
        if i + 1 < count:
            future.add_done_callback(lambda _f: submit(i + 1))

    with IKServer(_config()) as srv:
        with hold_dispatch(srv):
            submit(0)
        _wait_until(lambda: len(futures) == count)
        served = [f.result(timeout=TIMEOUT) for f in futures]
    monkeypatch.undo()
    stats = srv.stats()
    assert stats.batches == 1
    assert stats.requests_batched == stats.completed == count
    # Request i + 1 joined at the step where request i retired.
    retired_at = np.cumsum([0] + [r.iterations for r in served[:-1]])
    assert [steps for steps, _ in admitted] == retired_at.tolist()
    assert all(a is b for (_, a), b in zip(admitted, requests))
    for t, q, result in zip(targets, q0, served):
        _assert_bit_identical(result, _offline(t, q))


def test_a_live_run_adds_its_time_to_execute_s_as_it_goes(hold_dispatch):
    """A run adds the time since its last iteration boundary to
    ``execute_s`` and the ``serve_execute`` phase at every boundary, not
    only when it ends.  A stream chained on completion keeps one run
    open; each request's done-callback runs inside it and reads a larger
    ``execute_s`` than the last, and the run's end adds the rest."""
    count = 4
    targets, q0 = _problems(count, seed=14)
    requests = [_request(t, q) for t, q in zip(targets, q0)]
    seen = []  # execute_s as each request completed, the run still live
    tracer = SummaryTracer()

    def submit(i):
        def done(_future):
            seen.append(srv.stats().execute_s)
            if i + 1 < count:
                submit(i + 1)

        srv.submit(requests[i]).add_done_callback(done)

    with IKServer(_config(), tracer=tracer) as srv:
        with hold_dispatch(srv):
            submit(0)
        _wait_until(lambda: len(seen) == count)
    stats = srv.stats()
    assert stats.batches == 1
    assert stats.completed == count
    assert 0.0 < seen[0] < seen[1] < seen[2] < seen[3] < stats.execute_s
    assert tracer.phase_seconds["serve_execute"] == pytest.approx(
        stats.execute_s
    )


def test_a_timeout_with_one_worker_keeps_admission():
    """With ``workers`` unset or 1 a batch runs inline, where a timeout
    bounds nothing, so the key joins requests into one live run."""
    targets, q0 = _problems(3, seed=10)
    options = ExecutionOptions(workers=1, timeout=30.0, on_error="raise")
    with IKServer(ServerConfig(options=options, warm_start=False)) as srv:
        slow = _start_slow_run(srv)
        late = [srv.submit(_request(t, q)) for t, q in zip(targets, q0)]
        served = [f.result(timeout=TIMEOUT) for f in late]
        assert not slow.done()
        slow.result(timeout=TIMEOUT)
    assert srv.stats().batches == 1
    for t, q, result in zip(targets, q0, served):
        offline = api.solve_batch(
            ROBOT, np.atleast_2d(t), q0=np.atleast_2d(q), tolerance=TOLERANCE,
            max_iterations=CAP, options=options,
        )[0]
        _assert_bit_identical(result, offline)


def test_a_run_never_holds_more_than_max_batch_size_rows():
    targets, q0 = _problems(10, seed=1)
    tracer = SummaryTracer()
    config = ServerConfig(
        max_batch_size=3, dispatch_workers=2, warm_start=False,
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


def test_engine_failure_fails_the_live_requests_only(
    monkeypatch, hold_dispatch
):
    targets, q0 = _problems(4, seed=4)

    def boom(self, *args):
        raise RuntimeError("boom")

    with IKServer(_config(max_batch_size=2)) as srv:
        monkeypatch.setattr(BatchedQuickIK, "_advance_dense", boom)
        with hold_dispatch(srv):
            failing = [
                srv.submit(_request(t, q))
                for t, q in zip(targets[:2], q0[:2])
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


def test_fatal_guard_under_raise_with_one_worker_fails_its_request_only(
    hold_dispatch,
):
    targets, q0 = _problems(1, seed=5)
    config = ServerConfig(
        max_batch_size=2,
        options=ExecutionOptions(workers=1, on_error="raise"),
        warm_start=False,
    )
    with IKServer(config) as srv:
        with hold_dispatch(srv):
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


def test_other_keys_keep_one_solve_batch_per_batch(monkeypatch, hold_dispatch):
    targets, q0 = _problems(2, seed=6)
    calls = []
    original = api.solve_batch

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(api, "solve_batch", counting)
    # CCD has no lock-step engine, so its batches go through solve_batch.
    with IKServer(_config(max_batch_size=2)) as srv:
        with hold_dispatch(srv):
            futures = [
                srv.submit(_request(t, q, solver="CCD"))
                for t, q in zip(targets, q0)
            ]
        served = [f.result(timeout=TIMEOUT) for f in futures]
    assert calls == [2]
    for t, q, result in zip(targets, q0, served):
        _assert_bit_identical(result, _offline(t, q, "CCD"))


def test_guard_placeholders_stay_out_of_the_slo_estimate():
    """Under ``on_error="skip"`` an unreachable target completes with a
    placeholder that never ran (``wall_time`` 0.0).  Folding that into the
    key's solve-time estimate would cut it by 0.7 per bad target and switch
    SLO shedding off for the real requests behind them."""
    targets, q0 = _problems(1, seed=7)
    config = ServerConfig(
        options=ExecutionOptions(on_error="skip"), warm_start=False,
    )
    with IKServer(config) as srv:
        assert srv.submit(_request(targets[0], q0[0])).result(
            timeout=TIMEOUT
        ).converged
        with srv._cond:  # held while _finish folds the estimate in
            (estimate,) = srv._exec_ewma.values()
        assert estimate > 0.0
        for _ in range(5):
            result = srv.submit(_request(FAR, q0[0])).result(timeout=TIMEOUT)
            assert result.status == "unreachable"
        assert list(srv._exec_ewma.values()) == [estimate]


def _counting_fingerprints(monkeypatch) -> list:
    """The chains the server fingerprints (seed-cache lookups hash in
    :mod:`repro.serving.seeds` and are not counted)."""
    digested = []
    real = server_module.chain_fingerprint

    def counting(chain):
        digested.append(chain)
        return real(chain)

    monkeypatch.setattr(server_module, "chain_fingerprint", counting)
    return digested


def test_a_stream_is_fingerprinted_once_per_run_not_per_tick(monkeypatch):
    """A stream of requests, each submitted when the last completes, joins
    one live run: the run hashes its chain once, and every converged tick
    is filed under that digest, where the live chain's lookup finds it."""
    digested = _counting_fingerprints(monkeypatch)
    targets, q0 = _problems(5, seed=11)
    with IKServer(ServerConfig(options=ExecutionOptions(on_error="raise"))) as srv:
        slow = _start_slow_run(srv)
        for t, q in zip(targets, q0):
            assert srv.submit(_request(t, q)).result(timeout=TIMEOUT).converged
        assert not slow.done()
        assert slow.result(timeout=TIMEOUT).status == "max_iterations"
        assert srv._seed_cache.stats.records == len(targets)
        assert srv.warm_seed(ROBOT, targets[-1]) is not None
    assert srv.stats().batches == 1
    assert len(digested) == 1


def test_a_chain_mutated_mid_run_never_warm_starts_from_that_run(
    monkeypatch,
):
    """The run files its results under the geometry it opened with.  A
    chain lengthened in place mid-run hashes differently, so a later
    request on it misses the cache and starts cold; restoring the
    geometry finds the record again."""
    chain = named_robot(ROBOT)  # an ad-hoc instance: mutated below
    saved = chain._const.copy()
    targets, q0 = _problems(1, seed=12)
    _, slow_q0 = _problems(1, seed=99)

    def request(target, **kwargs):
        return SolveRequest(
            chain, target, "JT-Speculation", tolerance=TOLERANCE,
            max_iterations=CAP, **kwargs,
        )

    config = ServerConfig(options=ExecutionOptions(on_error="raise"))
    with IKServer(config) as srv:
        slow = srv.submit(request(FAR, q0=slow_q0[0]))
        _wait_until(lambda: srv.stats().requests_batched == 1)
        chain._const[0, 0, 3] += 0.25  # lengthen one link in place
        assert srv.submit(request(targets[0], q0=q0[0])).result(
            timeout=TIMEOUT
        ).converged
        later = srv.submit(request(targets[0])).result(timeout=TIMEOUT)
        slow.result(timeout=TIMEOUT)
        stats = srv.stats()
        assert stats.cache_hits == 0 and stats.warm_requests == 0
        assert later.iterations > 0
        chain._const[...] = saved
        assert srv.warm_seed(chain, targets[0]) is not None
