"""IKServer lifecycle under concurrency: close races, future accounting.

The contract these tests pin down:

* every future returned by a successful ``submit`` terminates exactly once
  — with a result (drain) or with ``ServerClosed`` (no-drain) — never lost,
  never completed twice;
* ``submit`` racing ``close(drain=True)`` either succeeds (and its future
  resolves) or raises ``ServerClosed`` — no third outcome;
* ``close`` is idempotent and safe to call from several threads at once.

The seeded stress test runs under ``-m slow`` (nightly tier) for
``dispatch_workers`` in {1, 4}.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.kinematics.robots import named_robot
from repro.serving import IKServer, ServerClosed, ServerConfig, SolveRequest

ROBOT = "dadu-12dof"
MAX_ITERATIONS = 300


def reachable_targets(count: int, seed: int = 0) -> np.ndarray:
    chain = named_robot(ROBOT)
    rng = np.random.default_rng(seed)
    return np.stack([
        chain.end_position(chain.random_configuration(rng))
        for _ in range(count)
    ])


def request(target, seed=0, **kwargs) -> SolveRequest:
    kwargs.setdefault("max_iterations", MAX_ITERATIONS)
    return SolveRequest(ROBOT, target, seed=seed, **kwargs)


class TestCloseRaces:
    def test_submit_racing_drain_close_never_loses_a_future(self):
        # One thread streams submissions while the main thread closes with
        # drain: every accepted future must resolve, every rejected submit
        # must raise ServerClosed, and their counts must cover the stream.
        targets = reachable_targets(24)
        srv = IKServer(ServerConfig(
            max_batch_size=4, dispatch_workers=2, warm_start=False,
        )).start()
        futures, rejected = [], []
        started = threading.Event()

        def submitter():
            for i, t in enumerate(targets):
                try:
                    futures.append(srv.submit(request(t, seed=i)))
                except ServerClosed:
                    rejected.append(i)
                if i == 3:
                    started.set()

        thread = threading.Thread(target=submitter)
        thread.start()
        started.wait(timeout=30)
        srv.close(drain=True)
        thread.join(timeout=60)
        assert not thread.is_alive()

        assert len(futures) + len(rejected) == len(targets)
        assert len(futures) >= 4  # the pre-close prefix was accepted
        results = [f.result(timeout=60) for f in futures]
        assert all(r.dof == 12 for r in results)
        stats = srv.stats()
        assert stats.submitted == len(futures)
        assert stats.completed == len(futures)

    def test_concurrent_and_double_close_are_safe(self):
        targets = reachable_targets(6, seed=1)
        srv = IKServer(ServerConfig(
            max_batch_size=3, dispatch_workers=2, warm_start=False,
        )).start()
        futures = [srv.submit(request(t, seed=i))
                   for i, t in enumerate(targets)]

        closers = [threading.Thread(target=srv.close) for _ in range(4)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in closers)
        srv.close()  # double close after the race: still a no-op
        assert all(f.result(timeout=60).dof == 12 for f in futures)

    def test_submit_after_close_raises_for_every_worker_count(self):
        (target,) = reachable_targets(1, seed=2)
        for dispatch_workers in (1, 4):
            srv = IKServer(ServerConfig(
                dispatch_workers=dispatch_workers, warm_start=False,
            )).start()
            srv.close()
            with pytest.raises(ServerClosed):
                srv.submit(request(target))

    def test_no_drain_close_fails_pending_not_inflight_semantics(
        self, hold_dispatch
    ):
        # close(drain=False) fails queued futures with ServerClosed; the
        # futures list is fully accounted either way.
        targets = reachable_targets(5, seed=3)
        srv = IKServer(ServerConfig(
            max_batch_size=100, dispatch_workers=2, warm_start=False,
        )).start()
        with hold_dispatch(srv):
            futures = [srv.submit(request(t, seed=i))
                       for i, t in enumerate(targets)]
            srv.close(drain=False)
        outcomes = [f.exception(timeout=60) for f in futures]
        assert all(isinstance(exc, ServerClosed) for exc in outcomes)


@pytest.mark.slow
class TestStress:
    @pytest.mark.parametrize("dispatch_workers", [1, 4])
    def test_multithreaded_stream_loses_nothing(self, dispatch_workers):
        # 4 submitter threads x 25 requests against a small-batch server;
        # every future resolves exactly once and the server's own books
        # agree with the client-side count.
        threads_n, per_thread = 4, 25
        targets = reachable_targets(threads_n * per_thread, seed=7)
        srv = IKServer(ServerConfig(
            max_batch_size=8, dispatch_workers=dispatch_workers,
            warm_start=False,
        ))
        futures: list = [None] * (threads_n * per_thread)

        def submitter(worker: int):
            for j in range(per_thread):
                idx = worker * per_thread + j
                futures[idx] = srv.submit(
                    request(targets[idx], seed=idx, max_iterations=100)
                )

        with srv:
            workers = [
                threading.Thread(target=submitter, args=(w,))
                for w in range(threads_n)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in workers)
            results = [f.result(timeout=120) for f in futures]

        assert len(results) == threads_n * per_thread
        assert all(r.dof == 12 for r in results)
        stats = srv.stats()
        assert stats.submitted == threads_n * per_thread
        assert stats.completed == threads_n * per_thread
        assert stats.failed == 0
        assert stats.requests_batched == threads_n * per_thread
        if dispatch_workers > 1:
            assert stats.inflight_peak >= 1
