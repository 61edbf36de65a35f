"""Concurrency tier: shared kernels and tracers under forced thread switches.

Both tests run many threads against one shared object with
``sys.setswitchinterval(1e-6)``, which makes the interpreter switch
threads after almost every bytecode, so an unlocked read-modify-write or
a two-step publish is interrupted mid-way thousands of times per run.
Every join is time-bounded.

* A shared vectorized chain caches the prefix frames of the last single
  configuration.  Key and frames are published as one tuple, so a thread
  can never pair one configuration's key with another's frames: every
  ``jacobian_position`` must equal the scalar oracle's.
* :class:`~repro.telemetry.tracer.TracerBase` counters are bumped from
  dispatch threads and client threads at once; no increment may be lost.
* Closed-loop clients resubmit the moment a result arrives, while the
  run yields the GIL between completing futures and taking its next
  wave: every request still completes exactly once, nothing is left
  queued or marked admitting, and each result equals offline.

A third test forces one interleaving deterministically instead: a
submission lands in the middle of :meth:`IKServer.stats`, which must
still return one consistent snapshot.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import api
from repro.kinematics.robots import named_robot
from repro.serving import IKServer, ServerConfig, SolveRequest
from repro.serving.seeds import SeedCacheStats
from repro.telemetry import SummaryTracer

JOIN_TIMEOUT = 120

#: How long the interleaved submission may take to get through.  It
#: returns at once when nothing holds the server lock, and waits out the
#: whole bound when ``stats()`` holds it.
INTERLEAVE_WAIT_S = 1.0


def _hammer(threads: int, work) -> list:
    """Run ``work(i)`` on ``threads`` threads under forced switching;
    returns their results."""
    results = [None] * threads
    start = threading.Barrier(threads)

    def run(i):
        start.wait(timeout=JOIN_TIMEOUT)
        results[i] = work(i)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(previous)
    return results


def test_shared_vectorized_chain_jacobians_match_oracle():
    oracle = named_robot("dadu-12dof")
    shared = oracle.with_kernel("vectorized")
    rng = np.random.default_rng(7)
    # Few configurations, so threads keep asking for the one another
    # thread is caching.
    qs = [oracle.random_configuration(rng) for _ in range(4)]
    expected = [oracle.jacobian_position(q) for q in qs]

    def work(i):
        wrong = 0
        for k in range(300):
            j = (i + k) % len(qs)
            wrong += not np.allclose(
                shared.jacobian_position(qs[j]), expected[j],
                rtol=0.0, atol=1e-12,
            )
        return wrong

    assert sum(_hammer(16, work)) == 0


def test_tracer_counts_are_exact_across_threads():
    tracer = SummaryTracer()
    per_thread = 100_000

    def work(i):
        for k in range(per_thread):
            tracer.count("serve_requests")
            if k % 10 == 0:
                tracer.add_phase("serve_execute", 1.0)

    _hammer(8, work)
    assert tracer.counters["serve_requests"] == 8 * per_thread
    assert tracer.phase_seconds["serve_execute"] == 8.0 * per_thread / 10


@pytest.mark.parametrize("dispatch_workers", [1, 2])
def test_closed_loop_clients_on_one_key_complete_exactly_once(
    dispatch_workers,
):
    clients, ticks = 4, 25
    chain = named_robot("dadu-12dof")
    rng = np.random.default_rng(21)
    targets = np.stack([
        chain.end_position(chain.random_configuration(rng))
        for _ in range(clients * ticks)
    ]).reshape(clients, ticks, 3)
    q0 = np.stack([
        chain.random_configuration(rng) for _ in range(clients * ticks)
    ]).reshape(clients, ticks, chain.dof)
    config = ServerConfig(dispatch_workers=dispatch_workers, warm_start=False)
    server = IKServer(config).start()

    def work(i):
        # Each tick is sent when the last one returns, as a controller
        # streaming one target per control period does.
        return [
            server.submit(SolveRequest(
                "dadu-12dof", targets[i, k], q0=q0[i, k], tolerance=1e-2,
                max_iterations=200,
            )).result(timeout=JOIN_TIMEOUT)
            for k in range(ticks)
        ]

    try:
        served = _hammer(clients, work)
    finally:
        server.close()
    stats = server.stats()
    assert stats.submitted == stats.completed == stats.requests_batched
    assert stats.completed == clients * ticks
    assert server.queue_depth == 0
    assert not server._admitting
    offline = api.solve_batch(
        "dadu-12dof", targets.reshape(-1, 3), q0=q0.reshape(-1, chain.dof),
        tolerance=1e-2, max_iterations=200, options=config.options,
    )
    for result, expected in zip(
        (r for thread in served for r in thread), offline
    ):
        assert result.iterations == expected.iterations
        assert result.status == expected.status
        assert np.array_equal(result.q, expected.q)
        assert result.error == expected.error


class _InterleavingStats(SeedCacheStats):
    """Seed-cache stats whose first ``hits`` read runs ``interleave``: a
    thread switch placed at exactly that read."""

    def __init__(self, interleave) -> None:
        self._interleave = interleave
        super().__init__()

    @property
    def hits(self) -> int:
        interleave, self._interleave = self._interleave, None
        if interleave is not None:
            interleave()
        return self._hits

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits = value


def test_stats_snapshot_is_consistent_with_a_concurrent_submit():
    chain = named_robot("dadu-12dof")
    rng = np.random.default_rng(11)
    targets = [
        chain.end_position(chain.random_configuration(rng)) for _ in range(2)
    ]
    server = IKServer()
    late: list[threading.Thread] = []
    futures = []

    def submit_between_reads():
        request = SolveRequest("dadu-12dof", targets[1], seed=1)
        thread = threading.Thread(
            target=lambda: futures.append(server.submit(request))
        )
        thread.start()
        thread.join(timeout=INTERLEAVE_WAIT_S)
        late.append(thread)

    # Every warm-start lookup counts one hit or one miss.
    server._seed_cache.stats = _InterleavingStats(submit_between_reads)
    try:
        first = server.submit(SolveRequest("dadu-12dof", targets[0], seed=0))
        futures.append(first)
        first.result(timeout=JOIN_TIMEOUT)
        snapshot = server.stats()
        assert late, "stats() never read the cache counters"
        assert snapshot.cache_hits + snapshot.cache_misses == snapshot.submitted
    finally:
        for thread in late:
            thread.join(timeout=JOIN_TIMEOUT)
        server.close()
    assert not any(thread.is_alive() for thread in late)
    assert len(futures) == 2
    for future in futures:
        future.result(timeout=JOIN_TIMEOUT)
