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
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.kinematics.robots import named_robot
from repro.telemetry import SummaryTracer

JOIN_TIMEOUT = 120


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
