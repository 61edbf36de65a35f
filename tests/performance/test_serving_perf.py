"""Perf gate for the micro-batching serving layer (``-m slow``).

Drives :func:`repro.serving.run_serve_bench` open-loop at an offered rate
well above the single-solve service rate, so requests pile up and the
scheduler *must* coalesce — the acceptance gate for the serving PR is
``mean_occupancy > 1`` under concurrent load, plus sane latency accounting.

Timing-sensitive, so excluded from tier 1 (the ``slow`` marker); the
nightly CI job runs the full 50-DOF ``serve-bench`` and uploads the fresh
``BENCH_serving_nightly.json`` next to the committed ``BENCH_serving.json``.
"""

from __future__ import annotations

import math

import pytest

from repro.serving import run_serve_bench

pytestmark = pytest.mark.slow

#: Offered load (req/s) far above the ~13 req/s serial 25-DOF service rate.
OFFERED_RATE_HZ = 400.0


@pytest.fixture(scope="module")
def payload():
    return run_serve_bench(
        robot="dadu-25dof",
        requests=80,
        rate_hz=OFFERED_RATE_HZ,
        max_batch_size=16,
        kernel="vectorized",
        seed=7,
    )


def test_overloaded_stream_coalesces(payload):
    serving = payload["serving"]
    assert serving["mean_occupancy"] > 1.0, (
        "no coalescing under a 400 req/s offered load — the micro-batcher "
        "is flushing singletons"
    )
    assert serving["occupancy_peak"] >= 2
    assert serving["batches"] < payload["completed"]


def test_every_request_served_and_solved(payload):
    assert payload["completed"] == payload["requests"]
    assert payload["rejections"] == {}
    # The stock tolerance on in-workspace targets converges essentially
    # always; anything below 90% signals a broken serving data path.
    assert payload["convergence_rate"] >= 0.9


def test_latency_accounting_is_sane(payload):
    latency = payload["latency_s"]
    assert 0.0 < latency["p50"] <= latency["p90"] <= latency["p99"]
    assert latency["p99"] <= latency["max"]
    assert math.isfinite(latency["mean"])
    # End-to-end latency includes queueing, but no request outlives the
    # whole run.
    assert latency["max"] <= payload["makespan_s"]


def test_throughput_reported(payload):
    assert payload["throughput_rps"] > 1.0
    assert payload["makespan_s"] > 0.0


def test_payload_schema_for_dashboards(payload):
    assert payload["benchmark"] == "serving"
    assert {"robot", "dof", "solver", "config", "serving",
            "latency_s", "statuses", "notes"} <= set(payload)
    assert {"mean_occupancy", "queue_depth_peak",
            "cache_hit_rate"} <= set(payload["serving"])
