"""Every bench payload must be *strict* JSON: no NaN/Infinity ever.

Python's ``json`` emits bare ``NaN`` tokens by default, which most strict
parsers (and the JSON spec) reject — a dashboard ingesting
``BENCH_serving.json`` would fail on the first idle-server snapshot, whose
undefined ratios used to render as ``NaN``.  These tests hold both the
committed artifacts and freshly-generated payloads to ``json.loads`` with
a *raising* ``parse_constant``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.serving import ServingStats, run_serve_bench
from repro.serving.seeds import SeedCacheStats

REPO_ROOT = Path(__file__).resolve().parents[2]


def strict_loads(text: str):
    """``json.loads`` that rejects NaN/Infinity/-Infinity tokens."""
    def reject(token: str):
        raise ValueError(f"non-strict JSON constant: {token}")
    return json.loads(text, parse_constant=reject)


class TestCommittedArtifacts:
    @pytest.mark.parametrize(
        "path",
        sorted(REPO_ROOT.glob("BENCH_*.json")),
        ids=lambda p: p.name,
    )
    def test_committed_bench_payloads_are_strict_json(self, path):
        strict_loads(path.read_text(encoding="utf-8"))


class TestFreshPayloads:
    def test_idle_server_stats_snapshot_is_strict(self):
        # Before any traffic every ratio is undefined: the snapshot must
        # say null, not NaN.
        snapshot = ServingStats().to_dict()
        parsed = strict_loads(json.dumps(snapshot, allow_nan=False))
        assert parsed["mean_occupancy"] is None
        assert parsed["cache_hit_rate"] is None
        assert parsed["warm_iteration_reduction"] is None

    def test_empty_seed_cache_stats_are_strict(self):
        parsed = strict_loads(
            json.dumps(SeedCacheStats().to_dict(), allow_nan=False)
        )
        assert parsed["hit_rate"] is None

    def test_serve_bench_payload_round_trips_strict(self):
        payload = run_serve_bench(
            robot="dadu-12dof", requests=6, rate_hz=200.0,
            max_batch_size=4, max_iterations=2000,
            workload="tracking", seed=11,
        )
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        parsed = strict_loads(text)
        assert parsed["completed"] == 6
        assert parsed["workload"] == "tracking"
        # The lag/latency split is present and disjoint.
        assert parsed["scheduler_lag_s"]["mean"] is not None
        assert parsed["server_latency_s"]["p50"] is not None
        assert (
            parsed["server_latency_s"]["p50"] <= parsed["latency_s"]["p50"]
        )
        assert parsed["warm_start"]["enabled"] is True
        for value in parsed["serving"].values():
            if isinstance(value, float):
                assert math.isfinite(value)

    def test_warm_start_off_payload_is_strict(self):
        payload = run_serve_bench(
            robot="dadu-12dof", requests=4, rate_hz=200.0,
            max_batch_size=4, max_iterations=2000,
            warm_start=False, seed=12,
        )
        parsed = strict_loads(json.dumps(payload, allow_nan=False))
        assert parsed["warm_start"]["enabled"] is False
        assert "cold_baseline" not in parsed["warm_start"]
        assert parsed["serving"]["cache_hit_rate"] is None
