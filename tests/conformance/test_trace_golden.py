"""Golden-fixture regression test for the telemetry JSONL trace schema.

``--trace-out`` consumers parse these files offline; a silently renamed
event or dropped field breaks them without failing any unit test.  The
committed fixture ``data/golden_trace.jsonl`` pins the schema: event names,
the exact key set of every event shape, and the JSON serialisation format.

Regenerate the fixture (after an *intentional* schema change) with::

    PYTHONPATH=src python -m tests.conformance.test_trace_golden

and commit the diff — the diff *is* the schema-change review.
"""

import json
from pathlib import Path

from repro.telemetry import JsonlTracer, read_jsonl_trace

GOLDEN = Path(__file__).parent / "data" / "golden_trace.jsonl"

#: Fields whose *values* are wall-clock/timing noise; their presence is part
#: of the schema, their values are not.
TIMING_FIELDS = {"t", "wall_time", "phase_seconds"}


def generate_trace(path) -> None:
    """The fixture workload: one scalar solve, one lock-step batch, one
    sharded batch, one skip-mode batch with a guarded target, one resilient
    solve that exhausts its fallback chain, and a two-tick streaming session
    — covering every event shape the solve and serving paths emit (including
    the ``serve_session_*`` counters)."""
    import numpy as np

    from repro import api
    from repro.execution import ExecutionOptions
    from repro.resilience import ResilienceConfig
    from repro.serving import IKServer, ServerConfig, SessionManager

    chain = api.resolve_robot("dadu-12dof")
    rng = np.random.default_rng(1)
    targets = np.stack(
        [chain.end_position(chain.random_configuration(rng)) for _ in range(4)]
    )
    guarded = np.vstack([targets, [[float("nan"), 0.0, 0.0]]])
    with JsonlTracer(path) as tracer:
        api.solve(chain, targets[0], "JT-Speculation", seed=2, tracer=tracer)
        api.solve_batch(chain, targets, "JT-Speculation", seed=2, tracer=tracer)
        api.solve_batch(
            chain, targets, "JT-Speculation", seed=2,
            options=ExecutionOptions(workers=2), tracer=tracer,
        )
        # Resilient paths: a skip-mode batch rejecting a NaN target (adds
        # the "failed" field to the merged solve_end), and a scalar
        # resilient solve whose every chained attempt fails (emits the
        # fallback_used / solve_failed counters).
        api.solve_batch(
            chain, guarded, "JT-Speculation", seed=2,
            options=ExecutionOptions(on_error="skip"), tracer=tracer,
        )
        api.solve(
            chain, targets[0], "JT-Speculation", seed=2, max_iterations=1,
            options=ExecutionOptions(resilience=ResilienceConfig()),
            tracer=tracer,
        )
        # Streaming session: sequential awaited ticks against a single
        # dispatch loop (no adaptive tuning, no seed cache) keep the
        # per-event counter snapshots deterministic — the server emits all
        # batch telemetry before completing futures.
        server_config = ServerConfig(
            max_batch_size=4, max_wait_ms=1.0, dispatch_workers=1,
            adaptive=False, warm_start=False, seed_cache_capacity=0,
        )
        with IKServer(server_config, tracer=tracer) as server:
            manager = SessionManager(server)
            session = manager.open(
                chain, solver="JT-DLS", seed=3,
                tolerance=1e-2, max_iterations=60,
            )
            for target in targets[:2]:
                session.tick(target).result(timeout=120)
            session.drain()
            manager.close_all()


def _schema(events):
    """The trace's shape: every (event name, exact key set) that occurs."""
    return {(e["event"], frozenset(e)) for e in events}


def test_reader_round_trips_golden_unchanged():
    """read_jsonl_trace parses the fixture and the writer's serialisation
    (compact separators, one object per line) reproduces it byte for byte."""
    events = read_jsonl_trace(GOLDEN)
    assert events, "golden fixture is empty"
    lines = GOLDEN.read_text(encoding="utf-8").strip().split("\n")
    assert len(events) == len(lines)
    for event, line in zip(events, lines):
        assert json.dumps(event, separators=(",", ":")) == line


def test_live_trace_matches_golden_schema(tmp_path):
    """A freshly generated trace has exactly the golden's event shapes."""
    fresh_path = tmp_path / "trace.jsonl"
    generate_trace(fresh_path)
    golden_schema = _schema(read_jsonl_trace(GOLDEN))
    fresh_schema = _schema(read_jsonl_trace(fresh_path))
    assert fresh_schema == golden_schema, (
        "telemetry JSONL schema drifted from the golden fixture; if the "
        "change is intentional, regenerate it: PYTHONPATH=src python -m "
        "tests.conformance.test_trace_golden"
    )


def test_golden_covers_every_solve_event_type():
    names = {e["event"] for e in read_jsonl_trace(GOLDEN)}
    assert {"solve_start", "iteration", "solve_end"} <= names


def test_non_timing_payload_is_deterministic(tmp_path):
    """Seeded solves reproduce the golden's non-timing values exactly."""
    fresh_path = tmp_path / "trace.jsonl"
    generate_trace(fresh_path)
    golden = read_jsonl_trace(GOLDEN)
    fresh = read_jsonl_trace(fresh_path)
    assert len(golden) == len(fresh)
    for a, b in zip(golden, fresh):
        for key in set(a) - TIMING_FIELDS:
            if key == "counters":
                assert a[key] == b[key]
            else:
                assert a[key] == b[key], f"field {key!r} drifted"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    generate_trace(GOLDEN)
    print(f"regenerated {GOLDEN} ({len(read_jsonl_trace(GOLDEN))} events)")
