"""Solver telemetry: events, counters, phase timers and sinks.

The observability layer for every solve path in the repository.  Solvers emit
``solve_start`` / ``iteration`` / ``speculation_wave`` / ``solve_end`` events
plus counters (FK evaluations, Jacobian builds, candidate evaluations,
restarts) and phase timings (jacobian, alpha, fk_sweep, selection) to a
:class:`Tracer`; sinks turn the stream into an in-memory summary
(:class:`SummaryTracer`), a JSONL trace file (:class:`JsonlTracer`) or
aggregated percentile metrics (:class:`MetricsRegistry`).

Uninstrumented solves pay nothing: the default :data:`NULL_TRACER` is a
single ``enabled`` attribute check per hook point (see
``docs/observability.md`` and the overhead guard test).

Usage::

    from repro import api, telemetry

    tracer = telemetry.SummaryTracer()
    result = api.solve("dadu-25dof", [0.3, 0.2, 0.4], tracer=tracer)
    print(tracer.summary().counters["fk_evaluations"])

or process-wide (how ``repro bench --metrics-out`` hooks the harness)::

    registry = telemetry.MetricsRegistry()
    with telemetry.use_tracer(registry):
        run_benchmarks()
    print(registry.to_json())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.telemetry.tracer": (
        "Tracer",
        "TracerBase",
        "NullTracer",
        "NULL_TRACER",
        "MultiTracer",
        "COUNTER_NAMES",
        "GAUGE_NAMES",
        "PHASE_NAMES",
        "get_tracer",
        "set_tracer",
        "use_tracer",
    ),
    "repro.telemetry.sinks": (
        "SummaryTracer",
        "TelemetrySummary",
        "JsonlTracer",
        "read_jsonl_trace",
        "MetricsRegistry",
        "merge_summaries",
        "percentile",
    ),
})
