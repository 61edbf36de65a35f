"""Open-loop load generator for the serving layer → ``BENCH_serving.json``.

Open-loop means arrivals are scheduled from a seeded Poisson process *before*
the run and submitted on that schedule regardless of how fast the server
drains — the standard way to measure a serving stack's latency under a
target offered load (a closed loop would self-throttle and hide queueing).

Two target workloads:

* ``"iid"`` — every request's target is an independent draw from the
  robot's reachable workspace (uncorrelated stream; the warm-start cache
  can only exploit coincidental proximity);
* ``"tracking"`` — ``tracks`` simulated clients each follow a smooth
  joint-space random walk, submitting the FK of their current
  configuration each tick, interleaved round-robin.  This is the
  trajectory-tracking shape real IK services see, and the workload where
  IKSel-style warm starting pays: each tick's best seed is the track's
  previous solution.
* ``"sessions"`` — the same interleaved random walks, but each track
  streams through a :class:`~repro.serving.sessions.TrackingSession`
  (``tracks`` sessions on one :class:`~repro.serving.sessions.
  SessionManager`), so every tick is admitted with an explicit ``q0``
  chained from that session's previous solution instead of relying on the
  server-side seed cache.  The payload gains a ``"sessions"`` section with
  the manager's aggregate stats and a cold per-tick baseline re-solve
  measuring the warm-chaining iteration reduction.

The payload records throughput, end-to-end latency percentiles measured
from each request's *scheduled* arrival, **scheduler lag** (how late the
loadgen actually submitted vs the schedule) and server-side latency
(measured from actual submission) separately so loadgen jitter is
distinguishable from server queueing, batch-occupancy and queue gauges
from :meth:`~repro.serving.server.IKServer.stats`, the rejection counts,
and — when warm starting — the measured mean-iteration reduction against a
cold-seed re-solve of the same requests.

Every value is strict-JSON-safe: undefined ratios are ``null``, never
``NaN``.

Run it via the CLI::

    python -m repro serve-bench --robot dadu-50dof --requests 300 \
        --rate 320 --workload tracking --dispatch-workers 4 \
        --out BENCH_serving.json
"""

from __future__ import annotations

import math
import time
from typing import Any

import numpy as np

from repro.api import resolve_robot
from repro.execution import ExecutionOptions, KernelSpec
from repro.serving.request import Overloaded, ServingRejected, SolveRequest
from repro.serving.server import IKServer, ServerConfig
from repro.serving.sessions import SessionConfig, SessionManager
from repro.telemetry.sinks import percentile

__all__ = ["run_serve_bench", "WORKLOADS"]

#: Latency percentiles recorded in the payload.
PERCENTILES = (50.0, 90.0, 99.0)

#: Target-stream shapes the loadgen can drive.
WORKLOADS = ("iid", "tracking", "sessions")

#: Simulated concurrent clients in the tracking workload.
DEFAULT_TRACKS = 8

#: Per-tick joint-space step (radians, std-dev) for tracking clients.
DEFAULT_TRACK_STEP = 0.05


def _reachable_targets(chain, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` reachable targets drawn from the robot's own workspace."""
    return np.stack([
        chain.end_position(chain.random_configuration(rng)) for _ in range(n)
    ])


def _tracking_targets(
    chain,
    n: int,
    rng: np.random.Generator,
    tracks: int = DEFAULT_TRACKS,
    step: float = DEFAULT_TRACK_STEP,
) -> np.ndarray:
    """``n`` targets from ``tracks`` interleaved joint-space random walks.

    Each simulated client holds a configuration, perturbs it by a small
    clamped Gaussian step per tick, and requests the FK of the result —
    reachable by construction, and smooth per client, so consecutive
    targets on one track are warm-start neighbours.
    """
    configs = [chain.random_configuration(rng) for _ in range(min(tracks, n))]
    targets = np.empty((n, 3), dtype=float)
    for i in range(n):
        track = i % len(configs)
        configs[track] = chain.clamp(
            configs[track] + rng.normal(0.0, step, size=chain.dof)
        )
        targets[i] = chain.end_position(configs[track])
    return targets


def _sample_stats(values: "list[float]") -> dict[str, Any]:
    """mean / percentiles / max of a latency-like sample (``None`` when empty)."""
    if not values:
        return {
            "mean": None, "max": None,
            **{f"p{q:g}": None for q in PERCENTILES},
        }
    return {
        "mean": float(np.mean(values)),
        **{f"p{q:g}": percentile(values, q) for q in PERCENTILES},
        "max": float(max(values)),
    }


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None`` (strict JSON)."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_serve_bench(
    robot: str = "dadu-50dof",
    solver: str = "JT-Speculation",
    requests: int = 200,
    rate_hz: float = 300.0,
    max_batch_size: int = 32,
    max_queue: int = 4096,
    dispatch_workers: int = 1,
    workers: int | None = None,
    kernel: str | None = None,
    dtype: str | None = None,
    chunk: int | None = None,
    on_error: str = "skip",
    tolerance: float | None = None,
    max_iterations: int | None = None,
    warm_start: bool = True,
    seed_k: int | None = None,
    workload: str = "iid",
    tracks: int = DEFAULT_TRACKS,
    cold_baseline: bool = True,
    deadline_s: float | None = None,
    seed: int = 2017,
    result_timeout_s: float = 300.0,
) -> dict[str, Any]:
    """Drive one open-loop run; returns the ``BENCH_serving.json`` payload.

    ``cold_baseline=True`` (with ``warm_start``) re-solves every completed
    request offline from its cold seeded draw after the serving run and
    records the mean-iteration reduction the warm-start policy delivered —
    the IKSel-style seed selection's acceptance measurement.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if workload not in WORKLOADS:
        raise ValueError(
            f"workload must be one of {WORKLOADS}, got {workload!r}"
        )

    chain = resolve_robot(robot)
    rng = np.random.default_rng(seed)
    sessions_mode = workload == "sessions"
    if workload in ("tracking", "sessions"):
        targets = _tracking_targets(chain, requests, rng, tracks=tracks)
    else:
        targets = _reachable_targets(chain, requests, rng)
    # Poisson arrivals at the offered rate, fixed before the run starts.
    arrivals = np.cumsum(rng.exponential(1.0 / rate_hz, size=requests))

    base = KernelSpec.coerce(kernel)
    if dtype is not None or chunk is not None:
        base = KernelSpec(
            name=base.name if base is not None else None,
            dtype=dtype if dtype is not None else (
                base.dtype if base is not None else None
            ),
            chunk=chunk if chunk is not None else (
                base.chunk if base is not None else None
            ),
        )
    options = ExecutionOptions(
        kernel=base,
        workers=workers,
        on_error=on_error,
    )
    config_kwargs: dict[str, Any] = {}
    if seed_k is not None:
        config_kwargs["seed_k"] = seed_k
    server = IKServer(ServerConfig(
        max_batch_size=max_batch_size,
        max_queue=max_queue,
        dispatch_workers=dispatch_workers,
        options=options,
        warm_start=warm_start,
        **config_kwargs,
    ))
    inflight: list[tuple[int, float, Any]] = []  # (index, scheduled_t, future)
    done_at: dict[int, float] = {}
    submitted_at: dict[int, float] = {}
    rejections: dict[str, int] = {}

    def _mark_done(index: int):
        def _cb(_future: Any) -> None:
            done_at[index] = time.monotonic()
        return _cb

    manager: SessionManager | None = None
    sessions: list = []
    with server:
        if sessions_mode:
            # One streaming session per simulated client.  Session j's
            # seed matches its first tick's global request index (j), so
            # the cold per-tick baseline below re-draws exactly the first
            # tick's fallback seed.
            manager = SessionManager(
                server,
                SessionConfig(
                    max_sessions=max(1, min(tracks, requests)),
                    idle_expiry_s=None,
                ),
            )
            sessions = [
                manager.open(
                    chain, solver=solver, seed=seed + 1 + j,
                    tolerance=tolerance, max_iterations=max_iterations,
                )
                for j in range(min(tracks, requests))
            ]
        t0 = time.monotonic()
        for i in range(requests):
            scheduled = t0 + float(arrivals[i])
            delay = scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                submitted_at[i] = time.monotonic()
                if sessions_mode:
                    # tick() waits on the session's previous result (the
                    # warm-start chain), so a session stream is closed-loop
                    # per client while arrivals stay scheduled.
                    future = sessions[i % len(sessions)].tick(
                        targets[i], deadline_s=deadline_s
                    )
                else:
                    future = server.submit(SolveRequest(
                        robot=chain,
                        target=targets[i],
                        solver=solver,
                        seed=seed + 1 + i,
                        tolerance=tolerance,
                        max_iterations=max_iterations,
                        deadline_s=deadline_s,
                    ))
            except Overloaded as exc:
                # Open loop: an overloaded server drops, the client does
                # not retry — the drop rate is part of the measurement.
                rejections[exc.record.kind] = (
                    rejections.get(exc.record.kind, 0) + 1
                )
                continue
            future.add_done_callback(_mark_done(i))
            inflight.append((i, scheduled, future))

        latencies: list[float] = []
        server_latencies: list[float] = []
        scheduler_lags: list[float] = []
        iterations: list[int] = []
        completed_indices: list[int] = []
        converged = 0
        statuses: dict[str, int] = {}
        for i, scheduled, future in inflight:
            scheduler_lags.append(submitted_at[i] - scheduled)
            try:
                result = future.result(timeout=result_timeout_s)
            except ServingRejected as exc:
                rejections[exc.record.kind] = (
                    rejections.get(exc.record.kind, 0) + 1
                )
                continue
            finished = done_at.get(i, time.monotonic())
            latencies.append(finished - scheduled)
            server_latencies.append(finished - submitted_at[i])
            iterations.append(result.iterations)
            completed_indices.append(i)
            converged += int(result.converged)
            statuses[result.status] = statuses.get(result.status, 0) + 1
        session_stats = manager.stats() if manager is not None else None
        if manager is not None:
            manager.close_all()
        makespan = time.monotonic() - t0
    stats = server.stats()

    warm_payload: dict[str, Any] = {
        "enabled": warm_start,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "mean_iterations": (
            float(np.mean(iterations)) if iterations else None
        ),
    }
    if warm_start and cold_baseline and completed_indices and not sessions_mode:
        warm_payload["cold_baseline"] = _cold_baseline(
            chain, solver, targets, completed_indices, seed,
            tolerance, max_iterations, options, iterations,
        )

    sessions_payload: dict[str, Any] | None = None
    if sessions_mode:
        # The session acceptance measurement: mean iterations of the
        # streamed (warm-chained) ticks vs a cold per-tick re-solve of the
        # same targets from the seeded draws a session-less client would
        # have used.
        sessions_payload = {
            "count": len(sessions),
            "manager": session_stats,
            "mean_iterations": (
                float(np.mean(iterations)) if iterations else None
            ),
        }
        if cold_baseline and completed_indices:
            baseline = _cold_baseline(
                chain, solver, targets, completed_indices, seed,
                tolerance, max_iterations, options, iterations,
            )
            sessions_payload["cold_baseline"] = baseline
            sessions_payload["iteration_reduction"] = (
                baseline["iteration_reduction"]
            )

    completed = len(latencies)
    payload: dict[str, Any] = {
        "benchmark": "serving",
        "robot": chain.name,
        "dof": chain.dof,
        "solver": solver,
        "requests": requests,
        "offered_rate_hz": rate_hz,
        "workload": workload,
        "seed": seed,
        "config": {
            "max_batch_size": max_batch_size,
            "max_queue": max_queue,
            "dispatch_workers": dispatch_workers,
            "workers": workers,
            "kernel": kernel,
            "dtype": dtype,
            "chunk": chunk,
            "on_error": on_error,
            "warm_start": warm_start,
            "seed_k": seed_k,
            "tracks": (
                tracks if workload in ("tracking", "sessions") else None
            ),
            "tolerance": tolerance,
            "max_iterations": max_iterations,
            "deadline_s": deadline_s,
        },
        "completed": completed,
        "converged": converged,
        "convergence_rate": (
            converged / completed if completed else None
        ),
        "rejections": rejections,
        "statuses": statuses,
        "makespan_s": makespan,
        "throughput_rps": completed / makespan if makespan > 0 else 0.0,
        "latency_s": _sample_stats(latencies),
        "server_latency_s": _sample_stats(server_latencies),
        "scheduler_lag_s": _sample_stats(scheduler_lags),
        "warm_start": warm_payload,
        "serving": stats.to_dict(),
        **({"sessions": sessions_payload} if sessions_payload else {}),
        "notes": (
            "open-loop seeded Poisson arrivals; latency_s is measured from "
            "each request's scheduled arrival (so it includes scheduler "
            "lag), server_latency_s from the actual submission, and "
            "scheduler_lag_s records the loadgen's own lateness — compare "
            "the two latency blocks to attribute queueing to the server "
            "vs the load generator. mean_occupancy > 1 demonstrates "
            "dynamic micro-batching coalesced concurrent requests."
        ),
    }
    return _json_safe(payload)


def _cold_baseline(
    chain,
    solver: str,
    targets: np.ndarray,
    completed_indices: "list[int]",
    seed: int,
    tolerance: float | None,
    max_iterations: int | None,
    options: ExecutionOptions,
    warm_iterations: "list[int]",
) -> dict[str, Any]:
    """Re-solve the completed requests from their cold seeded draws.

    Each request's cold ``q0`` is exactly the draw the server would have
    used with ``warm_start=False`` (``default_rng(request.seed)``), so the
    iteration delta isolates the seed policy from everything else.
    """
    from repro import api

    q0 = np.stack([
        chain.random_configuration(np.random.default_rng(seed + 1 + i))
        for i in completed_indices
    ])
    result = api.solve_batch(
        chain,
        targets[completed_indices],
        solver,
        q0=q0,
        tolerance=tolerance,
        max_iterations=max_iterations,
        options=options,
    )
    cold = [res.iterations for res in result]
    warm_mean = float(np.mean(warm_iterations))
    cold_mean = float(np.mean(cold))
    return {
        "mean_iterations": cold_mean,
        "warm_mean_iterations": warm_mean,
        "iteration_reduction": (
            1.0 - warm_mean / cold_mean if cold_mean > 0 else None
        ),
    }
