"""The in-process IK request server: futures in, lock-step runs out.

:class:`IKServer` accepts individual :class:`~repro.serving.request.SolveRequest`\\ s
and returns a :class:`concurrent.futures.Future` per request.  Compatible
requests (same robot / solver / config / options) queue together in the
:class:`~repro.serving.batcher.MicroBatcher`, and every queued request is
due at once: a pool of dispatch threads
(``ServerConfig.dispatch_workers``) takes the oldest key's queue the
moment a loop is free.  What a dispatch loop does with it depends on the
key:

* **Iteration-level admission.**  A key that can run in-process on a
  lock-step engine — a ``BATCH_REGISTRY`` solver, ``workers`` unset or 1,
  ``on_error`` ``"raise"`` or ``"skip"``, no ``resilience`` and no
  watchdog — opens a resumable
  :class:`~repro.solvers.batched.LockStepRun` with whatever is queued.  At
  every iteration boundary the loop completes the futures of the rows
  that retired, yields the GIL once so a client woken by a completion
  can resubmit, and only then admits the key's queued requests (up to
  ``max_batch_size`` live rows).  While the run is live and has room, no
  other loop starts a second run for the key.
* **Micro-batch.**  Every other key executes its queue (up to
  ``max_batch_size`` requests) through one :func:`repro.api.solve_batch`
  call under the server's ``options``: process sharding (``workers``),
  timeouts and the ``on_error="fallback"`` resilience chain.

Batching is continuous: nothing holds a request back to fill a batch.
A batch is whatever queued while every loop was busy, and a run's rows
are whatever joined it while it was live.

Design invariants:

* **Served == offline** (cold path).  A request with ``seed=s`` and
  ``warm_start=False`` resolves its initial configuration exactly as
  ``api.solve(..., seed=s)`` would (one
  ``chain.random_configuration(default_rng(s))`` draw), then rides a batch
  whose per-problem numerics the conformance tier already pins to the
  scalar driver.  Because ``q0`` is fixed at admission and per-problem
  numerics are independent of batch composition, the guarantee holds for
  *any* ``dispatch_workers`` count — concurrent dispatch changes which
  batch a request rides, never its answer.
  ``tests/serving/test_differential.py`` holds the serving layer to that
  equivalence per request, across a mixed-robot stream, for
  ``dispatch_workers`` in {1, 4}.  Under admission the same holds: a row
  of a lock-step run never depends on when it joined or on the rows it
  shares a step with, so a served result equals offline
  ``api.solve_batch`` of its target from its admitted ``q0``.
* **Warm by default.**  ``warm_start=True`` replaces the seed draw with an
  IKSel-style ranked nearest-solution seed
  (:mod:`repro.serving.seeds`) — dramatically fewer iterations on
  correlated streams, at the price of the bit-comparability above (which
  is why it is overridable per request and forced off in the differential
  tier).
* **Bounded everything.**  The queue is bounded (``max_queue`` →
  :class:`~repro.serving.request.Overloaded`), a queued request waits
  only for a free dispatch loop or for its key's live run to reach its
  next iteration, and per-request deadlines are enforced at admission,
  at dispatch (:class:`~repro.serving.request.DeadlineExceeded`), and
  *predictively* at dispatch (:class:`~repro.serving.request.SloShed`: a
  request whose deadline the per-group execution-time estimate says
  cannot be met is shed instead of solved late).  Admission into a live
  run applies the same triage.  A run stops admitting while another key
  has queued requests and every dispatch loop is busy, so one busy key
  cannot starve the rest.
* **Observable.**  Counters (``serve_requests`` / ``serve_batches`` /
  ``serve_overloaded`` / ``serve_deadline_expired`` / ``serve_shed`` /
  ``serve_cache_hits`` / ``serve_cache_misses`` /
  ``serve_warm_iterations`` / ``serve_cold_iterations``) and phases
  (``serve_coalesce`` / ``serve_execute``) flow through the standard
  :class:`~repro.telemetry.tracer.Tracer` sinks; queue-depth / batch
  occupancy gauges live on :meth:`IKServer.stats`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import threading
import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.api import _resolve_config, resolve_robot
from repro.execution import ExecutionOptions
from repro.kinematics import KinematicChain, chain_fingerprint
from repro.resilience.guards import (
    FATAL_GUARD_KINDS,
    GuardViolation,
    guard_targets,
    reach_sphere,
    rejected_result,
)
from repro.resilience.report import FailureReport
from repro.serving.batcher import GroupKey, MicroBatch, MicroBatcher, PendingEntry
from repro.serving.request import (
    DeadlineExceeded,
    Overloaded,
    ServerClosed,
    SloShed,
    SolveRequest,
)
from repro.serving.seeds import DEFAULT_K, DEFAULT_LIMIT_PENALTY, SeedCache
from repro.solvers.batched import LockStepRun
from repro.solvers.registry import BATCH_REGISTRY, make_batch_solver
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = ["ServerConfig", "ServingStats", "IKServer"]

#: EWMA smoothing factor for per-group batch execution times (the SLO
#: shedding predictor).
EXEC_EWMA_ALPHA = 0.3


def _finite_or_none(value: float) -> float | None:
    """NaN/inf-free rendering for strict-JSON payloads."""
    return float(value) if np.isfinite(value) else None


@dataclass(frozen=True)
class ServerConfig:
    """Policy knobs for one :class:`IKServer`.

    Parameters
    ----------
    max_batch_size:
        The most requests one dispatch loop takes from a key's queue at
        once, and the most live rows one admission run holds.
    dispatch_workers:
        Concurrent dispatch loops draining the queues.  With one loop, an
        in-flight batch blocks dispatching the next; N loops keep
        coalescing while up to N batches execute.  Per-request results are
        independent of this knob (``q0`` is fixed at admission).
    max_queue:
        Backpressure bound: queued requests across all keys; submissions
        beyond it raise :class:`~repro.serving.request.Overloaded`.
    slo_shedding:
        Predictive admission control at dispatch: a request whose deadline
        the per-group batch-execution-time EWMA predicts cannot be met is
        shed (:class:`~repro.serving.request.SloShed`) instead of solved
        late.  Only affects requests that carry a ``deadline_s``.
    options:
        Typed execution policy (:class:`~repro.execution.ExecutionOptions`)
        every served solve follows: the kernel spec (mode / dtype / chunk),
        ``workers`` / ``timeout`` and ``on_error``.  It also decides which
        keys run on admission (see the module docstring).  The serving
        default is ``ExecutionOptions(on_error="skip")``: one bad request
        degrades into a typed placeholder result instead of poisoning its
        batch-mates with an exception.  Options built by hand govern
        verbatim, and ``ExecutionOptions``'s own default is
        ``on_error="raise"``, so set ``"skip"`` explicitly to keep it.
    warm_start:
        Server-wide default for the warm-start seed cache (requests can
        override per call).  **On by default** since PR 7: correlated
        online streams converge in a fraction of the cold iteration count.
        Set ``False`` to restore request-level bit-equivalence with
        offline solves.
    seed_cache_capacity:
        Per-robot capacity of the warm-start cache; ``0`` disables the
        cache entirely (nothing recorded, every lookup misses).
    warm_start_max_distance:
        Optional radius (metres): cached solutions further than this from
        the new target are not reused.
    seed_k / seed_limit_penalty:
        IKSel-style ranking knobs (:class:`~repro.serving.seeds.SeedCache`):
        candidate pool size and the joint-limit-proximity penalty weight.
    """

    max_batch_size: int = 32
    max_queue: int = 1024
    dispatch_workers: int = 1
    slo_shedding: bool = True
    warm_start: bool = True
    seed_cache_capacity: int = 256
    warm_start_max_distance: float | None = None
    seed_k: int = DEFAULT_K
    seed_limit_penalty: float = DEFAULT_LIMIT_PENALTY
    options: ExecutionOptions = ExecutionOptions(on_error="skip")

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.dispatch_workers < 1:
            raise ValueError("dispatch_workers must be >= 1")
        if self.seed_cache_capacity < 0:
            raise ValueError("seed_cache_capacity must be >= 0")
        distance = self.warm_start_max_distance
        if distance is not None and distance < 0:
            raise ValueError("warm_start_max_distance must be >= 0 (or None)")
        if self.seed_k < 1:
            raise ValueError("seed_k must be >= 1")
        if self.seed_limit_penalty < 0:
            raise ValueError("seed_limit_penalty must be >= 0")
        if not isinstance(self.options, ExecutionOptions):
            raise TypeError(
                "options must be ExecutionOptions, got "
                f"{type(self.options).__name__}"
            )


@dataclass
class ServingStats:
    """Aggregate gauges/counters for one server's lifetime.

    ``queue_depth_peak`` and the occupancy fields are the gauges the
    telemetry counters cannot carry (counters only add); everything else
    mirrors a counter so :meth:`to_dict` is a self-contained health
    snapshot for dashboards and ``BENCH_serving.json``.  Ratios that are
    undefined before any traffic (``mean_occupancy``, ``cache_hit_rate``,
    …) render as ``None`` in :meth:`to_dict` so the snapshot always
    survives strict JSON.

    For a key served by admission, a *batch* is one lock-step run:
    ``batches`` counts runs opened, ``requests_batched`` the requests
    admitted into them, ``occupancy_peak`` the most rows one run held at
    once (never above ``max_batch_size``) and ``execute_s`` the runs'
    lifetimes so far: a live run adds its time at every iteration
    boundary, not only when it ends.
    ``coalesce_wait_s`` is each request's time from submission to
    admission.  For every other key a batch is one ``api.solve_batch``
    call, as before.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_overloaded: int = 0
    rejected_deadline: int = 0
    rejected_shed: int = 0
    expired_in_queue: int = 0
    batches: int = 0
    requests_batched: int = 0
    occupancy_peak: int = 0
    queue_depth_peak: int = 0
    inflight_peak: int = 0
    coalesce_wait_s: float = 0.0
    coalesce_wait_peak_s: float = 0.0
    execute_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    warm_requests: int = 0
    warm_iterations: int = 0
    cold_requests: int = 0
    cold_iterations: int = 0

    @property
    def mean_occupancy(self) -> float:
        """Requests per batch (the coalescing win): per executed
        micro-batch, or per run for a key served by admission."""
        return self.requests_batched / self.batches if self.batches else float("nan")

    @property
    def mean_coalesce_wait_s(self) -> float:
        if not self.requests_batched:
            return float("nan")
        return self.coalesce_wait_s / self.requests_batched

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else float("nan")

    @property
    def mean_warm_iterations(self) -> float:
        """Mean solver iterations across warm-started completions."""
        if not self.warm_requests:
            return float("nan")
        return self.warm_iterations / self.warm_requests

    @property
    def mean_cold_iterations(self) -> float:
        """Mean solver iterations across cold-seeded completions."""
        if not self.cold_requests:
            return float("nan")
        return self.cold_iterations / self.cold_requests

    @property
    def warm_iteration_reduction(self) -> float:
        """Fractional in-stream iteration saving of warm vs cold starts.

        Needs both populations in the same stream to be defined; the
        serve-bench additionally measures the reduction against a
        dedicated cold-seed baseline re-solve of the same requests.
        """
        cold = self.mean_cold_iterations
        warm = self.mean_warm_iterations
        if not np.isfinite(cold) or not np.isfinite(warm) or cold <= 0:
            return float("nan")
        return 1.0 - warm / cold

    def to_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_overloaded": self.rejected_overloaded,
            "rejected_deadline": self.rejected_deadline,
            "rejected_shed": self.rejected_shed,
            "expired_in_queue": self.expired_in_queue,
            "batches": self.batches,
            "requests_batched": self.requests_batched,
            "mean_occupancy": _finite_or_none(self.mean_occupancy),
            "occupancy_peak": self.occupancy_peak,
            "queue_depth_peak": self.queue_depth_peak,
            "inflight_peak": self.inflight_peak,
            "mean_coalesce_wait_s": _finite_or_none(self.mean_coalesce_wait_s),
            "coalesce_wait_peak_s": self.coalesce_wait_peak_s,
            "execute_s": self.execute_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": _finite_or_none(self.cache_hit_rate),
            "warm_requests": self.warm_requests,
            "mean_warm_iterations": _finite_or_none(self.mean_warm_iterations),
            "cold_requests": self.cold_requests,
            "mean_cold_iterations": _finite_or_none(self.mean_cold_iterations),
            "warm_iteration_reduction": _finite_or_none(
                self.warm_iteration_reduction
            ),
        }


class IKServer:
    """In-process IK serving with continuous batching.

    Usage::

        from repro.serving import IKServer, ServerConfig, SolveRequest

        with IKServer(ServerConfig(max_batch_size=64,
                                   dispatch_workers=4)) as srv:
            futures = [
                srv.submit(SolveRequest("dadu-50dof", t, seed=i))
                for i, t in enumerate(targets)
            ]
            results = [f.result() for f in futures]

    ``submit`` raises the structured rejection taxonomy
    (:class:`~repro.serving.request.Overloaded` /
    :class:`~repro.serving.request.DeadlineExceeded` /
    :class:`~repro.serving.request.ServerClosed`) synchronously; a request
    whose deadline expires *while queued* completes its future with
    :class:`~repro.serving.request.DeadlineExceeded`, and one predicted to
    miss its deadline completes with
    :class:`~repro.serving.request.SloShed` instead of being solved late.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self._tracer = tracer
        self._cond = threading.Condition()
        self._batcher = MicroBatcher(self.config.max_batch_size)
        self._seed_cache = (
            SeedCache(
                capacity=self.config.seed_cache_capacity,
                max_distance=self.config.warm_start_max_distance,
                k=self.config.seed_k,
                limit_penalty=self.config.seed_limit_penalty,
            )
            if self.config.seed_cache_capacity > 0
            else None
        )
        self._stats = ServingStats()
        self._chains: dict[str, KinematicChain] = {}
        self._threads: list[threading.Thread] = []
        #: Per-group EWMA of execution seconds (the SLO predictor).
        self._exec_ewma: dict[GroupKey, float] = {}
        #: Keys -> their live admission runs that have room for more rows.
        self._admitting: collections.Counter = collections.Counter()
        self._inflight = 0
        self._closing = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "IKServer":
        """Launch the dispatch loops (idempotent; ``submit`` auto-starts)."""
        with self._cond:
            if self._closed:
                raise ServerClosed.from_request("server already closed")
            if not self._threads:
                self._threads = [
                    threading.Thread(
                        target=self._worker, name=f"ik-server-{i}", daemon=True
                    )
                    for i in range(self.config.dispatch_workers)
                ]
                for thread in self._threads:
                    thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop the dispatch loops.

        ``drain=True`` (default) solves everything still queued before
        returning; ``drain=False`` fails every pending
        future with :class:`~repro.serving.request.ServerClosed`.
        Idempotent, and safe to call concurrently with ``submit`` (late
        submissions raise :class:`~repro.serving.request.ServerClosed`;
        admitted ones keep their future).
        """
        with self._cond:
            if self._closed:
                return
            self._closing = True
            if not drain:
                for entry in self._batcher.drain():
                    self._fail_future(entry.future, ServerClosed.from_request(
                        "server closed before execution", entry.key.solver
                    ))
            self._cond.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join()
        with self._cond:
            self._closed = True

    def __enter__(self) -> "IKServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close(drain=True)

    # -- submission ------------------------------------------------------

    def submit(self, request: SolveRequest) -> concurrent.futures.Future:
        """Admit one request; returns the future of its ``IKResult``.

        Raises :class:`Overloaded` when the bounded queue is full,
        :class:`DeadlineExceeded` when the request arrives with a
        non-positive budget, :class:`ServerClosed` after shutdown began.
        """
        chain = self._resolve_chain(request.robot)
        target = request.target_array()
        config = _resolve_config(
            request.config, request.tolerance, request.max_iterations
        )
        key = GroupKey(
            robot_key=(
                request.robot if isinstance(request.robot, str) else id(chain)
            ),
            solver=request.solver,
            config_key=config,
            options_key=tuple(sorted(
                (name, repr(value)) for name, value in request.options.items()
            )),
        )
        tr = self._tracer if self._tracer is not None else get_tracer()
        with self._cond:
            if self._closing or self._closed:
                raise ServerClosed.from_request(
                    "server is shutting down", request.solver
                )
            if request.deadline_s is not None and request.deadline_s <= 0:
                self._stats.rejected_deadline += 1
                if tr.enabled:
                    tr.count("serve_deadline_expired")
                raise DeadlineExceeded.from_request(
                    f"deadline_s={request.deadline_s} already expired at "
                    "admission", request.solver,
                )
            if self._batcher.pending_count >= self.config.max_queue:
                self._stats.rejected_overloaded += 1
                if tr.enabled:
                    tr.count("serve_overloaded")
                raise Overloaded.from_request(
                    f"queue full ({self.config.max_queue} pending)",
                    request.solver,
                )
            now = time.monotonic()
            q0, warm = self._resolve_q0(chain, request, target, tr)
            entry = PendingEntry(
                request=request,
                chain=chain,
                key=key,
                target=target,
                q0=q0,
                future=concurrent.futures.Future(),
                enqueue_t=now,
                expiry=(
                    now + request.deadline_s
                    if request.deadline_s is not None else None
                ),
                warm_started=warm,
            )
            self._batcher.add(entry)
            self._stats.submitted += 1
            self._stats.queue_depth_peak = max(
                self._stats.queue_depth_peak, self._batcher.pending_count
            )
            if tr.enabled:
                tr.count("serve_requests")
            if key not in self._admitting:
                # A live run with room takes the entry at its next
                # iteration; no dispatch loop needs waking for it.
                self._cond.notify_all()
        if not self._threads:
            self.start()
        return entry.future

    def solve(
        self, request: SolveRequest, timeout: float | None = None
    ) -> Any:
        """Blocking sugar: ``submit(request).result(timeout)``."""
        return self.submit(request).result(timeout)

    # -- introspection ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests queued and not yet taken by a loop or run (live gauge)."""
        with self._cond:
            return self._batcher.pending_count

    def warm_seed(
        self, robot: Any, target: np.ndarray
    ) -> "np.ndarray | None":
        """Ranked warm-start seed for ``target``, or ``None`` on a miss.

        The session layer's first-tick fallback: a locked lookup into the
        server's :class:`~repro.serving.seeds.SeedCache` (which is not
        thread-safe on its own).  Pure lookup — hit/miss counters are the
        caller's concern, and nothing is recorded.
        """
        if self._seed_cache is None:
            return None
        chain = self._resolve_chain(robot)
        target = np.asarray(target, dtype=float)
        with self._cond:
            return self._seed_cache.lookup(chain, target)

    def stats(self) -> ServingStats:
        """A consistent snapshot of the server's lifetime stats."""
        with self._cond:
            snapshot = replace(self._stats)
            if self._seed_cache is not None:
                snapshot.cache_hits = self._seed_cache.stats.hits
                snapshot.cache_misses = self._seed_cache.stats.misses
        return snapshot

    # -- internals -------------------------------------------------------

    def _resolve_chain(self, robot: Any) -> KinematicChain:
        if isinstance(robot, str):
            chain = self._chains.get(robot)
            if chain is None:
                chain = resolve_robot(robot)
                self._chains[robot] = chain
            return chain
        return resolve_robot(robot)

    def _resolve_q0(
        self, chain: KinematicChain, request: SolveRequest,
        target: np.ndarray, tr: Tracer,
    ) -> "tuple[np.ndarray, bool]":
        """The entry's initial configuration, resolved at admission.

        Precedence: explicit ``q0`` > warm-start cache hit > the same
        seeded draw a direct ``api.solve(..., seed=s)`` performs.  Called
        under the server lock (the seed cache is not thread-safe).
        """
        if request.q0 is not None:
            q0 = np.asarray(request.q0, dtype=float)
            if q0.shape != (chain.dof,):
                raise ValueError(
                    f"q0 must have shape ({chain.dof},), got {q0.shape}"
                )
            return q0.copy(), False
        warm = (
            request.warm_start
            if request.warm_start is not None
            else self.config.warm_start
        )
        if warm and self._seed_cache is not None:
            cached = self._seed_cache.lookup(chain, target)
            if tr.enabled:
                tr.count(
                    "serve_cache_hits" if cached is not None
                    else "serve_cache_misses"
                )
            if cached is not None:
                return cached, True
        rng = np.random.default_rng(request.seed)
        return chain.random_configuration(rng), False

    def _worker(self) -> None:
        """One dispatch loop: take the oldest queue, execute it, repeat.

        ``pop_one`` hands each loop one batch at a time, so with N loops
        up to N batches (or admission runs) execute concurrently while
        coalescing continues — an in-flight batch no longer serialises the
        whole server.  Keys with a live admission run that has room are
        excluded: their requests join that run instead.  With nothing to
        take, the loop sleeps on the condition until a submission, a run
        that stops admitting, or ``close`` notifies it.
        """
        tr = self._tracer if self._tracer is not None else get_tracer()
        while True:
            with self._cond:
                while True:
                    batch = self._batcher.pop_one(exclude=self._admitting)
                    if batch is not None:
                        self._inflight += 1
                        self._stats.inflight_peak = max(
                            self._stats.inflight_peak, self._inflight
                        )
                        admits = self._admits(batch.key)
                        if admits:
                            self._set_room(
                                batch.key, False,
                                len(batch) < self.config.max_batch_size,
                            )
                        break
                    if self._closing and self._batcher.pending_count == 0:
                        return
                    self._cond.wait()
            try:
                if admits:
                    self._serve_run(batch, tr)
                else:
                    self._execute(batch, tr)
            finally:
                with self._cond:
                    self._inflight -= 1

    @staticmethod
    def _fail_future(future: concurrent.futures.Future, exc: Exception) -> None:
        if not future.done():
            future.set_exception(exc)

    @staticmethod
    def _complete_future(future: concurrent.futures.Future, result: Any) -> None:
        if not future.cancelled():
            future.set_result(result)

    def _fail_batch(
        self, entries: "list[PendingEntry]", exc: Exception
    ) -> None:
        """``on_error="raise"`` semantics: the failure is shared batch-wide,
        exactly as one ``solve_batch`` caller would have seen it."""
        for entry in entries:
            self._fail_future(entry.future, exc)
        with self._cond:
            self._stats.failed += len(entries)
            self._stats.batches += 1
            self._stats.requests_batched += len(entries)

    def _triage(
        self, key: GroupKey, entries: "list[PendingEntry]", now: float,
        tr: Tracer,
    ) -> "list[PendingEntry]":
        """Deadline triage at dispatch: drop the expired, shed the doomed.

        Expired entries fail with :class:`DeadlineExceeded`.  When SLO
        shedding is enabled and this group has an execution-time estimate,
        entries whose deadline precedes ``now + estimate`` fail with
        :class:`SloShed` — the server refuses work it predicts the client
        cannot use, and spends the solver time on requests that can still
        make their SLO.  The estimate is an EWMA of the group's batch
        execution time or, for a key served by admission, of a request's
        time from admission to completion.
        """
        predicted = (
            self._exec_ewma.get(key)
            if self.config.slo_shedding else None
        )
        live: list[PendingEntry] = []
        for entry in entries:
            if entry.expiry is None:
                live.append(entry)
                continue
            if now > entry.expiry:
                self._fail_future(entry.future, DeadlineExceeded.from_request(
                    f"expired after {now - entry.enqueue_t:.4f}s in queue",
                    key.solver,
                ))
                with self._cond:
                    self._stats.expired_in_queue += 1
                if tr.enabled:
                    tr.count("serve_deadline_expired")
            elif predicted is not None and now + predicted > entry.expiry:
                self._fail_future(entry.future, SloShed.from_request(
                    f"predicted solve time {predicted:.4f}s exceeds the "
                    f"remaining {entry.expiry - now:.4f}s budget",
                    key.solver,
                ))
                with self._cond:
                    self._stats.rejected_shed += 1
                if tr.enabled:
                    tr.count("serve_shed")
            else:
                live.append(entry)
        return live

    def _record_exec(self, key: GroupKey, seconds: float) -> None:
        """Fold one execution time into the key's SLO estimate (lock held)."""
        prev = self._exec_ewma.get(key)
        self._exec_ewma[key] = (
            seconds if prev is None
            else EXEC_EWMA_ALPHA * seconds + (1 - EXEC_EWMA_ALPHA) * prev
        )

    def _note_dispatch(
        self, entries: "list[PendingEntry]", now: float, tr: Tracer,
        occupancy: int,
    ) -> None:
        """Account entries entering execution: their coalesce waits, and
        the ``occupancy`` (rows executing together) they bring about."""
        waits = [now - entry.enqueue_t for entry in entries]
        if tr.enabled:
            tr.add_phase("serve_coalesce", sum(waits))
        with self._cond:
            stats = self._stats
            stats.requests_batched += len(entries)
            stats.coalesce_wait_s += sum(waits)
            stats.coalesce_wait_peak_s = max(
                stats.coalesce_wait_peak_s, max(waits)
            )
            stats.occupancy_peak = max(stats.occupancy_peak, occupancy)

    def _finish(
        self, finished: "list[tuple[PendingEntry, Any]]", tr: Tracer,
        key: GroupKey | None = None, fingerprint: bytes | None = None,
    ) -> None:
        """Complete solved requests: telemetry first, then the futures.

        With ``key``, each result's ``wall_time`` (its time in the run)
        also feeds the key's SLO estimate.  ``fingerprint`` is the
        requests' chain's, taken when their batch or run started: a
        converged result is filed under it in the seed cache.
        """
        warm_iters = cold_iters = warm_n = cold_n = 0
        for entry, res in finished:
            if entry.warm_started:
                warm_n += 1
                warm_iters += res.iterations
            else:
                cold_n += 1
                cold_iters += res.iterations
        # Emit the telemetry *before* completing any future: a caller
        # chaining submissions off a result (e.g. a tracking session
        # awaiting tick N before submitting tick N+1) then observes a
        # deterministic counter sequence, which the golden trace fixture
        # relies on.
        if tr.enabled:
            if warm_iters:
                tr.count("serve_warm_iterations", warm_iters)
            if cold_iters:
                tr.count("serve_cold_iterations", cold_iters)
        with self._cond:
            for entry, res in finished:
                if self._seed_cache is not None and res.converged:
                    self._seed_cache.record(
                        entry.chain, entry.target, res.q, fingerprint
                    )
                self._complete_future(entry.future, res)
                if key is not None:
                    self._record_exec(key, res.wall_time)
            stats = self._stats
            stats.completed += len(finished)
            stats.warm_requests += warm_n
            stats.warm_iterations += warm_iters
            stats.cold_requests += cold_n
            stats.cold_iterations += cold_iters

    def _execute(self, batch: MicroBatch, tr: Tracer) -> None:
        """Solve one micro-batch with one ``api.solve_batch`` call."""
        from repro import api

        now = time.monotonic()
        live = self._triage(batch.key, batch.entries, now, tr)
        if not live:
            return
        fingerprint = self._fingerprint(live[0].chain)
        start = time.perf_counter()
        try:
            result = api.solve_batch(
                live[0].chain,
                np.stack([entry.target for entry in live]),
                batch.key.solver,
                q0=np.stack([entry.q0 for entry in live]),
                config=batch.key.config_key,
                options=self.config.options,
                tracer=tr,
                **live[0].request.options,
            )
        except Exception as exc:
            self._fail_batch(live, exc)
            return
        elapsed = time.perf_counter() - start
        if tr.enabled:
            tr.count("serve_batches")
            tr.add_phase("serve_execute", elapsed)
        self._note_dispatch(live, now, tr, occupancy=len(live))
        with self._cond:
            self._record_exec(batch.key, elapsed)
            self._stats.batches += 1
            self._stats.execute_s += elapsed
        self._finish(list(zip(live, result)), tr, fingerprint=fingerprint)

    # -- iteration-level admission ---------------------------------------

    def _admits(self, key: GroupKey) -> bool:
        """Whether ``key`` is served by admission into a lock-step run."""
        opts = self.config.options
        return (
            key.solver in BATCH_REGISTRY
            and opts.workers in (None, 1)
            and opts.on_error in ("raise", "skip")
            and not opts.resilience
            and (key.config_key is None or key.config_key.watchdog is None)
        )

    def _set_room(self, key: GroupKey, had_room: bool, has_room: bool) -> bool:
        """Keep the other dispatch loops off ``key`` while one of its runs
        has room (lock held); returns ``has_room``."""
        if has_room != had_room:
            self._admitting[key] += 1 if has_room else -1
            if not has_room:
                # The key may be poppable again.
                if not self._admitting[key]:
                    del self._admitting[key]
                self._cond.notify_all()
        return has_room

    def _next_wave(
        self, run: LockStepRun, key: GroupKey, has_room: bool
    ) -> "tuple[list[PendingEntry], bool]":
        """At an iteration boundary (lock held): take the queued requests
        of ``key`` the run has room for.  Returns them with the run's new
        room flag, which is false once the run has ended (no live rows and
        nothing to admit)."""
        limit = self.config.max_batch_size
        starving = (
            not self._closing
            and self._inflight >= self.config.dispatch_workers
            and self._batcher.has_queued(exclude=self._admitting.keys() | {key})
        )
        entries = (
            [] if starving else self._batcher.take(key, limit - run.live)
        )
        if self._closing and entries and not self._batcher.pending_count:
            self._cond.notify_all()
        room = bool(run.live or entries) and run.live + len(entries) < limit
        return entries, self._set_room(key, has_room, room)

    def _fingerprint(self, chain: KinematicChain) -> bytes | None:
        """``chain``'s seed-cache fingerprint, ``None`` with no cache."""
        return None if self._seed_cache is None else chain_fingerprint(chain)

    def _admit(
        self, run: LockStepRun, key: GroupKey,
        entries: "list[PendingEntry]", tr: Tracer,
        sphere: "tuple[np.ndarray, float] | None",
        held: "dict[int, PendingEntry]",
    ) -> "list[tuple[PendingEntry, Any]]":
        """Admit ``entries`` into ``run``; returns the admitted rows that
        finished at once.  The rows handed to the run are added to
        ``held`` (keyed by ``id``) first.

        Deadline triage and SLO shedding apply as at dispatch.  The target
        guards apply where offline ``api.solve_batch`` applies them (it
        shards under ``on_error="skip"`` or ``workers=1``): a rejected
        target gets its typed placeholder result under ``"skip"``, and a
        fatal one fails its own future with a ``GuardViolation`` under
        ``"raise"``.  A placeholder completes here: it never ran, so its
        zero wall time stays out of the key's SLO estimate.  ``sphere``
        is the run chain's :func:`~repro.resilience.guards.reach_sphere`,
        taken once per run.
        """
        if not entries:
            return []
        now = time.monotonic()
        entries = self._triage(key, entries, now, tr)
        if not entries:
            return []
        engine = run.engine
        skip = self.config.options.on_error == "skip"
        placeholders: list[tuple[PendingEntry, Any]] = []
        rejected = set()
        targets = np.stack([entry.target for entry in entries])
        guarded = (
            guard_targets(engine.chain, targets, sphere=sphere)
            if sphere is not None else []
        )
        for record in guarded:
            entry = entries[record.index]
            if skip:
                placeholders.append((entry, rejected_result(
                    engine.chain, entry.target, engine.name,
                    status=record.kind, q=np.array(entry.q0, dtype=float),
                )))
            elif record.kind in FATAL_GUARD_KINDS:
                self._fail_future(entry.future, GuardViolation(
                    FailureReport([replace(record, index=0)])
                ))
                with self._cond:
                    self._stats.failed += 1
            else:
                continue  # advisory under "raise": solved anyway
            rejected.add(record.index)
        if tr.enabled and placeholders:
            tr.count("guard_rejected", len(placeholders))
            tr.count("solve_failed", len(placeholders))
        rows = entries
        if rejected:
            kept = [i for i in range(len(entries)) if i not in rejected]
            rows, targets = [entries[i] for i in kept], targets[kept]
        self._note_dispatch(entries, now, tr, occupancy=run.live + len(rows))
        if placeholders:
            self._finish(placeholders, tr)
        if not rows:
            return []
        held.update((id(entry), entry) for entry in rows)
        return run.admit(targets, np.stack([entry.q0 for entry in rows]), rows)

    def _serve_run(self, batch: MicroBatch, tr: Tracer) -> None:
        """Serve ``batch``'s key on one resumable lock-step run until it
        drains.

        Each boundary steps the run, completes the retired rows' futures
        and only then takes the key's next wave, so a client that
        resubmits on completion joins at this boundary.  A boundary that
        completed a future first yields the GIL once, outside the lock:
        the woken client submits now, not when a GIL-releasing call in
        the next iteration lets it run, too late to join before it.  The
        lock the boundary takes for the wave also adds the time since the
        last boundary to ``execute_s`` (and the ``serve_execute`` phase),
        so a long-lived run shows in :meth:`stats` as it goes.  The run
        ends when no row is live after the wave."""
        key = batch.key
        entries = batch.entries
        has_room = len(entries) < self.config.max_batch_size
        start = last = time.perf_counter()
        #: Requests handed to the run and not completed yet.
        rows: dict[int, PendingEntry] = {}
        run = None
        try:
            # Built exactly as ``api.solve_batch`` builds it for this key
            # (the kernel applied here, not at submission: coalescing keys
            # an ad-hoc chain by identity).
            run = make_batch_solver(
                key.solver, entries[0].chain, config=key.config_key,
                options=ExecutionOptions(kernel=self.config.options.kernel),
                **entries[0].request.options,
            ).open_run(tr)
            if tr.enabled:
                tr.count("serve_batches")
            with self._cond:
                self._stats.batches += 1
            # Constants of the chain, taken once per run: results are
            # filed under the geometry the run opened with.
            sphere = (
                reach_sphere(run.engine.chain)
                if self.config.options.needs_sharding else None
            )
            fingerprint = self._fingerprint(entries[0].chain)
            while True:
                finished = self._admit(run, key, entries, tr, sphere, rows)
                if run.live:
                    finished += run.step()
                if finished:
                    self._finish(finished, tr, key, fingerprint)
                    for entry, _ in finished:
                        del rows[id(entry)]
                    time.sleep(0)
                now = time.perf_counter()
                with self._cond:
                    self._stats.execute_s += now - last
                    entries, has_room = self._next_wave(run, key, has_room)
                if tr.enabled:
                    tr.add_phase("serve_execute", now - last)
                last = now
                if not run.live and not entries:
                    run.close(wall_time=now - start)
                    return
        except Exception as exc:
            # Bad numerics retire typed, so this is a defect (or, at the
            # engine build, a bad option): fail what the run still holds
            # and the wave it was taking.
            with self._cond:
                self._set_room(key, has_room, False)
            if run is None:
                self._fail_batch(entries, exc)
                return
            now = time.perf_counter()
            run.close(wall_time=now - start)
            if tr.enabled:
                tr.add_phase("serve_execute", now - last)
            held = {id(entry): entry for entry in (*rows.values(), *entries)}
            pending = [e for e in held.values() if not e.future.done()]
            for entry in pending:
                self._fail_future(entry.future, exc)
            with self._cond:
                self._stats.execute_s += now - last
                self._stats.failed += len(pending)

    def __repr__(self) -> str:
        return (
            f"IKServer(max_batch_size={self.config.max_batch_size}, "
            f"dispatch_workers={self.config.dispatch_workers}, "
            f"on_error={self.config.options.on_error!r}, "
            f"queue_depth={self.queue_depth})"
        )
