"""Streaming trajectory sessions on top of :class:`~repro.serving.server.IKServer`.

A tracking client does not submit independent requests: it streams target
*ticks* along a trajectory, and the best seed for tick ``N`` is the solution
of tick ``N-1``.  This module gives that client a first-class handle:

* :class:`SessionManager` — opens/evicts sessions against one server:
  bounded session count (``max_sessions``), idle-expiry eviction
  (``idle_expiry_s``, checked lazily against an injectable clock so
  lifecycle logic is unit-testable without sleeps), aggregate stats.
* :class:`TrackingSession` — one client's stream.  ``tick(target)`` waits
  for the previous tick's result, carries its solution forward as the next
  explicit ``q0`` (the shared :func:`~repro.control.trajectory.next_seed`
  contract — an unconverged or non-finite result keeps the previous seed),
  and submits to the server.  The first tick falls back to the server's
  ranked :class:`~repro.serving.seeds.SeedCache`, then to the same seeded
  draw a direct ``api.solve(..., seed=s)`` performs.

Because every tick is admitted with an **explicit** ``q0`` resolved at the
session layer, a streamed session is bit-identical to an offline loop that
solves the same targets sequentially with warm-started seeds — invariant
across ``dispatch_workers`` counts and concurrent interleaved sessions
(``tests/serving/test_sessions.py`` pins exactly that equivalence).

Telemetry counters (through the standard tracer): ``serve_session_opened``
/ ``serve_session_closed`` / ``serve_session_expired`` /
``serve_session_rejected`` / ``serve_session_ticks`` /
``serve_session_warm_ticks`` / ``serve_session_cold_ticks``.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api import _resolve_config
from repro.control.trajectory import next_seed
from repro.serving.request import DEFAULT_SOLVER, ServingRejected, SolveRequest
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = [
    "SessionConfig",
    "SessionStats",
    "SessionRejected",
    "SessionLimit",
    "SessionExpired",
    "SessionClosed",
    "TrackingSession",
    "SessionManager",
]


class SessionRejected(ServingRejected):
    """Base class: the session layer refused an open or a tick."""

    kind = "session_rejected"


class SessionLimit(SessionRejected):
    """``max_sessions`` live sessions and none were idle-expirable."""

    kind = "session_limit"


class SessionExpired(SessionRejected):
    """The session idled past ``idle_expiry_s`` and was evicted."""

    kind = "session_expired"


class SessionClosed(SessionRejected):
    """The session (or its manager) was closed before this tick."""

    kind = "session_closed"


@dataclass(frozen=True)
class SessionConfig:
    """Policy knobs for one :class:`SessionManager`.

    Parameters
    ----------
    max_sessions:
        Bound on concurrently open sessions.  Opening past it first tries
        to evict idle-expired sessions; if none can be evicted the open is
        rejected with :class:`SessionLimit`.
    idle_expiry_s:
        A session untouched (no open/tick) for longer than this is
        evicted lazily — on the next manager interaction that looks at it.
        ``None`` disables idle expiry.
    """

    max_sessions: int = 64
    idle_expiry_s: float | None = 30.0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.idle_expiry_s is not None and self.idle_expiry_s <= 0:
            raise ValueError("idle_expiry_s must be positive (or None)")


@dataclass
class SessionStats:
    """Per-session accounting (strict-JSON-safe via :meth:`to_dict`)."""

    ticks: int = 0
    converged: int = 0
    warm_ticks: int = 0
    cold_ticks: int = 0
    warm_iterations: int = 0
    cold_iterations: int = 0
    rejected: int = 0

    @property
    def iterations(self) -> int:
        return self.warm_iterations + self.cold_iterations

    @property
    def mean_iterations(self) -> float | None:
        done = self.warm_ticks + self.cold_ticks
        return self.iterations / done if done else None

    @property
    def mean_warm_iterations(self) -> float | None:
        return (
            self.warm_iterations / self.warm_ticks if self.warm_ticks else None
        )

    @property
    def mean_cold_iterations(self) -> float | None:
        return (
            self.cold_iterations / self.cold_ticks if self.cold_ticks else None
        )

    @property
    def warm_reduction(self) -> float | None:
        """In-session iteration saving of chained vs cold-seeded ticks."""
        warm = self.mean_warm_iterations
        cold = self.mean_cold_iterations
        if warm is None or cold is None or cold <= 0:
            return None
        return 1.0 - warm / cold

    def to_dict(self) -> dict[str, Any]:
        return {
            "ticks": self.ticks,
            "converged": self.converged,
            "warm_ticks": self.warm_ticks,
            "cold_ticks": self.cold_ticks,
            "rejected": self.rejected,
            "mean_iterations": self.mean_iterations,
            "mean_warm_iterations": self.mean_warm_iterations,
            "mean_cold_iterations": self.mean_cold_iterations,
            "warm_reduction": self.warm_reduction,
        }


class TrackingSession:
    """One client's target stream against a shared server.

    Built by :meth:`SessionManager.open`; not constructed directly.  A
    session is a *sequential* stream: ``tick`` waits on the previous
    tick's future to resolve the warm-start seed before submitting, so
    per-session results are deterministic regardless of how the server
    batches or how many dispatch loops drain it.  Distinct sessions are
    independent and may tick concurrently from different threads.
    """

    def __init__(
        self,
        manager: "SessionManager",
        session_id: int,
        robot: Any,
        solver: str,
        seed: int | None,
        q0: np.ndarray | None,
        config: Any,
        tolerance: float | None,
        max_iterations: int | None,
        options: dict[str, Any] | None,
    ) -> None:
        self._manager = manager
        self.session_id = session_id
        self.robot = robot
        self.solver = solver
        self.seed = seed
        # Resolved once: every tick submits this one config object.
        self._config = _resolve_config(config, tolerance, max_iterations)
        self._options = dict(options) if options else {}
        self._chain = manager.server._resolve_chain(robot)
        if q0 is not None:
            q0 = np.asarray(q0, dtype=float)
            if q0.shape != (self._chain.dof,):
                raise ValueError(
                    f"q0 must have shape ({self._chain.dof},), got {q0.shape}"
                )
            q0 = q0.copy()
        self._seed_q: np.ndarray | None = q0
        self._pending: concurrent.futures.Future | None = None
        self._lock = threading.Lock()
        self.stats = SessionStats()
        self.state = "open"  # open | closed | expired
        self.last_used = manager._now()

    # -- seed resolution -------------------------------------------------

    def _first_seed(self, target: np.ndarray, tr: Tracer) -> np.ndarray:
        """First-tick fallback: ranked cache hit, else the seeded draw."""
        cached = self._manager.server.warm_seed(self._chain, target)
        if cached is not None:
            if tr.enabled:
                tr.count("serve_cache_hits")
            return cached
        if tr.enabled:
            tr.count("serve_cache_misses")
        # Exactly the draw ``api.solve(..., seed=s)`` performs, so the
        # offline differential reference can reproduce tick 0 bit-for-bit.
        rng = np.random.default_rng(self.seed)
        return self._chain.random_configuration(rng)

    def _await_pending(self) -> None:
        """Fold the previous tick's result into the seed state."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        try:
            result = pending.result()
        except ServingRejected:
            # The tick was shed/expired server-side: the seed state is
            # unchanged — the next tick re-solves from the last good seed.
            self.stats.rejected += 1
            return
        self._seed_q = next_seed(result, self._seed_q)

    # -- streaming -------------------------------------------------------

    def tick(
        self, target: Any, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Submit the next target of this stream; returns its future.

        Blocks until the *previous* tick's result is available (that
        result is the warm-start seed), then admits the new tick with an
        explicit ``q0``.  Raises :class:`SessionExpired` /
        :class:`SessionClosed` when the session is no longer live, and
        propagates the server's admission taxonomy (``Overloaded`` etc.)
        unchanged.
        """
        manager = self._manager
        tr = manager._tracer()
        manager._touch(self, tr)
        target = np.asarray(target, dtype=float)
        with self._lock:
            self._await_pending()
            warm = self._seed_q is not None
            if not warm:
                self._seed_q = self._first_seed(target, tr)
            if tr.enabled:
                tr.count("serve_session_ticks")
                tr.count(
                    "serve_session_warm_ticks" if warm
                    else "serve_session_cold_ticks"
                )
            request = SolveRequest(
                robot=self.robot,
                target=target,
                solver=self.solver,
                q0=self._seed_q,
                config=self._config,
                deadline_s=deadline_s,
                options=dict(self._options),
            )
            try:
                future = manager.server.submit(request)
            except ServingRejected:
                self.stats.rejected += 1
                if tr.enabled:
                    tr.count("serve_session_rejected")
                raise
            self.stats.ticks += 1
            future.add_done_callback(self._observe(warm))
            self._pending = future
            return future

    def _observe(self, warm: bool) -> Callable:
        def _cb(future: concurrent.futures.Future) -> None:
            try:
                result = future.result()
            except BaseException:
                return
            self.stats.converged += int(result.converged)
            if warm:
                self.stats.warm_ticks += 1
                self.stats.warm_iterations += result.iterations
            else:
                self.stats.cold_ticks += 1
                self.stats.cold_iterations += result.iterations
        return _cb

    def drain(self) -> None:
        """Block until the last submitted tick has a result."""
        with self._lock:
            self._await_pending()

    def close(self) -> None:
        """Close this session (idempotent).

        An in-flight tick keeps its future — admitted work is never
        abandoned — but further ``tick`` calls raise
        :class:`SessionClosed`.
        """
        self._manager._close(self, "closed")

    @property
    def last_q(self) -> np.ndarray | None:
        """The current warm-start seed (last good solution), if any."""
        with self._lock:
            self._await_pending()
            return None if self._seed_q is None else self._seed_q.copy()

    def __repr__(self) -> str:
        return (
            f"TrackingSession(id={self.session_id}, robot={self.robot!r}, "
            f"solver={self.solver!r}, state={self.state!r}, "
            f"ticks={self.stats.ticks})"
        )


class SessionManager:
    """Bounded, idle-expiring registry of tracking sessions on one server.

    Parameters
    ----------
    server:
        The :class:`~repro.serving.server.IKServer` ticks are submitted to.
    config:
        :class:`SessionConfig` policy (bound + idle expiry).
    clock:
        Monotonic-seconds callable; injectable so expiry/eviction logic is
        testable without wall-clock sleeps.
    tracer:
        Telemetry sink for the ``serve_session_*`` counters; defaults to
        the server's tracer (falling back to the process-global one).
    """

    def __init__(
        self,
        server,
        config: SessionConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Tracer | None = None,
    ) -> None:
        self.server = server
        self.config = config or SessionConfig()
        self._clock = clock
        self._tracer_override = tracer
        self._lock = threading.Lock()
        self._sessions: dict[int, TrackingSession] = {}
        self._next_id = 0
        self.opened = 0
        self.expired = 0
        #: Accounting folded in from closed/expired sessions, so
        #: :meth:`stats` totals survive session churn.
        self._retired = SessionStats()

    # -- plumbing --------------------------------------------------------

    def _now(self) -> float:
        return float(self._clock())

    def _tracer(self) -> Tracer:
        if self._tracer_override is not None:
            return self._tracer_override
        server_tracer = getattr(self.server, "_tracer", None)
        return server_tracer if server_tracer is not None else get_tracer()

    def _expire_locked(self, now: float, tr: Tracer) -> "list[int]":
        """Evict every idle-expired session (caller holds the lock)."""
        if self.config.idle_expiry_s is None:
            return []
        evicted = [
            sid for sid, session in self._sessions.items()
            if now - session.last_used > self.config.idle_expiry_s
        ]
        for sid in evicted:
            session = self._sessions.pop(sid)
            session.state = "expired"
            self.expired += 1
            self._fold_retired(session)
            if tr.enabled:
                tr.count("serve_session_expired")
        return evicted

    def _fold_retired(self, session: TrackingSession) -> None:
        s, total = session.stats, self._retired
        total.ticks += s.ticks
        total.converged += s.converged
        total.warm_ticks += s.warm_ticks
        total.cold_ticks += s.cold_ticks
        total.warm_iterations += s.warm_iterations
        total.cold_iterations += s.cold_iterations
        total.rejected += s.rejected

    def _touch(self, session: TrackingSession, tr: Tracer) -> None:
        """Lazy liveness check + idle-timestamp refresh for one tick."""
        with self._lock:
            now = self._now()
            self._expire_locked(now, tr)
            if session.state == "expired":
                raise SessionExpired.from_request(
                    f"session {session.session_id} idled past "
                    f"{self.config.idle_expiry_s}s and was evicted",
                    session.solver,
                )
            if session.state != "open":
                raise SessionClosed.from_request(
                    f"session {session.session_id} is closed", session.solver
                )
            session.last_used = now

    def _close(self, session: TrackingSession, state: str) -> None:
        tr = self._tracer()
        with self._lock:
            if session.state != "open":
                return
            session.state = state
            self._sessions.pop(session.session_id, None)
            self._fold_retired(session)
            if tr.enabled:
                tr.count("serve_session_closed")

    # -- public API ------------------------------------------------------

    def open(
        self,
        robot: Any,
        solver: str = DEFAULT_SOLVER,
        seed: int | None = None,
        q0: np.ndarray | None = None,
        config: Any = None,
        tolerance: float | None = None,
        max_iterations: int | None = None,
        options: dict[str, Any] | None = None,
    ) -> TrackingSession:
        """Open a new tracking session.

        ``seed`` pins the first tick's cold draw (when neither ``q0`` nor
        a seed-cache hit provides a better start) exactly as
        ``api.solve(..., seed=s)`` would; ``q0`` pins the first seed
        explicitly.  The remaining keywords are the per-request solve
        policy every tick inherits; ``config`` and ``tolerance`` /
        ``max_iterations`` are resolved into one config here, so passing
        both raises ``ValueError`` at the open.
        """
        tr = self._tracer()
        with self._lock:
            now = self._now()
            self._expire_locked(now, tr)
            if len(self._sessions) >= self.config.max_sessions:
                if tr.enabled:
                    tr.count("serve_session_rejected")
                raise SessionLimit.from_request(
                    f"{self.config.max_sessions} sessions already open",
                    solver,
                )
            session_id = self._next_id
            self._next_id += 1
            session = TrackingSession(
                self, session_id, robot, solver, seed, q0, config,
                tolerance, max_iterations, options,
            )
            self._sessions[session_id] = session
            self.opened += 1
            if tr.enabled:
                tr.count("serve_session_opened")
            return session

    def get(self, session_id: int) -> TrackingSession | None:
        """The live session with this id, or ``None``."""
        with self._lock:
            self._expire_locked(self._now(), self._tracer())
            return self._sessions.get(session_id)

    def expire_idle(self) -> "list[int]":
        """Eagerly evict idle-expired sessions; returns their ids."""
        with self._lock:
            return self._expire_locked(self._now(), self._tracer())

    def close_all(self) -> None:
        """Close every live session (their in-flight ticks keep futures)."""
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            self._close(session, "closed")

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict[str, Any]:
        """Aggregate session accounting, live + retired (strict-JSON-safe)."""
        with self._lock:
            sessions = list(self._sessions.values())
            opened, expired = self.opened, self.expired
            retired = self._retired
        total = SessionStats(**vars(retired))
        for session in sessions:
            s = session.stats
            total.ticks += s.ticks
            total.converged += s.converged
            total.warm_ticks += s.warm_ticks
            total.cold_ticks += s.cold_ticks
            total.warm_iterations += s.warm_iterations
            total.cold_iterations += s.cold_iterations
            total.rejected += s.rejected
        return {
            "opened": opened,
            "active": len(sessions),
            "expired": expired,
            **total.to_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"SessionManager(active={self.active_count}, "
            f"max_sessions={self.config.max_sessions}, "
            f"idle_expiry_s={self.config.idle_expiry_s})"
        )
