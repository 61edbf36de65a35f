"""Micro-batching scheduler: coalesce compatible requests, flush on triggers.

Dynamic batching exactly as an inference stack does it: requests arrive one
at a time, get grouped by a **compatibility key** — same robot, solver,
convergence config and solver options, i.e. everything that must agree for
the problems to advance through one vectorized lock-step batch — and each
group flushes when either trigger fires:

* **size** — the group reached its effective batch size (a full group
  flushes immediately; larger backlogs are chunked into full batches);
* **age** — the group's *oldest* request has waited its effective wait
  (bounded coalesce latency: a lone request is never held hostage waiting
  for batch-mates).

With ``adaptive=True`` the *effective* size/wait per group are tuned from
an EWMA of that group's inter-arrival times instead of being the static
``max_batch_size`` / ``max_wait_s`` (which remain hard ceilings):

* a **slow** group (expected arrivals within the static wait window < the
  static batch size) shrinks its size trigger toward what will actually
  show up — a lone request on an idle group flushes immediately instead of
  idling out the full static wait;
* a **fast** group keeps the full batch size but caps its wait at ~1.5x
  the predicted fill time (floored at a quarter of the static wait), so a
  straggling partial batch is not held long after the burst that fed it
  ended.

A group whose requests are being admitted into a live lock-step run is
not flushed at all: the server passes its key in ``exclude`` and takes the
group's requests itself, at the run's next iteration (:meth:`take`), so
the triggers above only decide when a *new* run starts.

The batcher is deliberately single-threaded and clock-free — arrival times
ride in on ``entry.enqueue_t`` and flush checks take ``now`` explicitly —
so the whole policy is unit-testable without timing sleeps;
:class:`~repro.serving.server.IKServer` owns the lock and the dispatch
threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Container

__all__ = ["GroupKey", "PendingEntry", "MicroBatch", "MicroBatcher"]

#: EWMA smoothing factor for per-group inter-arrival times.
EWMA_ALPHA = 0.2

#: Adaptive wait slack: a fast group's effective wait is this multiple of
#: its predicted batch fill time (capped at the static ``max_wait_s``).
FILL_SLACK = 1.5

#: Floor on the adaptively shrunk wait, as a fraction of the static
#: ``max_wait_s``.  Guards against sub-millisecond inter-arrival estimates
#: (a same-thread burst) collapsing the age trigger to effectively zero and
#: splitting batches on scheduler hiccups.
WAIT_FLOOR_FRACTION = 0.25

#: Bound on group objects retained after their queue empties.  The
#: arrival-rate estimate must survive flushes (a group empties on *every*
#: flush — wiping it would reset adaptation each batch, and a slow group's
#: lone-request fast path would never engage), but a server churning
#: through ad-hoc chain instances must not grow without bound.
MAX_IDLE_GROUPS = 256


@dataclass(frozen=True)
class GroupKey:
    """What must match for two requests to share a lock-step batch.

    ``robot_key`` is the robot name (or object id for ad-hoc chain
    instances); ``config_key`` / ``options_key`` are stable renderings of
    the resolved :class:`~repro.core.result.SolverConfig` and the solver
    options dict.
    """

    robot_key: Any
    solver: str
    config_key: Any
    options_key: Any


@dataclass
class PendingEntry:
    """One admitted request waiting to be batched.

    Everything the executor needs is resolved at admission: the chain, the
    per-request initial configuration ``q0`` (seed draw, warm-start hit or
    explicit), the absolute ``expiry`` (monotonic seconds, ``None`` for no
    deadline) and the caller's future.
    """

    request: Any
    chain: Any
    key: GroupKey
    target: Any
    q0: Any
    future: Any
    enqueue_t: float
    expiry: float | None = None
    warm_started: bool = False


@dataclass
class MicroBatch:
    """One flushed group slice, ready for lock-step execution."""

    key: GroupKey
    entries: list[PendingEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class _Group:
    """One compatibility group's queue plus its arrival-rate estimate."""

    entries: list[PendingEntry] = field(default_factory=list)
    ewma_dt: float | None = None
    last_arrival_t: float | None = None

    def observe_arrival(self, t: float) -> None:
        if self.last_arrival_t is not None:
            dt = max(0.0, t - self.last_arrival_t)
            self.ewma_dt = (
                dt if self.ewma_dt is None
                else EWMA_ALPHA * dt + (1.0 - EWMA_ALPHA) * self.ewma_dt
            )
        self.last_arrival_t = t


class MicroBatcher:
    """Per-group FIFO queues with (optionally adaptive) flush triggers."""

    def __init__(
        self,
        max_batch_size: int,
        max_wait_s: float,
        adaptive: bool = False,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.adaptive = bool(adaptive)
        self._groups: dict[GroupKey, _Group] = {}
        self._pending = 0
        #: Flush-policy evaluations where the adaptive triggers deviated
        #: from the static config (the server mirrors this into its stats).
        self.adaptive_adjustments = 0

    @property
    def pending_count(self) -> int:
        """Admitted-but-unflushed requests across all groups."""
        return self._pending

    def add(self, entry: PendingEntry) -> None:
        group = self._groups.get(entry.key)
        if group is None:
            if len(self._groups) >= MAX_IDLE_GROUPS:
                self._evict_idle_groups()
            group = self._groups[entry.key] = _Group()
        group.entries.append(entry)
        group.observe_arrival(entry.enqueue_t)
        self._pending += 1

    # -- flush policy ----------------------------------------------------

    def effective_params(self, key: GroupKey) -> tuple[int, float]:
        """The (size, wait) triggers currently governing ``key``'s group.

        Static unless ``adaptive`` and the group has an inter-arrival
        estimate.  The static config is always a ceiling: adaptation only
        ever shrinks a trigger.
        """
        group = self._groups.get(key)
        if (
            not self.adaptive
            or group is None
            or group.ewma_dt is None
        ):
            return self.max_batch_size, self.max_wait_s
        dt = group.ewma_dt
        if dt <= 0.0:
            # Coincident arrivals: a burst far faster than the clock can
            # resolve — the static triggers are already optimal.
            return self.max_batch_size, self.max_wait_s
        expected = self.max_wait_s / dt  # arrivals within the static window
        size = max(1, min(self.max_batch_size, math.ceil(expected)))
        if size < self.max_batch_size:
            # Slow group: fewer arrivals than a full batch are expected
            # within the window, so flush once the predicted cohort is in
            # (a lone request on an idle group is size-ready immediately)
            # instead of idling out the static wait.
            return size, self.max_wait_s
        # Fast group: the batch will fill on size; cap how long a trailing
        # partial batch lingers after its feeding burst ends, floored so a
        # micro-burst's tiny inter-arrival estimate cannot collapse the
        # trigger to ~zero.
        wait = min(self.max_wait_s, max(
            FILL_SLACK * dt * size,
            WAIT_FLOOR_FRACTION * self.max_wait_s,
        ))
        return size, wait

    def _group_ready(self, key: GroupKey, group: _Group, now: float) -> bool:
        size, wait = self.effective_params(key)
        return (
            len(group.entries) >= size
            or now - group.entries[0].enqueue_t >= wait
        )

    def _statically_ready(self, group: _Group, now: float) -> bool:
        return (
            len(group.entries) >= self.max_batch_size
            or now - group.entries[0].enqueue_t >= self.max_wait_s
        )

    def has_ready(self, now: float, exclude: Container = ()) -> bool:
        """Would :meth:`pop_one` return a batch at time ``now`` (from a
        group not in ``exclude``)?"""
        return any(
            group.entries
            and key not in exclude
            and self._group_ready(key, group, now)
            for key, group in self._groups.items()
        )

    def next_flush_at(self, exclude: Container = ()) -> float | None:
        """Earliest monotonic time an age trigger fires for a group not in
        ``exclude`` (None when there is none)."""
        oldest = [
            group.entries[0].enqueue_t + self.effective_params(key)[1]
            for key, group in self._groups.items()
            if group.entries and key not in exclude
        ]
        return min(oldest) if oldest else None

    def _evict_idle_groups(self) -> None:
        """Drop empty groups' rate state, oldest insertions first."""
        for key in [k for k, g in self._groups.items() if not g.entries]:
            del self._groups[key]
            if len(self._groups) < MAX_IDLE_GROUPS:
                return

    def take(self, key: GroupKey, count: int) -> list[PendingEntry]:
        """Remove and return up to ``count`` of ``key``'s oldest entries,
        due or not (a live run's admission)."""
        # The emptied group object is retained: its inter-arrival EWMA is
        # the adaptive policy's memory, and a group empties on every flush.
        group = self._groups.get(key)
        if group is None or count < 1:
            return []
        taken, group.entries = group.entries[:count], group.entries[count:]
        self._pending -= len(taken)
        return taken

    def pop_one(
        self, now: float, force: bool = False, exclude: Container = ()
    ) -> MicroBatch | None:
        """Remove and return the single oldest due batch, or ``None``.

        The unit of work for one dispatch thread: each call takes at most
        ``max_batch_size`` entries from the due group whose head is oldest,
        so N concurrent dispatch loops drain the queue in arrival order
        without one loop grabbing the whole backlog.  ``force=True`` treats
        every non-empty group as due (shutdown drain).  Groups in
        ``exclude`` are skipped.
        """
        best_key = None
        best_t = math.inf
        for key, group in self._groups.items():
            if not group.entries or key in exclude:
                continue
            if not force and not self._group_ready(key, group, now):
                continue
            head_t = group.entries[0].enqueue_t
            if head_t < best_t:
                best_key, best_t = key, head_t
        if best_key is None:
            return None
        if not force and not self._statically_ready(self._groups[best_key], now):
            self.adaptive_adjustments += 1
        return MicroBatch(
            key=best_key, entries=self.take(best_key, self.max_batch_size)
        )

    def drain(self) -> list[PendingEntry]:
        """Remove and return every pending entry, oldest first (no batching)."""
        entries = list(heapq.merge(
            *(group.entries for group in self._groups.values()),
            key=lambda e: e.enqueue_t,
        ))
        self._groups.clear()
        self._pending = 0
        return entries
