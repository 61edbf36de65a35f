"""Per-key FIFO queues: coalesce compatible requests, hand them out at once.

Requests arrive one at a time and are grouped by a **compatibility key** —
same robot, solver, convergence config and solver options, i.e.
everything that must agree for the problems to advance through one
vectorized lock-step batch.  Every queued request is due at once: there
is no size or age trigger.  A dispatch loop that is free takes the
oldest head among the keys it may serve (:meth:`MicroBatcher.pop_one`),
with at most ``max_batch_size`` entries, and a live lock-step run takes
its own key's requests at its next iteration (:meth:`MicroBatcher.take`).
Coalescing is continuous: a batch is whatever queued while every loop
was busy, and a run's rows are whatever joined it since it opened.

The batcher holds no lock and reads no clock, so its behaviour is a pure
function of the calls made on it;
:class:`~repro.serving.server.IKServer` owns the lock and the dispatch
threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Container

__all__ = ["GroupKey", "PendingEntry", "MicroBatch", "MicroBatcher"]


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
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A key is looked up in several dicts and sets at every submission
        # and iteration boundary: hash its fields once, not per lookup.
        object.__setattr__(self, "_hash", hash(
            (self.robot_key, self.solver, self.config_key, self.options_key)
        ))

    def __hash__(self) -> int:
        return self._hash


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
    """One key's queued requests, taken together for execution."""

    key: GroupKey
    entries: list[PendingEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


class MicroBatcher:
    """One FIFO queue per :class:`GroupKey`; every entry is due at once."""

    def __init__(self, max_batch_size: int) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = int(max_batch_size)
        self._queues: dict[GroupKey, list[PendingEntry]] = {}
        self._pending = 0

    @property
    def pending_count(self) -> int:
        """Queued requests across all keys."""
        return self._pending

    def add(self, entry: PendingEntry) -> None:
        self._queues.setdefault(entry.key, []).append(entry)
        self._pending += 1

    def take(self, key: GroupKey, count: int) -> list[PendingEntry]:
        """Remove and return up to ``count`` of ``key``'s oldest entries."""
        queue = self._queues.get(key)
        if queue is None or count < 1:
            return []
        taken = queue[:count]
        if len(taken) == len(queue):
            del self._queues[key]
        else:
            del queue[:count]
        self._pending -= len(taken)
        return taken

    def has_queued(self, exclude: Container = ()) -> bool:
        """Whether a key not in ``exclude`` has queued requests."""
        return any(key not in exclude for key in self._queues)

    def pop_one(self, exclude: Container = ()) -> MicroBatch | None:
        """Remove and return the batch whose head is oldest, or ``None``.

        The unit of work for one dispatch loop: at most ``max_batch_size``
        entries of the key, not in ``exclude``, whose oldest entry arrived
        first, so N loops drain the queues in arrival order without one
        loop grabbing the whole backlog.
        """
        heads = [
            (queue[0].enqueue_t, key)
            for key, queue in self._queues.items()
            if key not in exclude
        ]
        if not heads:
            return None
        _, key = min(heads, key=lambda head: head[0])
        return MicroBatch(key=key, entries=self.take(key, self.max_batch_size))

    def drain(self) -> list[PendingEntry]:
        """Remove and return every queued entry, oldest first."""
        entries = list(heapq.merge(
            *self._queues.values(), key=lambda e: e.enqueue_t,
        ))
        self._queues.clear()
        self._pending = 0
        return entries
