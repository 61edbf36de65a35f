"""Warm-start seed cache: ranked reuse of nearby solutions as ``q0``.

IKSel (arXiv:2503.22234) shows seed quality dominates iteration count; an
online server sees streams of *correlated* targets (trajectories, repeated
poses), so the solution of a nearby previously-served target is usually a
far better ``q0`` than a random draw.

Seed **selection** follows IKSel's shape rather than plain nearest-neighbour
lookup: the ``k`` nearest cached targets become candidates, each candidate
is scored — workspace distance (the dominant predictor of remaining
iterations) plus a joint-limit-proximity penalty (a seed parked against its
limits starts in the clamped/degenerate region and converges worse than its
distance suggests) — and the best score wins.  Ties break deterministically
toward the **most recently recorded** candidate, which favours trajectory
locality (the freshest solution on a track is the closest in time, hence
usually in configuration space too).

The cache is keyed per robot by a **parameter fingerprint**
(:func:`repro.kinematics.chain_fingerprint`) — a digest of every chain
array an FK result depends on, the same one the vectorized prefix cache
invalidates by: mutate a link length in place and the fingerprint
changes, so stale solutions for the old geometry are simply never
consulted (and are evicted by capacity pressure).  Entries live in a
bounded FIFO ring per robot.

Warm starting trades bit-comparability with offline solves for iteration
count; the server consults the cache by default (``warm_start=True``,
overridable per request) and records every converged solve at the cost of
one small copy.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.kinematics import chain_fingerprint

__all__ = ["chain_fingerprint", "SeedCache", "SeedCacheStats"]

#: Default per-robot entry capacity.
DEFAULT_CAPACITY = 256

#: Bound on distinct robot fingerprints tracked before the least recently
#: used robot's entries are dropped (a server that churns through generated
#: chains must not grow without bound).
DEFAULT_MAX_ROBOTS = 32

#: Candidate pool size for ranked selection: the k nearest cached targets
#: are scored, not just the single nearest.
DEFAULT_K = 8

#: Weight of the joint-limit-proximity penalty relative to workspace
#: distance (metres of equivalent distance for a seed sitting exactly on a
#: limit).  Small by design: distance dominates, the penalty only breaks
#: near-ties away from clamped seeds.
DEFAULT_LIMIT_PENALTY = 0.05


@dataclass
class SeedCacheStats:
    """Hit/miss accounting for one :class:`SeedCache`."""

    hits: int = 0
    misses: int = 0
    records: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")

    def to_dict(self) -> dict:
        rate = self.hit_rate
        return {
            "hits": self.hits,
            "misses": self.misses,
            "records": self.records,
            # None, not NaN: the snapshot must survive strict JSON even
            # before the first lookup.
            "hit_rate": rate if np.isfinite(rate) else None,
        }


class _RobotEntries:
    """Bounded FIFO of (target, solution) pairs for one robot fingerprint."""

    def __init__(self, capacity: int) -> None:
        self.targets: deque[np.ndarray] = deque(maxlen=capacity)
        self.solutions: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.targets)

    def add(self, target: np.ndarray, q: np.ndarray) -> None:
        self.targets.append(target)
        self.solutions.append(q)

    def select(
        self,
        target: np.ndarray,
        k: int,
        max_distance: float | None,
        limit_penalty: float,
        lower: np.ndarray | None,
        upper: np.ndarray | None,
    ) -> np.ndarray | None:
        """IKSel-style ranked selection over the ``k`` nearest candidates.

        Candidates are the ``k`` cached targets nearest ``target`` (within
        ``max_distance`` when set); each is scored ``distance +
        limit_penalty * limit_proximity(q)`` and the minimum wins.  Exactly
        tied scores resolve toward the most recently recorded candidate
        (trajectory locality), which also makes selection deterministic for
        duplicated targets.
        """
        if not self.targets:
            return None
        stacked = np.stack(self.targets)
        d2 = np.sum((stacked - target) ** 2, axis=1)
        finite = np.isfinite(d2)
        if max_distance is not None:
            finite &= d2 <= max_distance**2
        (eligible,) = np.nonzero(finite)
        if eligible.size == 0:
            return None
        if eligible.size > k:
            # k nearest among the eligible; order within the pool does not
            # matter — scoring re-ranks it.
            nearest = np.argpartition(d2[eligible], k - 1)[:k]
            eligible = eligible[nearest]
        distance = np.sqrt(d2[eligible])
        score = distance.copy()
        if limit_penalty > 0.0 and lower is not None and upper is not None:
            qs = np.stack([self.solutions[int(i)] for i in eligible])
            score = score + limit_penalty * _limit_proximity(qs, lower, upper)
        # Most recent on ties: entries index in insertion order, so among
        # equal scores the largest cache index wins.
        best_score = score.min()
        tied = eligible[score <= best_score]
        return self.solutions[int(tied.max())]


def _limit_proximity(
    qs: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Mean squared normalised displacement from each joint's mid-range.

    0 for a perfectly centred configuration, 1 for one pinned to its limits.
    Joints with non-finite (unbounded) limits contribute 0.
    """
    mid = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalised = (qs - mid) / half
    normalised = np.where(np.isfinite(normalised), normalised, 0.0)
    return np.mean(np.clip(normalised, -1.0, 1.0) ** 2, axis=-1)


class SeedCache:
    """Ranked warm-start store, keyed per robot fingerprint.

    Not thread-safe on its own; the server serialises access under its
    queue lock.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        max_robots: int = DEFAULT_MAX_ROBOTS,
        max_distance: float | None = None,
        k: int = DEFAULT_K,
        limit_penalty: float = DEFAULT_LIMIT_PENALTY,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_robots < 1:
            raise ValueError("max_robots must be >= 1")
        if max_distance is not None and max_distance < 0:
            raise ValueError("max_distance must be >= 0 (or None)")
        if k < 1:
            raise ValueError("k must be >= 1")
        if limit_penalty < 0:
            raise ValueError("limit_penalty must be >= 0")
        self.capacity = int(capacity)
        self.max_robots = int(max_robots)
        self.max_distance = max_distance
        self.k = int(k)
        self.limit_penalty = float(limit_penalty)
        self.stats = SeedCacheStats()
        self._robots: OrderedDict[bytes, _RobotEntries] = OrderedDict()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._robots.values())

    def _entries(self, fingerprint: bytes) -> _RobotEntries:
        entries = self._robots.get(fingerprint)
        if entries is None:
            entries = _RobotEntries(self.capacity)
            self._robots[fingerprint] = entries
            while len(self._robots) > self.max_robots:
                self._robots.popitem(last=False)
        else:
            self._robots.move_to_end(fingerprint)
        return entries

    def record(
        self, chain, target: np.ndarray, q: np.ndarray,
        fingerprint: bytes | None = None,
    ) -> None:
        """Store a solved (target, q) pair for ``chain``'s geometry.

        ``fingerprint`` is ``chain_fingerprint(chain)`` taken earlier (a
        server takes it once per run); without it the current geometry's
        is computed.
        """
        if fingerprint is None:
            fingerprint = chain_fingerprint(chain)
        self._entries(fingerprint).add(
            np.asarray(target, dtype=float).copy(),
            np.asarray(q, dtype=float).copy(),
        )
        self.stats.records += 1

    def lookup(self, chain, target: np.ndarray) -> np.ndarray | None:
        """The best-ranked cached solution for ``target``, or ``None``.

        Ranking is IKSel-style over the ``k`` nearest cached targets (see
        :meth:`_RobotEntries.select`).  The fingerprint is recomputed per
        lookup, so a chain mutated in place since its solutions were
        recorded simply misses — stale geometry is never warm-started from.
        """
        entries = self._robots.get(chain_fingerprint(chain))
        q = (
            entries.select(
                np.asarray(target, dtype=float),
                self.k,
                self.max_distance,
                self.limit_penalty,
                getattr(chain, "lower_limits", None),
                getattr(chain, "upper_limits", None),
            )
            if entries is not None
            else None
        )
        if q is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return q.copy()

    def invalidate(self) -> None:
        """Drop every entry (stats are kept)."""
        self._robots.clear()
