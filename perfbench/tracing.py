"""Outside-in span tracing: wrappers around public functions of each layer.

The benchmark measures the program from outside, so its spans come from
wrappers it installs around a public function of each layer for the traced
part of a run and removes afterwards.  Nothing inside ``src/`` changes.

Each span records its name, start, end, parent span and thread.  Parents
follow the call stack of the recording thread unless a caller passes one
explicitly, so a span may also have children on other threads.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
part of it covered by its children (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Recorder",
    "self_times",
    "layer_totals",
    "Instrumentation",
]


class Span:
    """One timed interval; ``parent`` is the index of the enclosing span."""

    __slots__ = ("index", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(
        self,
        index: int,
        name: str,
        start: float,
        parent: int | None,
        thread: int,
        attrs: dict[str, Any],
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} was never closed")
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            **self.attrs,
        }


class Recorder:
    """Thread-safe in-memory span store with a per-thread span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None, **attrs: Any) -> Span:
        """Start a span; its parent defaults to this thread's innermost one."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].index
        start = self.clock()
        with self._lock:
            span = Span(
                len(self.spans), name, start, parent,
                threading.get_ident(), attrs,
            )
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()

    @contextlib.contextmanager
    def active(self, span: Span) -> Iterator[Span]:
        """Make ``span`` the parent of spans this thread opens meanwhile."""
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open, activate and close a span around a block."""
        span = self.open(name, **attrs)
        try:
            with self.active(span):
                yield span
        finally:
            self.close(span)

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span (children may overlap when they run on
    other threads, so the union is counted once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.index, ())
        ]
        out.append(span.duration - _covered(clipped))
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "self_s", <summed numeric attrs>}}``."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value
    return dict(totals)


def _rows(args: tuple) -> dict[str, int]:
    """Rows of the batch each wrapped batch function takes second:
    ``chain.*_batch(self, qs)``, ``engine.solve_batch(self, targets)`` and
    ``api.solve_batch(robot, targets)``."""
    return {"rows": len(args[1])}


def _boundaries() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, span name, attrs fn)`` for every traced layer."""
    from repro import api
    from repro.core.base import IterativeIKSolver
    from repro.kinematics.chain import KinematicChain
    from repro.parallel.pool import ShardedBatchSolver
    from repro.serving.server import IKServer
    from repro.solvers.batched import LockStepEngine

    return [
        (KinematicChain, "end_positions_batch", "kinematics.fk_batch", _rows),
        (KinematicChain, "jacobian_position_batch",
         "kinematics.jacobian_batch", _rows),
        (KinematicChain, "end_position", "kinematics.fk_single", None),
        (KinematicChain, "jacobian_position",
         "kinematics.jacobian_single", None),
        (IterativeIKSolver, "solve", "core.driver", None),
        (LockStepEngine, "solve_batch", "solvers.engine", _rows),
        (api, "solve_batch", "api.solve_batch", _rows),
        (ShardedBatchSolver, "solve_batch", "parallel.shard", _rows),
        (IKServer, "submit", "serving.submit", None),
    ]


class Instrumentation:
    """Installs the layer wrappers for a block and removes them after.

    ``with Instrumentation(recorder): ...`` replaces each boundary function
    with a wrapper that records one span per call, then restores the
    originals, so untraced parts of a run execute the unmodified program.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, original: Callable, name: str, attrs_fn) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(args) if attrs_fn is not None else {}
            with recorder.span(name, **attrs):
                return original(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Instrumentation":
        for owner, attr, name, attrs_fn in _boundaries():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
