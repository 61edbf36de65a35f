"""The two workloads, each a fixed pass of units made from the seed.

Both share the paper's settings: robot ``dadu-50dof``, tolerance 1e-2 m,
the 10k iteration cap, and the vectorized float64 kernel
(``ExecutionOptions(kernel=KernelSpec("vectorized", "float64"))``).

* ``offline-families-50dof`` — ``api.solve_batch`` on batches of 32 for
  JT-DLS, J-1-SVD, JT-SDLS, fdik and mdik, one family per unit in rotation,
  from one caller thread.
* ``serve-tracking-50dof`` — ``api.serve(dispatch_workers=2, ...)`` with 8
  clients, each opening a :class:`~repro.serving.sessions.TrackingSession`
  at its own seeded start configuration and streaming a joint-space random
  walk; a client sends tick ``k+1`` when tick ``k`` returns.  A unit is one
  round of :data:`TICKS_PER_ROUND` ticks per client on fresh sessions.

A run repeats its workload's pass several times over the same inputs (see
:class:`Workload`).

``repro`` is imported inside :meth:`Workload.setup`, never at module import,
so the set-up probe can time the import.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass

import numpy as np

from perfbench import inputs
from perfbench.oracle import Oracle

__all__ = ["UnitOutcome", "Workload", "WORKLOADS", "make_workload"]

#: The paper's accuracy constraint (m) and iteration cap.
TOLERANCE = 1e-2
MAX_ITERATIONS = 10_000

#: Solver families of the per-target workload, taken in rotation.
FAMILIES = ("JT-DLS", "J-1-SVD", "JT-SDLS", "fdik", "mdik")

#: Ticks each tracking session sends per round.
TICKS_PER_ROUND = 25


@dataclass
class UnitOutcome:
    """What one unit did: operations, timing, rejections and results.

    ``targets[i]`` is the target of ``results[i]``; rejected operations
    have no result.  The caller checks the results on the oracle after the
    unit, outside any tracing.
    """

    ops: int
    wall_s: float
    latencies_ms: list[float]
    rejected: int
    targets: np.ndarray
    results: list

    @property
    def work(self) -> list[tuple[int, int]]:
        """``(iterations, fk_evaluations)`` per result, in input order."""
        return [(r.iterations, r.fk_evaluations) for r in self.results]


def _kernel_options(**fields):
    from repro.execution import ExecutionOptions, KernelSpec

    return ExecutionOptions(kernel=KernelSpec("vectorized", "float64"), **fields)


class Workload:
    """A pass of :attr:`pass_units` units made once from the seed; a run
    repeats the pass over the same inputs.  Subclasses define what a unit
    runs."""

    name = ""
    pass_units = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.oracle: Oracle | None = None

    def _build_oracle(self) -> None:
        from repro.kinematics.robots import named_robot

        self.oracle = Oracle(named_robot(inputs.ROBOT), TOLERANCE, self.name)

    def setup(self) -> None:
        """Build the robot and the objects under test, then run the first
        (untimed) operation."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Make the inputs of one pass (untimed)."""

    def run(self, unit: int, recorder=None) -> UnitOutcome:
        """Run one unit; spans go to ``recorder`` when one is given."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cumulative serving counters (none for offline workloads)."""
        return {}

    def close(self) -> None:
        """Release what :meth:`setup` started."""


class FamiliesWorkload(Workload):
    """Batches of :data:`~perfbench.inputs.BATCH` targets through
    ``api.solve_batch`` from one caller thread, one solver family of
    :data:`FAMILIES` per unit in rotation.

    Its latency sample is the duration of one ``api.solve_batch`` call: the
    targets of a batch are handed over and returned together.
    """

    name = "offline-families-50dof"
    #: 20 batches per family, and the 100 latency samples p90 needs
    #: (about 7 s on a 2-core x86 host).
    pass_units = 100

    def setup(self) -> None:
        from repro import api

        self._api = api
        self.chain = api.resolve_robot(inputs.ROBOT)
        self._build_oracle()
        self.options = _kernel_options()
        targets, q0 = inputs.offline_batch(self.oracle.chain, self.seed, 0)
        self._solve(FAMILIES[0], targets[:1], q0[:1])

    def _solve(self, solver: str, targets: np.ndarray, q0: np.ndarray):
        return self._api.solve_batch(
            self.chain, targets, solver, q0=q0,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            options=self.options,
        )

    def prepare(self) -> None:
        self._inputs = [
            inputs.offline_batch(self.oracle.chain, self.seed, u)
            for u in range(self.pass_units)
        ]

    def run(self, unit: int, recorder=None) -> UnitOutcome:
        targets, q0 = self._inputs[unit]
        start = time.perf_counter()
        batch = self._solve(FAMILIES[unit % len(FAMILIES)], targets, q0)
        wall = time.perf_counter() - start
        return UnitOutcome(
            ops=len(targets),
            wall_s=wall,
            latencies_ms=[wall * 1e3],
            rejected=0,
            targets=targets,
            results=list(batch),
        )


class TrackingWorkload(Workload):
    """Closed-loop tracking sessions against an in-process server.

    Each round, every one of the :data:`~perfbench.inputs.SESSIONS` clients
    opens a session at a seeded start configuration, streams
    :data:`TICKS_PER_ROUND` ticks of its walk, and closes it.  Fresh walks
    per round sample many start states, so the work of a run does not hang
    on where eight long walks happen to wander.
    """

    name = "serve-tracking-50dof"
    #: 2000 ticks, about 7 s on a 2-core x86 host.
    pass_units = 10

    def setup(self) -> None:
        from repro import api
        from repro.serving.sessions import SessionManager

        self._build_oracle()
        self.server = api.serve(
            dispatch_workers=2, options=_kernel_options(on_error="skip")
        )
        self.manager = SessionManager(self.server)
        starts, targets = inputs.tracking_walks(self.oracle.chain, self.seed, 0, 1)
        warm = self._open(starts[0])
        warm.tick(targets[0, 0]).result()
        warm.close()

    def _open(self, q0: np.ndarray):
        return self.manager.open(
            inputs.ROBOT, solver="JT-Speculation", q0=q0,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )

    def prepare(self) -> None:
        self._rounds = [
            inputs.tracking_walks(self.oracle.chain, self.seed, u, TICKS_PER_ROUND)
            for u in range(self.pass_units)
        ]

    def run(self, unit: int, recorder=None) -> UnitOutcome:
        from repro.serving.request import ServingRejected

        starts, targets = self._rounds[unit]
        sessions = [self._open(q0) for q0 in starts]
        results: list[list] = [[None] * TICKS_PER_ROUND for _ in sessions]
        # Completion times are taken in a done-callback, which runs in the
        # dispatch thread right after the result is set; the queue hands
        # each finished tick to this (generator) thread.
        completed: queue.SimpleQueue = queue.SimpleQueue()
        pending: dict = {}

        def send(s: int, k: int) -> None:
            sent = time.perf_counter()
            if recorder is None:
                future = sessions[s].tick(targets[s, k])
            else:
                span = recorder.open("serving.tick", session=s, tick=k)
                with recorder.active(span):
                    future = sessions[s].tick(targets[s, k])
                future.add_done_callback(lambda _f: recorder.close(span))
            future.add_done_callback(
                lambda f: completed.put((f, time.perf_counter()))
            )
            pending[future] = (s, k, sent)

        start = time.perf_counter()
        for s in range(len(sessions)):
            send(s, 0)
        latencies, rejected, finished = [], 0, start
        while pending:
            future, finished_at = completed.get()
            s, k, sent = pending.pop(future)
            finished = max(finished, finished_at)
            try:
                results[s][k] = future.result()
            except ServingRejected:
                rejected += 1
            else:
                latencies.append((finished_at - sent) * 1e3)
            if k + 1 < TICKS_PER_ROUND:
                send(s, k + 1)
        for session in sessions:
            session.close()
        solved = [
            (targets[s, k], res)
            for s, row in enumerate(results)
            for k, res in enumerate(row)
            if res is not None
        ]
        return UnitOutcome(
            ops=len(sessions) * TICKS_PER_ROUND,
            wall_s=finished - start,
            latencies_ms=latencies,
            rejected=rejected,
            targets=np.array([t for t, _ in solved]).reshape(-1, 3),
            results=[res for _, res in solved],
        )

    @property
    def max_batch_size(self) -> int:
        return self.server.config.max_batch_size

    def counters(self) -> dict[str, float]:
        stats = self.server.stats()
        return {
            "batches": stats.batches,
            "requests_batched": stats.requests_batched,
            "coalesce_wait_s": stats.coalesce_wait_s,
            "rejected": (
                stats.rejected_overloaded + stats.rejected_deadline
                + stats.rejected_shed + stats.expired_in_queue + stats.failed
            ),
        }

    def close(self) -> None:
        self.server.close()


#: Every workload of ``BENCHMARK.json``, by name.
WORKLOADS = {cls.name: cls for cls in (FamiliesWorkload, TrackingWorkload)}


def make_workload(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        known = ", ".join(WORKLOADS)
        raise ValueError(f"unknown workload {name!r}; known: {known}") from None
