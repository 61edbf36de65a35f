"""Perf gate for active-set compaction (``-m slow``).

The whole point of compaction is that late-iteration cost tracks the
*survivor* count, not the original batch size: once most problems have
retired, the dense sweep should touch only the rows still alive.  This
gate pins that scaling property two ways:

* directly — one ``_advance_dense`` step over an 8-row survivor block must
  cost well under the same step over the full 64-row block;
* end to end — a batch where most problems start at their solution (so
  they retire before the first sweep) must solve much faster than the same
  batch started cold.

Timing-sensitive, so excluded from tier 1 (the ``slow`` marker); thresholds
are loose (2x where the work ratio is 8x) to absorb shared-runner noise.
"""

import time

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.execution import KernelSpec
from repro.kinematics.robots import paper_chain
from repro.solvers.batched import BatchedQuickIK
from repro.telemetry.tracer import NullTracer

SEED = 20170407
DOF = 50
BATCH = 64
SURVIVORS = 8


def _chain():
    return KernelSpec(name="vectorized", dtype="float64").apply(
        paper_chain(DOF)
    )


def _targets(chain, n):
    base = paper_chain(DOF)
    rng = np.random.default_rng((SEED, DOF))
    return np.stack([
        base.end_position(base.random_configuration(rng)) for _ in range(n)
    ])


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
def test_dense_step_cost_tracks_survivor_count():
    chain = _chain()
    engine = BatchedQuickIK(
        chain, config=SolverConfig(tolerance=1e-2), speculations=32
    )
    targets = _targets(chain, BATCH)
    rng = np.random.default_rng(SEED + 1)
    qs = engine._initial_configurations(BATCH, None, rng)
    positions = chain.end_positions_batch(qs)
    tracer = NullTracer()

    def step(rows):
        engine._advance_dense(
            qs[:rows].copy(),
            positions[:rows].copy(),
            targets[:rows],
            (),
            tracer,
        )

    full = _best_of(lambda: step(BATCH))
    small = _best_of(lambda: step(SURVIVORS))
    # 8x fewer rows; demand only 2x cheaper to stay robust under noise.
    assert small * 2.0 <= full, (
        f"dense step over {SURVIVORS} rows took {small * 1e3:.2f}ms vs "
        f"{full * 1e3:.2f}ms over {BATCH} — compacted cost is not "
        "tracking the survivor count"
    )


@pytest.mark.slow
def test_mostly_retired_batch_solves_faster_than_cold_batch():
    chain = _chain()
    base = paper_chain(DOF)
    rng = np.random.default_rng((SEED, DOF))
    solved_q = np.stack([
        base.random_configuration(rng) for _ in range(BATCH)
    ])
    targets = np.stack([base.end_position(q) for q in solved_q])

    engine = BatchedQuickIK(
        chain,
        config=SolverConfig(tolerance=1e-2, max_iterations=60),
        speculations=32,
    )

    # Warm batch: all but SURVIVORS rows start at their exact solution, so
    # they retire at active-set init and the sweep only ever sees the tail.
    q0_warm = solved_q.copy()
    cold_rows = slice(0, SURVIVORS)
    q0_warm[cold_rows] = 0.0

    def run(q0):
        engine.solve_batch(
            targets, q0=q0, rng=np.random.default_rng(SEED + 1)
        )

    warm = _best_of(lambda: run(q0_warm), repeats=3)
    cold = _best_of(lambda: run(np.zeros_like(solved_q)), repeats=3)
    assert warm * 2.0 <= cold, (
        f"batch with {SURVIVORS}/{BATCH} live rows took {warm * 1e3:.1f}ms "
        f"vs {cold * 1e3:.1f}ms cold — compaction is not shrinking the "
        "late-iteration working set"
    )
