"""Null-tracer overhead guard: instrumentation must cost nothing when off.

Compares the instrumented driver (``tracer=None`` resolves to the null
tracer) against a replica of the pre-telemetry seed loop running today's
Quick-IK step, on the 25-DOF headline path.  The acceptance bound is <5%
slowdown; the solve is deterministic (fixed ``q0``/target), so both sides
execute the identical numeric trajectory and the difference is the
driver's telemetry guard checks (and its resilience checks).

The measurement is paired: each pair times one solve per side back to
back, in alternating order, on the thread's CPU clock, and the gate
compares the median of the per-pair ratios.  Host noise that slows a
stretch of time hits both halves of a pair, and the median ignores the
pairs it does not; a minimum of 5 wall-clock samples per side spread
from 0.73 to 1.27 on unchanged code on a 2-core x86 host.  The replica's
step is the one the solver runs (a
:class:`~repro.kinematics.kernels.SpeculationGrid` swept and selected as
:func:`~repro.core.quick_ik.speculate` does): a replica of an older step
charges the step's own bookkeeping to the tracer.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.alpha import buss_alpha
from repro.core.quick_ik import QuickIKSolver
from repro.core.result import SolverConfig
from repro.kinematics import paper_chain
from repro.kinematics.kernels import SpeculationGrid

#: Acceptance bound from the telemetry design: null path within 5% of seed.
MAX_OVERHEAD = 1.05

#: Paired samples; the median of the per-pair ratios is compared.  In
#: full slow-tier runs on a 2-core host the per-pair ratios spread about
#: +-10%; with 21 pairs the median's own noise reached the bound's margin
#: (3 of 10 runs failed), with 101 it stays within about 0.01.
PAIRS = 101


def _cpu_seconds(run) -> float:
    """CPU time of this thread spent in ``run()``."""
    start = time.thread_time()
    run()
    return time.thread_time() - start


def _seed_loop(
    solver: QuickIKSolver, target: np.ndarray, q0: np.ndarray
) -> tuple[int, np.ndarray]:
    """The seed repository's driver running today's Quick-IK step
    (Algorithm 1 lines 4-16 for one problem), uninstrumented."""
    chain = solver.chain
    config = solver.config
    q = q0.copy()
    position = chain.end_position(q)
    error = float(np.linalg.norm(target - position))
    iterations = 0
    while error >= config.tolerance and iterations < config.max_iterations:
        error_vec = target - position
        jacobian = chain.jacobian_position(q)
        dq_base = jacobian.T @ error_vec
        alpha_base = buss_alpha(error_vec, jacobian @ dq_base)
        sweep = SpeculationGrid(
            q[None], dq_base[None], np.array([alpha_base]), solver.speculations
        )
        positions = chain.end_positions_batch(sweep).reshape(1, -1, 3)
        errors = np.linalg.norm(target[None, None, :] - positions, axis=2)
        below = errors < config.tolerance
        early = below.any(axis=1)
        chosen = np.where(early, below.argmax(axis=1), errors.argmin(axis=1))
        rows = np.arange(1)
        q = sweep.rows(chosen)[0]
        position = positions[rows, chosen][0]
        error = float(errors[rows, chosen][0])
        iterations += 1
        if early[0]:
            break
    return iterations, q


@pytest.mark.slow
def test_null_tracer_overhead_within_noise():
    chain = paper_chain(25)
    config = SolverConfig(record_history=False)
    solver = QuickIKSolver(chain, speculations=64, config=config)
    rng = np.random.default_rng(7)
    q0 = chain.random_configuration(rng)
    target = chain.end_position(chain.random_configuration(rng))

    # Both sides must walk the identical trajectory.
    instrumented = solver.solve(target, q0=q0)
    assert instrumented.converged
    iterations, q = _seed_loop(solver, target, q0)
    assert iterations == instrumented.iterations
    assert np.array_equal(q, instrumented.q)

    # Warm-up, then pairs whose order alternates, so a drift within a pair
    # favours neither side.
    solver.solve(target, q0=q0)
    _seed_loop(solver, target, q0)
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            seed = _cpu_seconds(lambda: _seed_loop(solver, target, q0))
            null = _cpu_seconds(lambda: solver.solve(target, q0=q0))
        else:
            null = _cpu_seconds(lambda: solver.solve(target, q0=q0))
            seed = _cpu_seconds(lambda: _seed_loop(solver, target, q0))
        ratios.append(null / seed)

    ratio = float(np.median(ratios))
    assert ratio < MAX_OVERHEAD, (
        f"null-tracer path is {ratio:.3f}x the seed loop (median of "
        f"{PAIRS} paired ratios, bound {MAX_OVERHEAD}); quartiles "
        f"{np.percentile(ratios, 25):.3f}-{np.percentile(ratios, 75):.3f}"
    )
