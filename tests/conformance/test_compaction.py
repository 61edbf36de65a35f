"""Conformance tier: compaction and mid-flight admission are bit-invisible.

A lock-step run keeps its live rows in dense blocks: a retiring row is
compacted out of every block, a joining row is appended to them.  Neither
may touch another row's numerics, so every per-problem trajectory must be
bit-for-bit equal — not merely close — to the same problem solved alone, a
run of one row that nothing is ever compacted out of or appended to.  This
tier pins that across the paper's DOF sweep, both lock-step engines
(Quick-IK's and the row-update families'), both kernel modes and both
dtypes, for a batch admitted at once and for the same rows admitted in
waves while earlier rows are mid-flight.

Any deviation here means the block bookkeeping reordered or aliased an
operation, which the 1e-12 vectorized-vs-scalar tier could mask.
"""

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.execution import KernelSpec
from repro.kinematics.robots import paper_chain
from repro.solvers.registry import BATCH_REGISTRY, make_batch_solver

#: The row-update families (every lock-step name but Quick-IK).
ROW_FAMILIES = sorted(set(BATCH_REGISTRY) - {"JT-Speculation"})

SEED = 20170407
BATCH = 8

#: Paper sweep minus 100 DOF (covered by the kernel tier; this matrix is
#: already engines x dofs x kernels x dtypes).
SWEEP_DOFS = (12, 25, 50, 75)


def _workload(dof: int, kernel: str, dtype: str):
    chain = KernelSpec(name=kernel, dtype=dtype).apply(paper_chain(dof))
    rng = np.random.default_rng((SEED, dof))
    base = paper_chain(dof)
    targets = np.stack([
        base.end_position(base.random_configuration(rng))
        for _ in range(BATCH)
    ])
    return chain, targets


def _engine(name, chain, **kwargs):
    return make_batch_solver(
        name,
        chain,
        config=SolverConfig(tolerance=1e-2, max_iterations=300),
        **kwargs,
    )


def _starts(engine, count):
    rng = np.random.default_rng(SEED + 1)
    return np.stack(
        [engine.chain.random_configuration(rng) for _ in range(count)]
    )


def _in_waves(engine, targets, q0):
    """Admit the rows in growing waves, one step apart, while earlier rows
    are still live; results in input order."""
    run = engine.open_run()
    results = [None] * len(targets)
    finished = []
    lo, wave = 0, 1
    while lo < len(targets) or run.live:
        hi = min(len(targets), lo + wave)
        if hi > lo:
            finished += run.admit(targets[lo:hi], q0[lo:hi], range(lo, hi))
            lo, wave = hi, wave + 1
        finished += run.step()
    for index, result in finished:
        results[index] = result
    run.close()
    return results


def _check(name, chain, targets, **kwargs):
    """Batch, waves and rows alone agree bit for bit; returns the batch."""
    engine = _engine(name, chain, **kwargs)
    q0 = _starts(engine, len(targets))
    batch = engine.solve_batch(targets, q0=q0)
    alone = [
        engine.solve_batch(targets[i : i + 1], q0=q0[i : i + 1])[0]
        for i in range(len(targets))
    ]
    _assert_bit_identical(batch, alone)
    _assert_bit_identical(_in_waves(engine, targets, q0), alone)
    return batch


def _assert_bit_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.iterations == rb.iterations
        assert ra.converged == rb.converged
        assert ra.status == rb.status
        assert ra.fk_evaluations == rb.fk_evaluations
        # Bit-for-bit, not allclose: every layout runs the same ops on the
        # same rows.  equal_nan keeps the check meaningful for rows that
        # retire through the non-finite path.
        assert np.array_equal(ra.q, rb.q, equal_nan=True)
        assert np.array_equal(ra.error, rb.error, equal_nan=True)
        assert np.array_equal(
            ra.error_history, rb.error_history, equal_nan=True
        )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
@pytest.mark.parametrize("dof", SWEEP_DOFS)
def test_quick_ik_compaction_bit_identical(dof, kernel, dtype):
    chain, targets = _workload(dof, kernel, dtype)
    _check("JT-Speculation", chain, targets, speculations=16)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("dof", (12, 25))
def test_jacobian_transpose_compaction_bit_identical(dof, dtype):
    # JT-Serial's lock-step engine runs thousands of iterations; two DOF
    # points suffice — the block plumbing is engine-independent.
    chain, targets = _workload(dof, "vectorized", dtype)
    _check("JT-Serial", chain, targets)


@pytest.mark.parametrize("name", sorted(set(ROW_FAMILIES) - {"JT-Serial"}))
def test_row_family_compaction_bit_identical(name):
    # The other row-update families share JT-Serial's engine; what differs
    # is the carried state (fdik's velocity) and the update itself.
    chain, targets = _workload(25, "vectorized", "float64")
    _check(name, chain, targets)


def test_compaction_handles_nonfinite_rows():
    """A target that goes non-finite mid-loop retires through the compacted
    path with the same typed status as when solved alone."""
    chain, targets = _workload(25, "vectorized", "float64")
    targets = targets.copy()
    targets[3] = [np.inf, 0.0, 0.0]
    batch = _check("JT-Speculation", chain, targets, speculations=16)
    assert batch[3].status == "nonfinite"
