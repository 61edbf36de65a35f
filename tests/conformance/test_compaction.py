"""Conformance tier: active-set compaction is bit-invisible.

The compacted lock-step layout (dense survivor blocks, scatter-at-retirement)
and the historical layout (gather/scatter against the full arrays every
iteration) feed identical C-contiguous inputs to identical numpy ops, so
every per-problem trajectory must be bit-for-bit equal — not merely close.
This tier pins that across the paper's DOF sweep, both lock-step engines
(Quick-IK's and the row-update families'), both kernel modes and both
dtypes.

Any deviation here means the compaction bookkeeping reordered or aliased an
operation, which the 1e-12 vectorized-vs-scalar tier could mask.
"""

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.execution import ExecutionOptions, KernelSpec
from repro.kinematics.robots import paper_chain
from repro.solvers.batched import BatchedQuickIK
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


def _solve(name, chain, targets, compaction, **kwargs):
    engine = make_batch_solver(
        name,
        chain,
        config=SolverConfig(tolerance=1e-2, max_iterations=300),
        options=ExecutionOptions(compaction=compaction),
        **kwargs,
    )
    assert engine.compaction is compaction
    return engine.solve_batch(
        targets, rng=np.random.default_rng(SEED + 1)
    )


def _assert_bit_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.iterations == rb.iterations
        assert ra.converged == rb.converged
        assert ra.status == rb.status
        assert ra.fk_evaluations == rb.fk_evaluations
        # Bit-for-bit, not allclose: both layouts run the same ops on the
        # same dense blocks.  equal_nan keeps the check meaningful for rows
        # that retire through the non-finite path.
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
    compacted = _solve(
        "JT-Speculation", chain, targets, True, speculations=16
    )
    baseline = _solve(
        "JT-Speculation", chain, targets, False, speculations=16
    )
    _assert_bit_identical(compacted, baseline)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("dof", (12, 25))
def test_jacobian_transpose_compaction_bit_identical(dof, dtype):
    # JT-Serial's lock-step engine runs thousands of iterations; two DOF
    # points suffice — the layout plumbing is engine-independent.
    chain, targets = _workload(dof, "vectorized", dtype)
    compacted = _solve("JT-Serial", chain, targets, True)
    baseline = _solve("JT-Serial", chain, targets, False)
    _assert_bit_identical(compacted, baseline)


@pytest.mark.parametrize("name", sorted(set(ROW_FAMILIES) - {"JT-Serial"}))
def test_row_family_compaction_bit_identical(name):
    # The other row-update families share JT-Serial's engine; what differs
    # is the carried state (fdik's velocity) and the update itself.
    chain, targets = _workload(25, "vectorized", "float64")
    compacted = _solve(name, chain, targets, True)
    baseline = _solve(name, chain, targets, False)
    _assert_bit_identical(compacted, baseline)


def test_compaction_handles_nonfinite_rows():
    """A target that goes non-finite mid-loop retires through the compacted
    scatter path with the same typed status as the historical layout."""
    chain, targets = _workload(25, "vectorized", "float64")
    targets = targets.copy()
    targets[3] = [np.inf, 0.0, 0.0]
    compacted = _solve(
        "JT-Speculation", chain, targets, True, speculations=16
    )
    baseline = _solve(
        "JT-Speculation", chain, targets, False, speculations=16
    )
    _assert_bit_identical(compacted, baseline)
    assert compacted[3].status == "nonfinite"


def test_default_is_compacted():
    chain, _ = _workload(12, "vectorized", "float64")
    assert BatchedQuickIK(chain).compaction is True
    assert BatchedQuickIK(chain, compaction=False).compaction is False
