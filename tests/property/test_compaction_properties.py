"""Property tier: the ActiveSet admit/compact bookkeeping.

A lock-step run keeps its live rows in dense blocks: rows join by being
appended (:meth:`ActiveSet.admit`) and retire by being compacted out
(:meth:`ActiveSet.compact`).  The invariant that makes this safe is purely
index bookkeeping, so it is property-tested directly against a naive
reference that keeps every row in a dict keyed by its id:

* the maintained blocks always hold exactly the live rows' current
  values, in the order ``indices`` names them (row alignment);
* admitting appends after the live rows and never reorders them;
* compacting drops exactly the retired rows, from the index and from
  every block in step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.batched import ActiveSet

seeds = st.integers(min_value=0, max_value=2**31 - 1)
sizes = st.integers(min_value=1, max_value=24)
rounds = st.integers(min_value=1, max_value=8)


def _mutate(block: np.ndarray, step: int) -> np.ndarray:
    # A deterministic, value-dependent update standing in for one lock-step
    # iteration's sweep over the dense block.
    return block * 0.5 + step


@given(seed=seeds, m=sizes, n_rounds=rounds)
@settings(max_examples=30, deadline=None)
def test_admit_compact_matches_naive_reference(seed, m, n_rounds):
    rng = np.random.default_rng(seed)
    active = ActiveSet()
    block = np.empty((0, 3))
    naive: dict[int, np.ndarray] = {}
    next_id = 0

    for step in range(n_rounds):
        # Some rows join (possibly none, possibly into an empty set).
        joining = int(rng.integers(0, m + 1))
        ids = np.arange(next_id, next_id + joining)
        rows = rng.standard_normal((joining, 3))
        next_id += joining
        (block,) = active.admit(ids, (block,), (rows,))
        naive.update(zip(ids.tolist(), rows))

        # One iteration over every live row, then some retire.
        block = _mutate(block, step)
        naive = {i: _mutate(row, step) for i, row in naive.items()}
        keep = rng.random(active.size) < 0.6
        for i in active.indices[~keep].tolist():
            del naive[i]
        (block,) = active.compact(keep, block)

        # Alignment invariant: the maintained block is exactly the live
        # rows' current state, in index order, and the id sets agree.
        assert sorted(active.indices.tolist()) == sorted(naive)
        expected = [naive[i] for i in active.indices.tolist()]
        assert np.array_equal(block, np.array(expected).reshape(-1, 3))


@given(seed=seeds, m=sizes)
@settings(max_examples=30, deadline=None)
def test_admit_appends_after_live_rows(seed, m):
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(rng.random(2 * m) < 0.7)
    active = ActiveSet(live)
    a = rng.standard_normal((active.size, 4))
    b = rng.standard_normal(active.size)
    joining = np.arange(2 * m, 2 * m + int(rng.integers(1, m + 1)))
    new_a = rng.standard_normal((joining.size, 4))
    new_b = rng.standard_normal(joining.size)

    ca, cb = active.admit(joining, (a, b), (new_a, new_b))

    assert np.array_equal(active.indices, np.concatenate([live, joining]))
    assert np.array_equal(ca, np.concatenate([a, new_a]))
    assert np.array_equal(cb, np.concatenate([b, new_b]))
    assert active.size == live.size + joining.size


@given(seed=seeds, m=sizes)
@settings(max_examples=30, deadline=None)
def test_compact_drops_rows_from_index_and_blocks_in_step(seed, m):
    rng = np.random.default_rng(seed)
    indices = np.flatnonzero(rng.random(2 * m) < 0.7)
    active = ActiveSet(indices)
    a = rng.standard_normal((active.size, 2))
    b = rng.standard_normal(active.size)
    keep = rng.random(active.size) < 0.5

    ca, cb = active.compact(keep, a, b)

    assert np.array_equal(active.indices, indices[keep])
    assert np.array_equal(ca, a[keep])
    assert np.array_equal(cb, b[keep])
    assert active.size == int(keep.sum())
