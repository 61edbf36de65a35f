"""Property-based tests: the vectorized kernel layer on random geometry.

Three invariant families, each over randomized DH chains (random link
lengths, twists, offsets; revolute, mixed and all-prismatic joints):

* **Differential agreement** — the vectorized kernels match the scalar
  oracle within 1e-12 for FK, end positions and Jacobians at random
  configurations (the property-sized twin of the conformance tier).
* **Prefix-cache consistency** — the per-configuration prefix-transform
  cache never changes an answer: interleaved queries at alternating
  configurations (hit, miss, re-hit) equal the answers of a cache-cold
  kernel, and ``invalidate()`` is always safe.
* **Cache invalidation** — mutating a chain parameter array in place is
  detected by the fingerprint guard on the cached path, so stale prefix
  frames are never served; ``refresh()`` re-snapshots the statics.
* **Row invariance of the sweep** — every row of ``end_positions_batch``
  carries the same bits alone, in its batch and at another offset, for
  both DH conventions, prismatic mixes, random base and tool transforms,
  float64 and float32.
* **Problem invariance of the ray sweep** — a
  :class:`~repro.kinematics.kernels.SpeculationGrid`'s rows for one
  problem carry the same bits alone, at another offset and inside a suffix
  of the grid, and stay within the oracle's bound of the materialised
  candidates, on the same geometry axes and ``Max`` in {1, 2, 3, 64, 65};
  the winner rows a grid builds carry the materialised rows' bits.
* **Row invariance of the frame pass** — every row of
  ``fk_jacobian_batch`` (position and Jacobian) carries the same bits in a
  suffix of its batch and alone on a cold kernel, and every ``fk_batch``
  pose equals ``fk`` of its row, on the same geometry axes; the pass stays
  within the oracle's bound.  Its Brent-Kung rotation scan equals the
  running product at chain lengths from 1 to 100.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kinematics.chain import KinematicChain
from repro.kinematics.kernels import (
    SpeculationGrid,
    _rotation_prefix_scan,
    make_kernels,
    position_jacobian,
)
from repro.kinematics.robots import random_chain


def _kernel_jacobian(kernels, q):
    """Position Jacobian straight from a kernel object's frame pass."""
    axes, origins, p_ee = kernels.screw_frames(q)
    return position_jacobian(
        axes, origins, p_ee, kernels.chain._revolute_mask
    )

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dofs = st.integers(min_value=1, max_value=16)
prismatics = st.sampled_from([0.0, 0.3, 1.0])

ATOL = 1e-12


def _twins(seed, dof, prismatic=0.0):
    rng = np.random.default_rng(seed)
    scalar = random_chain(dof, rng, prismatic_probability=prismatic)
    return scalar, scalar.with_kernel("vectorized"), rng


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dof=dofs, prismatic=prismatics)
def test_vectorized_fk_matches_scalar_oracle(seed, dof, prismatic):
    scalar, vectorized, rng = _twins(seed, dof, prismatic)
    q = scalar.random_configuration(rng)
    assert np.allclose(vectorized.fk(q), scalar.fk(q), atol=ATOL, rtol=0.0)
    assert np.allclose(
        vectorized.end_position(q), scalar.end_position(q), atol=ATOL, rtol=0.0
    )


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dof=dofs, prismatic=prismatics)
def test_vectorized_jacobian_matches_scalar_oracle(seed, dof, prismatic):
    scalar, vectorized, rng = _twins(seed, dof, prismatic)
    qs = np.stack([scalar.random_configuration(rng) for _ in range(3)])
    assert np.allclose(
        vectorized.jacobian_position(qs[0]),
        scalar.jacobian_position(qs[0]),
        atol=ATOL, rtol=0.0,
    )
    assert np.allclose(
        vectorized.jacobian_position_batch(qs),
        scalar.jacobian_position_batch(qs),
        atol=ATOL, rtol=0.0,
    )


@settings(max_examples=25, deadline=None)
@given(seed=seeds, dof=dofs, prismatic=prismatics)
def test_prefix_cache_consistent_across_q_updates(seed, dof, prismatic):
    """Interleaved queries (cache hit / miss / re-hit) never change answers.

    The cached kernel sees q1, q1 (hit), q2 (evict), q1 (miss again); every
    answer must be bit-identical to a cache-cold kernel evaluating the same
    configuration once.
    """
    scalar, vectorized, rng = _twins(seed, dof, prismatic)
    q1 = scalar.random_configuration(rng)
    q2 = scalar.random_configuration(rng)

    def cold(q):
        # A fresh kernel object: ``with_kernel`` hands back the same
        # (already warm) twin on every call.
        return _kernel_jacobian(make_kernels(vectorized, "vectorized"), q)

    first = vectorized.jacobian_position(q1)
    assert np.array_equal(first, cold(q1))
    # Same q again: served from the prefix cache, bit-identical.
    assert np.array_equal(vectorized.jacobian_position(q1), first)
    # The end position of the cached configuration shares the same frames.
    assert np.array_equal(
        vectorized.end_position(q1),
        make_kernels(vectorized, "vectorized").end_position(q1),
    )
    # New configuration evicts; then the old one is recomputed from scratch.
    assert np.array_equal(vectorized.jacobian_position(q2), cold(q2))
    assert np.array_equal(vectorized.jacobian_position(q1), first)
    # Explicit invalidation is always safe.
    vectorized.kernels.invalidate()
    assert np.array_equal(vectorized.jacobian_position(q1), first)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, dof=dofs)
def test_fingerprint_detects_inplace_parameter_mutation(seed, dof):
    """White-box: mutating chain parameters in place must not serve stale
    cached prefix frames — the fingerprint guard drops them."""
    scalar, vectorized, rng = _twins(seed, dof)
    q = scalar.random_configuration(rng)

    stale = vectorized.jacobian_position(q)  # populates the prefix cache
    # Mutate the underlying joint-parameter buffer behind the kernel's back.
    vectorized._theta_offset += 0.125

    fresh = vectorized.jacobian_position(q)
    # ``with_kernel`` twins rebuild their arrays from the (unmutated) joint
    # list, so the oracle must be a scalar kernel on this very instance —
    # the scalar loops read the parameter arrays at call time.
    oracle = _kernel_jacobian(make_kernels(vectorized, "scalar"), q)
    assert np.allclose(fresh, oracle, atol=ATOL, rtol=0.0)
    # The mutation genuinely moved the Jacobian (guards against a vacuous
    # pass where the stale and fresh answers coincide).
    if not np.allclose(stale, oracle, atol=1e-6):
        assert not np.array_equal(fresh, stale)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, dof=dofs)
def test_refresh_resnapshots_statics_after_mutation(seed, dof):
    """``refresh()`` re-snapshots constants, so post-mutation answers match
    a kernel built fresh on the mutated chain — even at a new q (the
    uncached path, which the fingerprint guard does not cover)."""
    scalar, vectorized, rng = _twins(seed, dof)
    q_new = scalar.random_configuration(rng)

    vectorized._const[:, :3, 3] *= 1.5  # rescale link translations in place
    vectorized.kernels.refresh()

    rebuilt = make_kernels(vectorized, "vectorized")
    assert np.array_equal(
        vectorized.jacobian_position(q_new), _kernel_jacobian(rebuilt, q_new)
    )
    assert np.array_equal(vectorized.fk(q_new), rebuilt.fk(q_new))


def _random_rigid(rng: np.random.Generator, shift: float) -> np.ndarray:
    """A random rotation (QR of a Gaussian matrix) plus a random offset."""
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    transform = np.eye(4)
    transform[:3, :3] = rotation
    transform[:3, 3] = rng.normal(scale=shift, size=3)
    return transform


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    dof=dofs,
    prismatic=prismatics,
    convention=st.sampled_from(["standard", "modified"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    rows=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_sweep_rows_do_not_depend_on_their_batch(
    seed, dof, prismatic, convention, dtype, rows, data
):
    """Each row of the vectorized sweep equals that row alone and at
    another offset, bit for bit (the lock-step engines' B = 1 == B = M
    rests on it), and stays within the oracle's bound.  Up to 300 rows,
    so the vector tails of every SIMD width land at odd offsets."""
    rng = np.random.default_rng(seed)
    joints = random_chain(dof, rng, prismatic_probability=prismatic).joints
    oracle = KinematicChain(
        joints, base=_random_rigid(rng, 0.5), tool=_random_rigid(rng, 0.2),
        convention=convention, dtype=dtype,
    )
    chain = oracle.with_kernel("vectorized")
    qs = np.stack(
        [oracle.random_configuration(rng) for _ in range(rows)]
    ).astype(dtype)
    whole = chain.end_positions_batch(qs)
    row = data.draw(st.integers(min_value=0, max_value=rows - 1))
    assert np.array_equal(chain.end_positions_batch(qs[row:row + 1])[0], whole[row])
    # The same row at another offset, among other rows.
    shifted = np.concatenate([qs[::-1], qs[row:row + 1]])
    assert np.array_equal(chain.end_positions_batch(shifted)[-1], whole[row])
    assert np.array_equal(chain.end_positions_batch(qs[row:]), whole[row:])
    bound = ATOL if dtype == np.float64 else 1e-4
    assert np.allclose(
        whole, oracle.end_positions_batch(qs), atol=bound, rtol=0.0
    )


#: The float32 tier's documented FK bound (docs/performance.md).
FLOAT32_ATOL = 1e-5

geometries = st.fixed_dictionaries({
    "seed": seeds,
    "dof": dofs,
    "prismatic": prismatics,
    "convention": st.sampled_from(["standard", "modified"]),
    "dtype": st.sampled_from([np.float64, np.float32]),
})
counts = st.sampled_from([1, 2, 3, 64, 65])


def _ray_workload(seed, dof, prismatic, convention, dtype, problems, count):
    """A random-geometry oracle, its vectorized twin and a grid of
    ``problems`` rays whose full steps reach about 1 rad a joint."""
    rng = np.random.default_rng(seed)
    joints = random_chain(dof, rng, prismatic_probability=prismatic).joints
    oracle = KinematicChain(
        joints, base=_random_rigid(rng, 0.5), tool=_random_rigid(rng, 0.2),
        convention=convention, dtype=dtype,
    )
    q = np.stack(
        [oracle.random_configuration(rng) for _ in range(problems)]
    ).astype(dtype)
    grid = SpeculationGrid(
        q,
        rng.normal(size=(problems, dof)).astype(dtype),
        rng.uniform(1e-3, 1.0, size=problems).astype(dtype),
        count,
    )
    return oracle, oracle.with_kernel("vectorized"), grid


@settings(max_examples=30, deadline=None)
@given(
    geometry=geometries,
    count=counts,
    problems=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_grid_winner_rows_are_its_candidates(geometry, count, problems, data):
    """``rows(chosen)`` (the one row Quick-IK builds per problem) has the
    bits of the explicit block's row, and a slice of whole problems is the
    grid of those problems."""
    _, chain, grid = _ray_workload(problems=problems, count=count, **geometry)
    block = grid.candidates()
    assert block.shape == (len(grid), chain.dof) == (problems * count, chain.dof)
    chosen = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=count - 1),
        min_size=problems, max_size=problems,
    )))
    rows = block.reshape(problems, count, -1)[np.arange(problems), chosen]
    assert np.array_equal(grid.rows(chosen), rows)
    assert np.array_equal(grid[1:].candidates(), block[count:])
    bad = SpeculationGrid(grid.q[:, :-1], grid.direction, grid.alpha_base, count)
    with pytest.raises(ValueError):
        chain.end_positions_batch(bad)


@settings(max_examples=40, deadline=None)
@given(
    geometry=geometries,
    count=counts,
    problems=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_ray_rows_do_not_depend_on_their_grid(geometry, count, problems, data):
    """A problem's grid rows equal that problem alone, at another offset
    and inside a suffix grid, bit for bit: Quick-IK's B = 1 == B = M on the
    vectorized kernel rests on it."""
    _, chain, grid = _ray_workload(
        problems=problems, count=count, **geometry
    )
    whole = chain.end_positions_batch(grid)
    assert whole.shape == (problems * count, 3)
    b = data.draw(st.integers(min_value=0, max_value=problems - 1))
    rows = whole[b * count:(b + 1) * count]
    assert np.array_equal(chain.end_positions_batch(grid[b:b + 1]), rows)
    order = np.r_[problems - 1:-1:-1, b]  # reversed, then b again last
    shifted = SpeculationGrid(
        grid.q[order], grid.direction[order], grid.alpha_base[order], count
    )
    assert np.array_equal(chain.end_positions_batch(shifted)[-count:], rows)
    assert np.array_equal(
        chain.end_positions_batch(grid[b:]), whole[b * count:]
    )


@settings(max_examples=40, deadline=None)
@given(
    geometry=geometries,
    count=counts,
    problems=st.integers(min_value=1, max_value=4),
)
def test_ray_sweep_matches_oracle_of_materialised_candidates(
    geometry, count, problems
):
    """The vectorized grid sweep stays within the oracle's bound of the
    scalar kernel evaluating the explicit candidates: 1e-12 m for the
    float64 rays, and in float32, where the kernel evaluates a grid as its
    candidate block, the float32 tier's 1e-5 m.  The scalar kernel
    evaluates a grid as exactly those candidates."""
    oracle, chain, grid = _ray_workload(
        problems=problems, count=count, **geometry
    )
    explicit = oracle.end_positions_batch(grid.candidates())
    assert np.array_equal(oracle.end_positions_batch(grid), explicit)
    swept = chain.end_positions_batch(grid)
    if geometry["dtype"] == np.float64:
        assert np.allclose(swept, explicit, atol=ATOL, rtol=0.0)
    else:
        assert np.array_equal(
            swept, chain.end_positions_batch(grid.candidates())
        )
        assert np.allclose(swept, explicit, atol=FLOAT32_ATOL, rtol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    geometry=geometries,
    rows=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_frame_pass_rows_do_not_depend_on_their_batch(geometry, rows, data):
    """Each row of the vectorized frame pass (``fk_jacobian_batch``:
    positions and Jacobians) equals that row in a suffix of its batch and
    the same configuration alone on a cold kernel, bit for bit: the
    lock-step engines' B = 1 == B = M rests on it.  ``fk_batch`` takes its
    poses from the same pass, so each equals ``fk`` of its row.  Up to 300
    rows, so the vector tails of every SIMD width land at odd offsets."""
    rng = np.random.default_rng(geometry["seed"])
    joints = random_chain(
        geometry["dof"], rng, prismatic_probability=geometry["prismatic"]
    ).joints
    dtype = geometry["dtype"]
    oracle = KinematicChain(
        joints, base=_random_rigid(rng, 0.5), tool=_random_rigid(rng, 0.2),
        convention=geometry["convention"], dtype=dtype,
    )
    chain = oracle.with_kernel("vectorized")
    qs = np.stack(
        [oracle.random_configuration(rng) for _ in range(rows)]
    ).astype(dtype)
    positions, jacobians = chain.fk_jacobian_batch(qs)
    start = data.draw(st.integers(min_value=0, max_value=rows - 1))
    tail_positions, tail_jacobians = chain.fk_jacobian_batch(qs[start:])
    assert np.array_equal(tail_positions, positions[start:])
    assert np.array_equal(tail_jacobians, jacobians[start:])
    poses = chain.fk_batch(qs)
    for q, position, jacobian, pose in zip(qs, positions, jacobians, poses):
        alone = make_kernels(chain, "vectorized")
        assert np.array_equal(_kernel_jacobian(alone, q), jacobian)
        assert np.array_equal(
            make_kernels(chain, "vectorized").end_position(q), position
        )
        assert np.array_equal(make_kernels(chain, "vectorized").fk(q), pose)
    bound = ATOL if dtype == np.float64 else FLOAT32_ATOL
    expected_positions, expected_jacobians = oracle.fk_jacobian_batch(qs)
    assert np.allclose(positions, expected_positions, atol=bound, rtol=0.0)
    assert np.allclose(jacobians, expected_jacobians, atol=bound, rtol=0.0)
    assert np.allclose(poses, oracle.fk_batch(qs), atol=bound, rtol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31, 32, 33, 50, 75, 100])
def test_rotation_prefix_scan_is_the_running_product(n):
    """The Brent-Kung scan leaves ``R_0 @ ... @ R_i`` in entry ``i`` for
    every chain length, including the non-powers of two whose last
    aligned run is partial."""
    rng = np.random.default_rng(n)
    rotations = np.stack(
        [_random_rigid(rng, 0.0)[:3, :3] for _ in range(2 * n)]
    ).reshape(n, 2, 3, 3)
    expected = rotations.copy()
    for i in range(1, n):
        expected[i] = expected[i - 1] @ expected[i]
    _rotation_prefix_scan(rotations)
    assert np.allclose(rotations, expected, atol=ATOL, rtol=0.0)
