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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kinematics.kernels import make_kernels, position_jacobian
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
        return scalar.with_kernel("vectorized").jacobian_position(q)

    first = vectorized.jacobian_position(q1)
    assert np.array_equal(first, cold(q1))
    # Same q again: served from the prefix cache, bit-identical.
    assert np.array_equal(vectorized.jacobian_position(q1), first)
    # The end position of the cached configuration shares the same frames.
    assert np.array_equal(
        vectorized.end_position(q1),
        scalar.with_kernel("vectorized").end_position(q1),
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
