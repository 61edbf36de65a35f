"""Property-based tests: kinematic-chain invariants on random geometry."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kinematics import transforms as tf
from repro.kinematics.chain import KinematicChain
from repro.kinematics.jacobian import numerical_jacobian_position
from repro.kinematics.joint import Joint, JointLimits
from repro.kinematics.robots import random_chain

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dofs = st.integers(min_value=1, max_value=12)


def _chain_and_q(seed, dof, prismatic=0.0):
    rng = np.random.default_rng(seed)
    chain = random_chain(dof, rng, prismatic_probability=prismatic)
    return chain, chain.random_configuration(rng)


@settings(max_examples=25)
@given(seed=seeds, dof=dofs)
def test_fk_is_rigid_transform(seed, dof):
    chain, q = _chain_and_q(seed, dof)
    assert tf.is_transform(chain.fk(q), tol=1e-7)


@settings(max_examples=25)
@given(seed=seeds, dof=dofs)
def test_end_position_within_total_reach(seed, dof):
    chain, q = _chain_and_q(seed, dof)
    assert np.linalg.norm(chain.end_position(q)) <= chain.total_reach() + 1e-9


@settings(max_examples=20)
@given(seed=seeds, dof=dofs)
def test_batch_fk_consistent_with_scalar(seed, dof):
    chain, _ = _chain_and_q(seed, dof)
    rng = np.random.default_rng(seed + 1)
    qs = np.stack([chain.random_configuration(rng) for _ in range(3)])
    batched = chain.end_positions_batch(qs)
    for i in range(3):
        assert np.allclose(batched[i], chain.end_position(qs[i]), atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, dof=st.integers(min_value=1, max_value=8))
def test_jacobian_matches_finite_differences(seed, dof):
    chain, q = _chain_and_q(seed, dof, prismatic=0.3)
    assert np.allclose(
        chain.jacobian_position(q), numerical_jacobian_position(chain, q), atol=1e-5
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=seeds,
    dof=dofs,
    prismatic=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_jacobian_matches_central_differences_to_1e6(seed, dof, prismatic):
    """Analytic Jacobian vs central finite differences, 1e-6 absolute.

    Randomized DH chains (random link lengths, twists, offsets; revolute,
    mixed and all-prismatic joints) at random configurations.  Central
    differences with ``eps=1e-6`` carry ~1e-12 truncation error and ~1e-10
    roundoff on these unit-reach chains, so 1e-6 isolates genuine analytic
    errors rather than differencing noise.
    """
    chain, q = _chain_and_q(seed, dof, prismatic=prismatic)
    analytic = chain.jacobian_position(q)
    reference = numerical_jacobian_position(chain, q, eps=1e-6)
    assert analytic.shape == (3, chain.dof)
    assert np.max(np.abs(analytic - reference)) < 1e-6


@settings(max_examples=20)
@given(seed=seeds, dof=dofs)
def test_link_frames_compose_incrementally(seed, dof):
    chain, q = _chain_and_q(seed, dof)
    frames = chain.link_frames(q)
    locals_ = chain.local_transforms(q)
    for i in range(dof):
        assert np.allclose(frames[i] @ locals_[i], frames[i + 1], atol=1e-10)


@settings(max_examples=20)
@given(seed=seeds, dof=dofs, scale=st.floats(min_value=0.1, max_value=5.0))
def test_fk_scales_with_uniform_link_scaling(seed, dof, scale):
    """Scaling every link length by s scales every FK position by s
    (revolute chains with pure-a links are scale-equivariant)."""
    from repro.kinematics.robots import hyper_redundant_chain

    chain = hyper_redundant_chain(dof, total_reach=1.0)
    scaled = hyper_redundant_chain(dof, total_reach=scale)
    q = chain.random_configuration(np.random.default_rng(seed))
    assert np.allclose(
        scaled.end_position(q), scale * chain.end_position(q), atol=1e-8 * max(1, scale)
    )


@settings(max_examples=20)
@given(seed=seeds, dof=dofs)
def test_float32_twin_agrees_within_tolerance(seed, dof):
    chain, q = _chain_and_q(seed, dof)
    chain32 = chain.astype(np.float32)
    delta = np.linalg.norm(
        chain.end_position(q) - chain32.end_position(q).astype(np.float64)
    )
    assert delta < 1e-4  # far below the paper's 1e-2 accuracy constraint


def _reference_total_reach(chain) -> float:
    """``total_reach`` as a per-call walk over the joints, in chain order."""
    reach = 0.0
    for joint in chain.joints:
        reach += abs(joint.link.a) + abs(joint.link.d)
        if joint.is_prismatic:
            reach += max(abs(joint.limits.lower), abs(joint.limits.upper))
    reach += float(np.linalg.norm(chain.tool[:3, 3]))
    return reach


lengths = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def _joints(draw):
    a, d, alpha = draw(lengths), draw(lengths), draw(lengths)
    if draw(st.booleans()):
        return Joint.revolute(a=a, alpha=alpha, d=d)
    low, high = sorted((draw(lengths), draw(lengths)))
    return Joint.prismatic(
        a=a, alpha=alpha, d_offset=d, limits=JointLimits(low, high)
    )


@settings(max_examples=60)
@given(
    joints=st.lists(_joints(), min_size=1, max_size=12),
    tool=st.lists(lengths, min_size=3, max_size=3),
)
def test_total_reach_equals_the_per_call_joint_walk(joints, tool):
    """The joint terms summed at construction give the per-call walk's
    bits, and a tool moved after construction still counts."""
    offset = tf.trans(*tool)
    chain = KinematicChain(joints, tool=offset)
    assert chain.total_reach() == _reference_total_reach(chain)
    chain.tool[:3, 3] = np.asarray(tool)[::-1]
    assert chain.total_reach() == _reference_total_reach(chain)
