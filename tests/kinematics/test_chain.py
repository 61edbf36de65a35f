"""Unit tests for KinematicChain: FK, batching, frames, structure, dtype."""

import math

import numpy as np
import pytest

from repro.kinematics import transforms as tf
from repro.kinematics.chain import KinematicChain
from repro.kinematics.dh import DHConvention, dh_transform
from repro.kinematics.joint import Joint, JointLimits
from repro.kinematics.robots import (
    paper_chain,
    planar_chain,
    random_chain,
    stanford_arm,
)


class TestConstruction:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            KinematicChain([])

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            KinematicChain([Joint.revolute()], convention="weird")

    def test_bad_base_shape_rejected(self):
        with pytest.raises(ValueError):
            KinematicChain([Joint.revolute()], base=np.eye(3))

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ValueError):
            KinematicChain([Joint.revolute()], dtype=np.int32)

    def test_dof_and_len(self):
        chain = planar_chain(4)
        assert chain.dof == 4
        assert chain.n_joints == 4
        assert len(chain) == 4

    def test_repr_mentions_name_and_dof(self):
        chain = planar_chain(4)
        assert "4" in repr(chain)
        assert chain.name in repr(chain)


class TestForwardKinematicsPlanar:
    """The planar arm has hand-computable positions."""

    def test_straight_arm_reaches_full_length(self, planar3):
        position = planar3.end_position(np.zeros(3))
        assert np.allclose(position, [1.0, 0.0, 0.0], atol=1e-12)

    def test_first_joint_rotates_whole_arm(self, planar3):
        position = planar3.end_position([math.pi / 2, 0.0, 0.0])
        assert np.allclose(position, [0.0, 1.0, 0.0], atol=1e-12)

    def test_elbow_bend_geometry(self, planar3):
        # Two straight links then fold the last one back by pi.
        position = planar3.end_position([0.0, 0.0, math.pi])
        assert np.allclose(position, [1.0 / 3.0, 0.0, 0.0], atol=1e-12)

    def test_planar_chain_stays_in_plane(self, planar3, rng):
        for _ in range(20):
            q = planar3.random_configuration(rng)
            assert abs(planar3.end_position(q)[2]) < 1e-12

    def test_position_equals_sum_of_link_vectors(self, planar3, rng):
        q = planar3.random_configuration(rng)
        cumulative = np.cumsum(q)
        expected = np.zeros(3)
        for angle in cumulative:
            expected += np.array([math.cos(angle), math.sin(angle), 0.0]) / 3.0
        assert np.allclose(planar3.end_position(q), expected, atol=1e-12)


class TestForwardKinematicsGeneral:
    def test_fk_matches_product_of_dh_transforms(self, dadu12, rng):
        q = dadu12.random_configuration(rng)
        expected = np.eye(4)
        for joint, value in zip(dadu12.joints, q):
            expected = expected @ dh_transform(
                joint.link.a, joint.link.alpha, joint.link.d, joint.link.theta + value
            )
        assert np.allclose(dadu12.fk(q), expected, atol=1e-10)

    def test_prismatic_joint_moves_along_axis(self):
        chain = KinematicChain([Joint.prismatic(limits=JointLimits(0.0, 2.0))])
        p0 = chain.end_position(np.array([0.0]))
        p1 = chain.end_position(np.array([1.5]))
        assert np.allclose(p1 - p0, [0.0, 0.0, 1.5], atol=1e-12)

    def test_stanford_arm_fk_with_prismatic(self, rng):
        chain = stanford_arm()
        q = chain.random_configuration(rng)
        expected = np.eye(4)
        for joint, value in zip(chain.joints, q):
            theta = joint.link.theta + (value if joint.is_revolute else 0.0)
            d = joint.link.d + (value if joint.is_prismatic else 0.0)
            expected = expected @ dh_transform(joint.link.a, joint.link.alpha, d, theta)
        assert np.allclose(chain.fk(q), expected, atol=1e-10)

    def test_base_transform_is_applied(self, rng):
        base = tf.trans(0.0, 0.0, 0.5)
        plain = planar_chain(3)
        raised = KinematicChain(plain.joints, base=base)
        q = plain.random_configuration(rng)
        assert np.allclose(
            raised.end_position(q), plain.end_position(q) + [0.0, 0.0, 0.5]
        )

    def test_tool_transform_is_applied(self, rng):
        plain = planar_chain(3)
        with_tool = plain.with_tool(tf.trans_x(0.1))
        q = plain.random_configuration(rng)
        # Tool extends along the last link's x axis.
        frames = plain.link_frames(q)
        direction = frames[-1][:3, 0]
        assert np.allclose(
            with_tool.end_position(q), plain.end_position(q) + 0.1 * direction
        )

    def test_modified_convention_fk_matches_reference(self, rng):
        joints = [
            Joint.revolute(a=0.2, alpha=0.4, d=0.1),
            Joint.revolute(a=0.3, alpha=-0.5, d=0.0),
            Joint.revolute(a=0.1, alpha=1.0, d=0.2),
        ]
        chain = KinematicChain(joints, convention=DHConvention.MODIFIED)
        q = chain.random_configuration(rng)
        expected = np.eye(4)
        for joint, value in zip(joints, q):
            expected = expected @ dh_transform(
                joint.link.a,
                joint.link.alpha,
                joint.link.d,
                joint.link.theta + value,
                convention=DHConvention.MODIFIED,
            )
        assert np.allclose(chain.fk(q), expected, atol=1e-10)

    def test_fk_output_is_rigid(self, dadu12, rng):
        q = dadu12.random_configuration(rng)
        assert tf.is_transform(dadu12.fk(q), tol=1e-8)

    def test_wrong_q_shape_rejected(self, planar3):
        with pytest.raises(ValueError):
            planar3.end_position(np.zeros(4))


class TestBatchedFK:
    def test_batch_matches_individual(self, dadu12, rng):
        qs = np.stack([dadu12.random_configuration(rng) for _ in range(9)])
        batched = dadu12.end_positions_batch(qs)
        for i in range(9):
            assert np.allclose(batched[i], dadu12.end_position(qs[i]), atol=1e-12)

    def test_fk_batch_full_poses(self, dadu12, rng):
        qs = np.stack([dadu12.random_configuration(rng) for _ in range(4)])
        poses = dadu12.fk_batch(qs)
        assert poses.shape == (4, 4, 4)
        for i in range(4):
            assert np.allclose(poses[i], dadu12.fk(qs[i]), atol=1e-12)

    def test_batch_of_one(self, planar3):
        out = planar3.end_positions_batch(np.zeros((1, 3)))
        assert out.shape == (1, 3)
        assert np.allclose(out[0], [1.0, 0.0, 0.0])

    def test_bad_batch_shape_rejected(self, planar3):
        with pytest.raises(ValueError):
            planar3.end_positions_batch(np.zeros((5, 4)))
        with pytest.raises(ValueError):
            planar3.end_positions_batch(np.zeros(3))

    def test_mixed_chain_batch(self, mixed_chain, rng):
        qs = np.stack([mixed_chain.random_configuration(rng) for _ in range(6)])
        batched = mixed_chain.end_positions_batch(qs)
        for i in range(6):
            assert np.allclose(batched[i], mixed_chain.end_position(qs[i]), atol=1e-12)


class TestLinkFrames:
    def test_first_frame_is_base(self, dadu12, rng):
        frames = dadu12.link_frames(dadu12.random_configuration(rng))
        assert np.allclose(frames[0], dadu12.base)

    def test_last_frame_times_tool_is_fk(self, dadu12, rng):
        q = dadu12.random_configuration(rng)
        frames = dadu12.link_frames(q)
        assert np.allclose(frames[-1] @ dadu12.tool, dadu12.fk(q), atol=1e-12)

    def test_frames_count(self, dadu12, rng):
        frames = dadu12.link_frames(dadu12.random_configuration(rng))
        assert frames.shape == (13, 4, 4)

    def test_all_frames_rigid(self, dadu12, rng):
        frames = dadu12.link_frames(dadu12.random_configuration(rng))
        for frame in frames:
            assert tf.is_transform(frame, tol=1e-8)


class TestLimitsAndSampling:
    def test_random_configuration_within_limits(self, mixed_chain, rng):
        for _ in range(50):
            assert mixed_chain.within_limits(mixed_chain.random_configuration(rng))

    def test_clamp(self):
        chain = KinematicChain(
            [Joint.revolute(limits=JointLimits(-0.5, 0.5)) for _ in range(2)]
        )
        clamped = chain.clamp(np.array([2.0, -2.0]))
        assert np.allclose(clamped, [0.5, -0.5])

    def test_within_limits_tolerance(self):
        chain = KinematicChain([Joint.revolute(limits=JointLimits(-1.0, 1.0))])
        assert not chain.within_limits(np.array([1.001]))
        assert chain.within_limits(np.array([1.001]), tol=0.01)

    def test_limit_arrays_are_copies(self, planar3):
        planar3.lower_limits[0] = 99.0
        assert planar3.lower_limits[0] != 99.0


class TestTotalReach:
    def test_planar_total_reach(self):
        assert math.isclose(planar_chain(5, total_reach=2.0).total_reach(), 2.0)

    def test_reach_is_upper_bound(self, rng):
        chain = random_chain(8, rng)
        reach = chain.total_reach()
        for _ in range(50):
            q = chain.random_configuration(rng)
            assert np.linalg.norm(chain.end_position(q)) <= reach + 1e-9

    def test_tool_extends_reach(self, planar3):
        extended = planar3.with_tool(tf.trans_x(0.5))
        assert math.isclose(extended.total_reach(), planar3.total_reach() + 0.5)


class TestStructureHelpers:
    def test_subchain_prefix_fk(self, dadu12, rng):
        sub = dadu12.subchain(5)
        q = dadu12.random_configuration(rng)
        frames = dadu12.link_frames(q)
        assert np.allclose(sub.fk(q[:5]), frames[5], atol=1e-12)

    def test_subchain_bounds(self, dadu12):
        with pytest.raises(ValueError):
            dadu12.subchain(0)
        with pytest.raises(ValueError):
            dadu12.subchain(13)

    def test_joint_names_autogenerated(self):
        chain = KinematicChain([Joint.revolute(), Joint.revolute(name="elbow")])
        names = chain.joint_names()
        assert names[0] == "joint0"
        assert names[1] == "elbow"

    def test_count_joints(self, mixed_chain):
        revolute = mixed_chain.count_joints("revolute")
        prismatic = mixed_chain.count_joints("prismatic")
        assert revolute + prismatic == mixed_chain.dof

    def test_count_joints_bad_type(self, planar3):
        with pytest.raises(ValueError):
            planar3.count_joints("spherical")

    def test_joint_types(self, planar3):
        assert list(planar3.joint_types()) == ["revolute"] * 3


class TestDtype:
    def test_astype_float32_outputs_float32(self, dadu12, rng):
        chain32 = dadu12.astype(np.float32)
        q = dadu12.random_configuration(rng)
        assert chain32.end_position(q).dtype == np.float32
        assert chain32.jacobian_position(q).dtype == np.float32
        assert chain32.fk(q).dtype == np.float32

    def test_float32_close_to_float64(self, dadu12, rng):
        chain32 = dadu12.astype(np.float32)
        for _ in range(10):
            q = dadu12.random_configuration(rng)
            p64 = dadu12.end_position(q)
            p32 = chain32.end_position(q).astype(np.float64)
            assert np.linalg.norm(p64 - p32) < 1e-5

    def test_astype_preserves_structure(self, dadu12):
        chain32 = dadu12.astype(np.float32)
        assert chain32.dof == dadu12.dof
        assert chain32.convention == dadu12.convention
        assert chain32.name == dadu12.name

    def test_default_dtype_is_float64(self, dadu12):
        assert dadu12.dtype == np.float64

    @pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
    def test_subchain_and_with_tool_keep_dtype_and_kernel(self, kernel):
        chain32 = paper_chain(12).with_kernel(kernel).astype(np.float32)
        for derived in (chain32.subchain(5), chain32.with_tool(np.eye(4))):
            assert derived.dtype == np.float32
            assert derived.kernel == kernel
            q = derived.random_configuration(np.random.default_rng(0))
            assert derived.end_position(q).dtype == np.float32

    def test_twins_are_built_once_and_stay_out_of_pickles(self, dadu12, rng):
        import pickle

        twin = dadu12.with_kernel("vectorized")
        assert dadu12.with_kernel("vectorized") is twin
        assert dadu12.with_kernel("scalar") is dadu12
        assert dadu12.astype(np.float32) is dadu12.astype("float32")
        assert twin.astype(np.float32).kernel == "vectorized"
        # A shipped chain (a workers > 1 shard) carries no twins and
        # builds its own on the other side.
        clone = pickle.loads(pickle.dumps(dadu12))
        assert clone._twins == {}
        assert dadu12._twins
        q = dadu12.random_configuration(rng)
        assert np.array_equal(
            clone.with_kernel("vectorized").end_position(q),
            twin.end_position(q),
        )
