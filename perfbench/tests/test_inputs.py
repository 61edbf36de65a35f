"""Inputs are a function of the seed alone."""

import numpy as np
import pytest

from perfbench import inputs


@pytest.fixture(scope="module")
def oracle():
    from repro.kinematics.robots import named_robot

    return named_robot(inputs.ROBOT)


def test_offline_batch_repeats_per_seed_and_unit(oracle):
    targets, q0 = inputs.offline_batch(oracle, 7, 3)
    again_t, again_q = inputs.offline_batch(oracle, 7, 3)
    assert targets.shape == (inputs.BATCH, 3)
    assert q0.shape == (inputs.BATCH, oracle.dof)
    np.testing.assert_array_equal(targets, again_t)
    np.testing.assert_array_equal(q0, again_q)


def test_offline_batch_differs_across_seeds_and_units(oracle):
    targets, q0 = inputs.offline_batch(oracle, 7, 3)
    for seed, unit in ((8, 3), (7, 4)):
        other_t, other_q = inputs.offline_batch(oracle, seed, unit)
        assert not np.array_equal(targets, other_t)
        assert not np.array_equal(q0, other_q)


def test_offline_starts_lie_within_limits(oracle):
    _, q0 = inputs.offline_batch(oracle, 1, 0)
    assert np.all(q0 >= oracle.lower_limits)
    assert np.all(q0 <= oracle.upper_limits)


def test_tracking_walks_repeat_per_seed(oracle):
    starts, targets = inputs.tracking_walks(oracle, 5, 0, 6)
    again_s, again_t = inputs.tracking_walks(oracle, 5, 0, 6)
    assert starts.shape == (inputs.SESSIONS, oracle.dof)
    assert targets.shape == (inputs.SESSIONS, 6, 3)
    np.testing.assert_array_equal(starts, again_s)
    np.testing.assert_array_equal(targets, again_t)


def test_tracking_walks_differ_across_seeds_and_sessions(oracle):
    starts, targets = inputs.tracking_walks(oracle, 5, 0, 6)
    other_s, other_t = inputs.tracking_walks(oracle, 6, 0, 6)
    assert not np.array_equal(starts, other_s)
    assert not np.array_equal(targets, other_t)
    assert not np.array_equal(starts[0], starts[1])
    next_s, next_t = inputs.tracking_walks(oracle, 5, 1, 6)
    assert not np.array_equal(starts, next_s)
    assert not np.array_equal(targets, next_t)


def test_tracking_starts_do_not_depend_on_walk_length(oracle):
    starts, targets = inputs.tracking_walks(oracle, 5, 2, 4)
    longer_s, longer_t = inputs.tracking_walks(oracle, 5, 2, 9)
    np.testing.assert_array_equal(starts, longer_s)
    assert longer_t.shape == (inputs.SESSIONS, 9, 3)
