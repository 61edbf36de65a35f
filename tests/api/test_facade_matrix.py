"""Facade matrix: ``solve_batch`` across workers × kernel × on_error.

Within a fixed kernel mode, every (workers, on_error) combination must be
**bit-identical** to that kernel's serial baseline — process sharding and
the failure-policy routing may not perturb numerics at all.  Across kernel
modes the discrete outcome (iterations / converged / status / FK count)
must match exactly and q agrees at the documented 1e-9 kernel-conformance
bound (the vectorized einsum formulation reassociates float ops, so
bit-equality is not the contract there; see ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.execution import ExecutionOptions
from repro.kinematics.robots import named_robot

ROBOT = "dadu-12dof"
SOLVERS = ["JT-Speculation", "JT-DLS"]
WORKERS = [1, 2]
KERNELS = ["scalar", "vectorized"]
ON_ERROR = ["raise", "skip", "fallback"]
SEED = 11
MAX_ITERATIONS = 150
N_TARGETS = 4


@pytest.fixture(scope="module")
def targets():
    chain = named_robot(ROBOT)
    rng = np.random.default_rng(5)
    return np.stack([
        chain.end_position(chain.random_configuration(rng))
        for _ in range(N_TARGETS)
    ])


@pytest.fixture(scope="module")
def baselines(targets):
    """Serial (workers unset, on_error="raise") batch per solver × kernel."""
    return {
        (solver, kernel): api.solve_batch(
            ROBOT, targets, solver, seed=SEED,
            max_iterations=MAX_ITERATIONS,
            options=ExecutionOptions(kernel=kernel),
        )
        for solver in SOLVERS
        for kernel in KERNELS
    }


def _assert_bit_identical(batch, baseline):
    assert len(batch) == len(baseline)
    for got, want in zip(batch, baseline):
        np.testing.assert_array_equal(got.q, want.q)
        assert got.iterations == want.iterations
        assert got.error == want.error
        assert got.converged == want.converged
        assert got.status == want.status
        assert got.fk_evaluations == want.fk_evaluations


@pytest.mark.parametrize("on_error", ON_ERROR)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_matrix_bit_identical_to_serial_baseline(
    solver, workers, kernel, on_error, targets, baselines
):
    batch = api.solve_batch(
        ROBOT, targets, solver, seed=SEED, max_iterations=MAX_ITERATIONS,
        options=ExecutionOptions(
            kernel=kernel, workers=workers, on_error=on_error
        ),
    )
    _assert_bit_identical(batch, baselines[(solver, kernel)])
    # A healthy batch reports no failures regardless of policy.
    if on_error != "raise":
        assert not batch.failures.records


@pytest.mark.parametrize("solver", SOLVERS)
def test_kernels_agree_on_discrete_outcome(solver, baselines):
    scalar = baselines[(solver, "scalar")]
    vectorized = baselines[(solver, "vectorized")]
    for a, b in zip(scalar, vectorized):
        assert a.iterations == b.iterations
        assert a.converged == b.converged
        assert a.status == b.status
        assert a.fk_evaluations == b.fk_evaluations
        np.testing.assert_allclose(a.q, b.q, atol=1e-9, rtol=0.0)
        assert a.error == pytest.approx(b.error, abs=1e-9)


@pytest.mark.parametrize("solver", SOLVERS)
def test_per_row_q0_matches_scalar_loop(solver, targets):
    # The (M, dof) q0 form every batch path accepts (added for the serving
    # layer) must reproduce the per-target scalar solves exactly.
    chain = named_robot(ROBOT)
    q0 = np.stack([
        chain.random_configuration(np.random.default_rng(SEED + i))
        for i in range(len(targets))
    ])
    batch = api.solve_batch(
        ROBOT, targets, solver, q0=q0, max_iterations=MAX_ITERATIONS,
        options=ExecutionOptions(on_error="skip"),
    )
    for i, got in enumerate(batch):
        want = api.solve(
            ROBOT, targets[i], solver, q0=q0[i],
            max_iterations=MAX_ITERATIONS,
        )
        assert got.iterations == want.iterations
        assert got.status == want.status
        if solver == "JT-DLS":
            np.testing.assert_array_equal(got.q, want.q)
        else:
            np.testing.assert_allclose(got.q, want.q, atol=1e-9, rtol=0.0)


def test_per_row_q0_shape_validated(targets):
    with pytest.raises(ValueError, match="q0"):
        api.solve_batch(
            ROBOT, targets, "JT-DLS",
            q0=np.zeros((len(targets) + 1, 12)),
            options=ExecutionOptions(on_error="skip"),
        )
