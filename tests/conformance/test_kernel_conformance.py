"""Differential kernel conformance tier: vectorized vs the scalar oracle.

The vectorized kernel layer (:mod:`repro.kinematics.kernels`) replaces the
link-by-link FK/Jacobian loops with stacked-matmul kernels; the scalar path
is kept verbatim as the oracle.  This tier holds the fast path to it:

* **Primitive agreement** — FK frames, end positions, Jacobians and batch
  variants agree within 1e-12 for every registered robot and for the
  paper's DOF sweep (12/25/50/75/100).
* **Candidate-error agreement** — the speculative-sweep quantity Quick-IK
  branches on (``||X_t - f(theta + alpha_k dtheta)||`` over all ``Max``
  candidates) agrees within 1e-12, so step selection cannot silently
  diverge — for an explicit candidate block and for the Eq. 9 ray that
  Quick-IK hands the vectorized kernel as a ``SpeculationGrid``.
* **Solver equivalence** — every registered solver (and every lock-step
  batch engine) run under ``kernel="vectorized"`` terminates with the same
  iteration count, status and convergence verdict as under
  ``kernel="scalar"``, with final ``q`` equal up to float associativity
  (the same 1e-9 bound the cross-engine tier uses).

Tolerances are absolute: the workload geometry has ~1 m reach, so 1e-12 is
~4 decimal orders tighter than double-precision accumulation noise would
excuse and ~10 orders below the paper's 1e-2 accuracy constraint.
"""

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.execution import ExecutionOptions, KernelSpec
from repro.core.alpha import buss_alpha
from repro.kinematics.kernels import KERNEL_MODES, SpeculationGrid
from repro.kinematics.robots import ROBOT_NAMES, named_robot
from repro.solvers.registry import (
    BATCH_REGISTRY,
    SOLVER_REGISTRY,
    make_batch_solver,
    make_solver,
)

#: ISSUE acceptance bound for vectorized-vs-scalar agreement.
ATOL = 1e-12

#: The paper's DOF sweep (Section 6.2), exercised via generated robots.
SWEEP_DOFS = (12, 25, 50, 75, 100)

#: Every fixed named robot plus the generated families across the sweep.
ROBOTS = tuple(ROBOT_NAMES) + tuple(f"dadu-{dof}dof" for dof in SWEEP_DOFS)

SEED = 20170619
N_CONFIGS = 5
MAX_CANDIDATES = 32


def _twins(robot: str):
    """The scalar and vectorized twins of one registered robot."""
    scalar = named_robot(robot)
    return scalar, scalar.with_kernel("vectorized")


def _configurations(chain, n: int = N_CONFIGS) -> np.ndarray:
    rng = np.random.default_rng((SEED, chain.dof))
    return np.stack([chain.random_configuration(rng) for _ in range(n)])


def test_kernel_modes_cover_both_paths():
    assert set(KERNEL_MODES) == {"scalar", "vectorized"}


@pytest.mark.parametrize("robot", ROBOTS)
def test_fk_agrees(robot):
    """Full 4x4 FK and end positions: single and batch entry points."""
    scalar, vectorized = _twins(robot)
    qs = _configurations(scalar)
    for q in qs:
        np.testing.assert_allclose(
            vectorized.fk(q), scalar.fk(q), atol=ATOL, rtol=0.0
        )
        np.testing.assert_allclose(
            vectorized.end_position(q), scalar.end_position(q),
            atol=ATOL, rtol=0.0,
        )
    np.testing.assert_allclose(
        vectorized.fk_batch(qs), scalar.fk_batch(qs), atol=ATOL, rtol=0.0
    )
    np.testing.assert_allclose(
        vectorized.end_positions_batch(qs), scalar.end_positions_batch(qs),
        atol=ATOL, rtol=0.0,
    )


@pytest.mark.parametrize("robot", ROBOTS)
def test_jacobian_agrees(robot):
    """Position Jacobians: single and batch entry points."""
    scalar, vectorized = _twins(robot)
    qs = _configurations(scalar)
    for q in qs:
        np.testing.assert_allclose(
            vectorized.jacobian_position(q), scalar.jacobian_position(q),
            atol=ATOL, rtol=0.0,
        )
    np.testing.assert_allclose(
        vectorized.jacobian_position_batch(qs),
        scalar.jacobian_position_batch(qs),
        atol=ATOL, rtol=0.0,
    )


@pytest.mark.parametrize("robot", ROBOTS)
def test_candidate_errors_agree(robot):
    """The speculative sweep's selection quantity agrees across kernels.

    Reproduces exactly what Quick-IK evaluates each iteration: ``Max``
    candidate configurations ``theta + alpha_k dtheta`` along the Jacobian
    transpose direction, scored by distance to the target.  Equal errors
    (to 1e-12) mean the first-below-tolerance / argmin selection sees the
    same landscape under both kernels.
    """
    scalar, vectorized = _twins(robot)
    rng = np.random.default_rng((SEED + 1, scalar.dof))
    q = scalar.random_configuration(rng)
    target = scalar.end_position(scalar.random_configuration(rng))

    direction = scalar.jacobian_position(q).T @ (target - scalar.end_position(q))
    alphas = np.geomspace(1e-3, 1.0, MAX_CANDIDATES)
    candidates = q[None, :] + alphas[:, None] * direction[None, :]

    err_scalar = np.linalg.norm(
        target - scalar.end_positions_batch(candidates), axis=1
    )
    err_vectorized = np.linalg.norm(
        target - vectorized.end_positions_batch(candidates), axis=1
    )
    np.testing.assert_allclose(err_vectorized, err_scalar, atol=ATOL, rtol=0.0)


@pytest.mark.parametrize("robot", ROBOTS)
def test_ray_sweep_errors_agree(robot):
    """Quick-IK's own sweep: the Eq. 9 grid of ``Max = 64`` candidates on
    the Jacobian-transpose ray with the Buss step, which the vectorized
    kernel evaluates by stepping the joint angles along the ray and the
    scalar oracle by materialising the candidates."""
    scalar, vectorized = _twins(robot)
    rng = np.random.default_rng((SEED + 2, scalar.dof))
    qs = _configurations(scalar, 3)
    targets = np.stack([
        scalar.end_position(scalar.random_configuration(rng)) for _ in qs
    ])
    errors = targets - np.stack([scalar.end_position(q) for q in qs])
    jacobians = scalar.jacobian_position_batch(qs)
    directions = np.stack([j.T @ e for j, e in zip(jacobians, errors)])
    alphas = np.array([
        buss_alpha(e, j @ d) for j, e, d in zip(jacobians, errors, directions)
    ])
    grid = SpeculationGrid(qs, directions, alphas, 64)
    want = scalar.end_positions_batch(grid.candidates())
    np.testing.assert_array_equal(scalar.end_positions_batch(grid), want)
    np.testing.assert_allclose(
        vectorized.end_positions_batch(grid), want, atol=ATOL, rtol=0.0
    )


# -- solver-level equivalence ------------------------------------------

SOLVER_CONFIG = SolverConfig(
    tolerance=1e-2, max_iterations=120, record_history=False
)


def _solver_workload(dof: int = 25, n: int = 4):
    chain = named_robot(f"dadu-{dof}dof")
    rng = np.random.default_rng((SEED + 2, dof))
    targets = np.stack(
        [chain.end_position(chain.random_configuration(rng)) for _ in range(n)]
    )
    return chain, targets


def _assert_same_result(a, b):
    """Same termination, trajectory-equal up to float associativity."""
    assert a.iterations == b.iterations
    assert a.status == b.status
    assert a.converged == b.converged
    assert a.fk_evaluations == b.fk_evaluations
    np.testing.assert_allclose(a.q, b.q, atol=1e-9, rtol=0.0)
    assert a.error == pytest.approx(b.error, abs=1e-9)


@pytest.mark.parametrize("name", sorted(SOLVER_REGISTRY))
def test_solver_results_identical_across_kernels(name):
    """Every SOLVER_REGISTRY name: scalar and vectorized kernels converge
    identically (iterations, status, q) on the same seeded workload."""
    chain, targets = _solver_workload()
    runs = {}
    for mode in KERNEL_MODES:
        solver = make_solver(
            name, KernelSpec(name=mode).apply(chain), config=SOLVER_CONFIG
        )
        assert solver.chain.kernel == mode
        runs[mode] = [
            solver.solve(t, rng=np.random.default_rng((SEED + 3, i)))
            for i, t in enumerate(targets)
        ]
    for scalar_run, vectorized_run in zip(runs["scalar"], runs["vectorized"]):
        _assert_same_result(scalar_run, vectorized_run)


@pytest.mark.parametrize("name", sorted(BATCH_REGISTRY))
def test_lockstep_engines_identical_across_kernels(name):
    """Lock-step batch engines agree across kernels, problem by problem."""
    chain, targets = _solver_workload()
    runs = {}
    for mode in KERNEL_MODES:
        engine = make_batch_solver(
            name, chain, config=SOLVER_CONFIG,
            options=ExecutionOptions(kernel=mode),
        )
        runs[mode] = engine.solve_batch(
            targets, rng=np.random.default_rng((SEED + 4,))
        )
    for scalar_run, vectorized_run in zip(runs["scalar"], runs["vectorized"]):
        _assert_same_result(scalar_run, vectorized_run)


def test_api_kernel_switch_round_trip():
    """api.solve(options=ExecutionOptions(kernel=...)) reaches the kernel
    layer and agrees."""
    from repro import api

    chain, targets = _solver_workload(dof=12, n=1)
    results = {
        mode: api.solve(
            chain, targets[0], seed=7, tolerance=1e-2,
            max_iterations=120, options=ExecutionOptions(kernel=mode),
        )
        for mode in KERNEL_MODES
    }
    _assert_same_result(results["scalar"], results["vectorized"])
