"""Differential conformance tier: every batch path computes the same solves.

Three execution paths exist for a batch of IK problems — the scalar driver
loop, the lock-step vectorised engines, and the process-sharded pool — and
they must agree per problem:

* across *worker counts* (sharded ``workers=2`` vs ``workers=1`` vs the
  unsharded engine): **bit-for-bit identical** — same iteration counts,
  same final ``q`` arrays, same error floats, same FK-evaluation counts;
* across *engines* (lock-step vs scalar driver): bit-for-bit for every
  lock-step family — the row-update families run the scalar step's own
  arithmetic on every row, and Quick-IK's engine contracts with the same
  :mod:`repro.core.rows` helpers, starts from the same prefix-frame pass
  and sweeps the same problem-invariant ``SpeculationGrid`` through the
  same helper (``repro.core.quick_ik.speculate``) as
  ``QuickIKSolver._step``;
* across *batch sizes* (one row alone vs the same row in a batch of many):
  bit-for-bit for every lock-step engine, on both kernels.

Chains are seeded random geometries at 12/25/50 DOF, so conformance is not
an artefact of one benign manipulator.  ``max_iterations`` is capped well
below convergence for the slow serial methods: agreement of *unconverged*
trajectories is exactly as binding.
"""

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.execution import ExecutionOptions, KernelSpec
from repro.parallel import ShardedBatchSolver
from repro.solvers.registry import (
    BATCH_REGISTRY,
    SOLVER_REGISTRY,
    make_batch_solver,
    make_solver,
)
from repro.kinematics import transforms
from repro.kinematics.chain import KinematicChain
from repro.kinematics.kernels import SpeculationGrid
from repro.kinematics.robots import random_chain

DOFS = (12, 25, 50)
N_TARGETS = 6
CONFIG = SolverConfig(tolerance=1e-2, max_iterations=120, record_history=False)
SEED = 20170618


def _workload(dof: int, n: int = N_TARGETS):
    """Seeded random chain plus reachable targets for it."""
    chain = random_chain(dof, np.random.default_rng((SEED, dof)))
    rng = np.random.default_rng((SEED + 1, dof))
    targets = np.stack(
        [chain.end_position(chain.random_configuration(rng)) for _ in range(n)]
    )
    return chain, targets


def _assert_bit_identical(batch_a, batch_b):
    """Same solves, bit for bit (the cross-worker-count guarantee)."""
    assert len(batch_a) == len(batch_b)
    for a, b in zip(batch_a, batch_b):
        assert a.iterations == b.iterations
        assert np.array_equal(a.q, b.q)
        assert a.error == b.error
        assert a.converged == b.converged
        assert a.fk_evaluations == b.fk_evaluations
        assert np.array_equal(a.target, b.target)


@pytest.mark.parametrize("dof", DOFS)
@pytest.mark.parametrize("name", sorted(SOLVER_REGISTRY))
def test_sharded_pool_matches_workers_1(name, dof):
    """Every SOLVER_REGISTRY name: workers=2 == workers=1 == unsharded."""
    chain, targets = _workload(dof)
    seed = (SEED + 2, dof)

    unsharded = make_batch_solver(name, chain, config=CONFIG).solve_batch(
        targets, rng=np.random.default_rng(seed)
    )
    inline = ShardedBatchSolver(
        make_batch_solver(name, chain, config=CONFIG), workers=1
    ).solve_batch(targets, rng=np.random.default_rng(seed))
    pooled = ShardedBatchSolver(
        make_batch_solver(name, chain, config=CONFIG), workers=2
    ).solve_batch(targets, rng=np.random.default_rng(seed))

    _assert_bit_identical(unsharded, inline)
    _assert_bit_identical(inline, pooled)


@pytest.mark.parametrize("dof", DOFS)
@pytest.mark.parametrize("name", sorted(BATCH_REGISTRY))
def test_lockstep_engine_matches_scalar_driver_and_pool(name, dof):
    """BATCH_REGISTRY names: lock-step == scalar driver == sharded pool."""
    chain, targets = _workload(dof)
    seed = (SEED + 3, dof)

    scalar = make_solver(name, chain, config=CONFIG).solve_batch(
        targets, rng=np.random.default_rng(seed)
    )
    lockstep = make_batch_solver(name, chain, config=CONFIG).solve_batch(
        targets, rng=np.random.default_rng(seed)
    )
    pooled = ShardedBatchSolver(
        make_batch_solver(name, chain, config=CONFIG), workers=2
    ).solve_batch(targets, rng=np.random.default_rng(seed))

    _assert_bit_identical(scalar, lockstep)
    _assert_bit_identical(lockstep, pooled)


@pytest.mark.parametrize("name", sorted(SOLVER_REGISTRY))
def test_api_workers_identical(name):
    """api.solve_batch(workers=4) == api.solve_batch(workers=1), all solvers."""
    from repro import api

    chain, targets = _workload(25)
    kwargs = dict(
        solver=name, seed=11, tolerance=1e-2, max_iterations=120
    )
    one = api.solve_batch(
        chain, targets, options=ExecutionOptions(workers=1), **kwargs
    )
    four = api.solve_batch(
        chain, targets, options=ExecutionOptions(workers=4), **kwargs
    )
    _assert_bit_identical(one, four)


def test_order_preserved_under_sharding():
    """Merged results keep input order: result[i].target is targets[i]."""
    chain, targets = _workload(12, n=9)
    batch = ShardedBatchSolver(
        make_batch_solver("JT-Speculation", chain, config=CONFIG), workers=4
    ).solve_batch(targets, rng=np.random.default_rng(0))
    for i, result in enumerate(batch):
        assert np.array_equal(result.target, targets[i])


def test_explicit_q0_rows_conform_across_all_paths():
    """Per-problem q0 rows: scalar loop, lock-step and pool all agree."""
    chain, targets = _workload(12)
    q0 = np.stack(
        [
            chain.random_configuration(np.random.default_rng((SEED + 4, i)))
            for i in range(len(targets))
        ]
    )
    lockstep = make_batch_solver("JT-Speculation", chain, config=CONFIG).solve_batch(
        targets, q0=q0
    )
    pooled = ShardedBatchSolver(
        make_batch_solver("JT-Speculation", chain, config=CONFIG), workers=3
    ).solve_batch(targets, q0=q0)
    scalar_solver = make_solver("JT-Speculation", chain, config=CONFIG)
    scalar = [scalar_solver.solve(t, q0=q0[i]) for i, t in enumerate(targets)]

    _assert_bit_identical(lockstep, pooled)
    _assert_bit_identical(scalar, lockstep)


# -- lock-step rows == scalar solves (B = 1 == B = M) --------------------

#: Lock-step names: Quick-IK plus every row-update family.
LOCKSTEP = sorted(BATCH_REGISTRY)

#: Lock-step rows equal the scalar driver bit for bit.  The one exception
#: is Quick-IK under ``respect_limits``: the driver re-evaluates the
#: clamped winner's position with the prefix-frame pass where the engine
#: keeps the sweep's fold, so there the two agree to this bound.
QUICK_IK_ATOL = 1e-9


#: Chain geometries of the batch-size tiers.  Every registered robot has
#: an identity base and tool and the standard convention, so the tiers
#: also run a base rotated 0.7 rad about z and offset (a sweep that applies
#: it with a 2-D matmul rounds its rows differently at B = 1 and B = 8),
#: and a modified-convention chain with a tool offset (the other order in
#: which the sweep moves the tool point through a link).
GEOMETRIES = ("plain", "rotated-base", "modified-tool")


def _geometry(chain, geometry: str):
    if geometry == "rotated-base":
        base = transforms.trans(0.1, -0.2, 0.3) @ transforms.rot_z(0.7)
        return KinematicChain(chain.joints, base=base, name=chain.name)
    if geometry == "modified-tool":
        tool = transforms.trans(0.04, -0.03, 0.06) @ transforms.rot_x(0.3)
        return KinematicChain(
            chain.joints, tool=tool, convention="modified", name=chain.name
        )
    return chain


def _cold_batch(dof: int, n: int, geometry: str = "plain"):
    """Seeded chain, targets and random starts.  Two rows aim near their
    start, so every family retires rows at different iterations and
    compaction drops rows while carried Jacobians and fdik's velocity are
    still in flight."""
    chain = _geometry(
        random_chain(dof, np.random.default_rng((SEED + 5, dof))), geometry
    )
    rng = np.random.default_rng((SEED + 6, dof))
    q0 = np.stack([chain.random_configuration(rng) for _ in range(n)])
    aims = np.stack([chain.random_configuration(rng) for _ in range(n)])
    aims[:2] = q0[:2] + rng.normal(scale=0.05, size=(2, dof))
    targets = np.stack([chain.end_position(q) for q in aims])
    return chain, targets, q0


def _assert_same_row(got, want, exact: bool = True) -> None:
    assert got.iterations == want.iterations
    assert got.status == want.status
    assert got.converged == want.converged
    assert got.fk_evaluations == want.fk_evaluations
    np.testing.assert_array_equal(got.target, want.target)
    if exact:
        np.testing.assert_array_equal(got.q, want.q)
        assert got.error == want.error
        np.testing.assert_array_equal(got.error_history, want.error_history)
    else:
        np.testing.assert_allclose(got.q, want.q, atol=QUICK_IK_ATOL, rtol=0.0)
        assert got.error == pytest.approx(want.error, abs=QUICK_IK_ATOL)
        np.testing.assert_allclose(
            got.error_history, want.error_history,
            atol=QUICK_IK_ATOL, rtol=0.0,
        )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
@pytest.mark.parametrize("name", LOCKSTEP)
def test_lockstep_rows_equal_single_rows_and_scalar_solves(name, kernel, dtype):
    """B = 1 == B = M bit for bit, and each row == make_solver(name).solve
    of its target from the same start, on every chain geometry and in
    both dtypes: on a float32 chain the scalar driver keeps float32 state
    as the engine does, and both report the caller's float64 target."""
    config = SolverConfig(tolerance=1e-2, max_iterations=150)
    for geometry in GEOMETRIES:
        chain, targets, q0 = _cold_batch(12, 8, geometry)
        chain = KernelSpec(name=kernel, dtype=dtype).apply(chain)
        engine = make_batch_solver(name, chain, config=config)
        many = engine.solve_batch(targets, q0=q0)
        assert len({r.iterations for r in many}) > 1, geometry
        scalar = make_solver(name, chain, config=config)
        for i, row in enumerate(many):
            _assert_same_row(
                row, engine.solve_batch(targets[i:i + 1], q0=q0[i:i + 1])[0]
            )
            _assert_same_row(row, scalar.solve(targets[i], q0=q0[i]))


@pytest.mark.parametrize("name", LOCKSTEP)
def test_vectorized_batch_equals_its_halves(name):
    """The vectorized kernel computes every row count in one order, so a
    32-target batch equals its two 16-row halves bit for bit — the
    ``workers=2`` split of the same batch — on every chain geometry."""
    config = SolverConfig(tolerance=1e-2, max_iterations=30)
    for geometry in GEOMETRIES:
        chain, targets, q0 = _cold_batch(50, 32, geometry)
        chain = KernelSpec(name="vectorized").apply(chain)
        engine = make_batch_solver(name, chain, config=config)
        whole = engine.solve_batch(targets, q0=q0)
        halves = [
            *engine.solve_batch(targets[:16], q0=q0[:16]),
            *engine.solve_batch(targets[16:], q0=q0[16:]),
        ]
        for a, b in zip(whole, halves):
            _assert_same_row(a, b)


@pytest.mark.parametrize("name", LOCKSTEP)
def test_lockstep_respects_joint_limits_like_api_solve(name):
    """``respect_limits`` reaches the engines: starts 1e-3 rad below the
    upper limits stay inside the box, row for row as ``api.solve``."""
    from repro import api

    chain, targets, _ = _cold_batch(12, 6)
    q0 = np.tile(chain.upper_limits - 1e-3, (len(targets), 1))
    config = SolverConfig(
        tolerance=1e-2, max_iterations=80, respect_limits=True
    )
    batch = api.solve_batch(chain, targets, name, q0=q0, config=config)
    for i, row in enumerate(batch):
        assert chain.within_limits(row.q)
        want = api.solve(chain, targets[i], name, q0=q0[i], config=config)
        if name == "JT-Speculation":
            # The driver re-evaluates FK after its own (no-op) clamp of the
            # already clamped winner: one extra FK per iteration.
            assert want.fk_evaluations == row.fk_evaluations + row.iterations
            want.fk_evaluations = row.fk_evaluations
        _assert_same_row(row, want, exact=name != "JT-Speculation")


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
def test_clamped_quick_ik_keeps_the_explicit_sweep(kernel, monkeypatch):
    """Under the linear schedule both Quick-IK paths sweep a
    ``SpeculationGrid``.  ``respect_limits`` clamps every candidate off the
    ray, so there both hand the FK the explicit candidate block, and the
    engine's rows equal ``api.solve`` up to the documented exception: the
    driver's extra FK of the clamped winner (``QUICK_IK_ATOL``)."""
    from repro import api

    chain, targets, _ = _cold_batch(12, 6)
    chain = KernelSpec(name=kernel).apply(chain)
    q0 = np.tile(chain.upper_limits - 1e-3, (len(targets), 1))
    swept = []
    sweep = KinematicChain.end_positions_batch

    def spy(self, qs):
        swept.append(type(qs))
        return sweep(self, qs)

    monkeypatch.setattr(KinematicChain, "end_positions_batch", spy)
    free = SolverConfig(tolerance=1e-2, max_iterations=80)
    api.solve_batch(chain, targets, "JT-Speculation", q0=q0, config=free)
    api.solve(chain, targets[0], "JT-Speculation", q0=q0[0], config=free)
    assert swept and set(swept) == {SpeculationGrid}

    swept.clear()
    clamped = SolverConfig(
        tolerance=1e-2, max_iterations=80, respect_limits=True
    )
    batch = api.solve_batch(
        chain, targets, "JT-Speculation", q0=q0, config=clamped
    )
    for i, row in enumerate(batch):
        assert chain.within_limits(row.q)
        want = api.solve(
            chain, targets[i], "JT-Speculation", q0=q0[i], config=clamped
        )
        assert want.fk_evaluations == row.fk_evaluations + row.iterations
        want.fk_evaluations = row.fk_evaluations
        _assert_same_row(row, want, exact=False)
    assert swept and set(swept) == {np.ndarray}


@pytest.mark.parametrize("name", LOCKSTEP)
def test_lockstep_records_error_history(name):
    """``record_history`` (the default) gives lock-step rows the driver's
    history: the initial error plus one entry per iteration."""
    from repro import api

    chain, targets, q0 = _cold_batch(12, 4)
    batch = api.solve_batch(chain, targets, name, q0=q0, max_iterations=60)
    for i, row in enumerate(batch):
        assert row.error_history.shape == (row.iterations + 1,)
        assert row.error_history[-1] == row.error
        want = api.solve(chain, targets[i], name, q0=q0[i], max_iterations=60)
        _assert_same_row(row, want)
    off = SolverConfig(record_history=False)
    assert api.solve_batch(chain, targets, name, q0=q0, config=off)[0] \
        .error_history.size == 0


@pytest.mark.parametrize("name", LOCKSTEP)
def test_watchdog_config_keeps_the_per_target_driver(name):
    """Only the per-target driver arms the watchdog, so a config carrying
    one is not run lock-step — its trips reach the batch results."""
    from repro import api
    from repro.resilience.watchdogs import WatchdogConfig

    chain, _, q0 = _cold_batch(12, 3)
    unreachable = np.tile([99.0, 0.0, 0.0], (3, 1))
    config = SolverConfig(
        max_iterations=500,
        watchdog=WatchdogConfig(stall_window=5, stall_min_delta=1.0),
    )
    batch = api.solve_batch(chain, unreachable, name, q0=q0, config=config)
    assert batch.solver == name
    for i, row in enumerate(batch):
        assert row.status == "stalled"
        want = api.solve(chain, unreachable[i], name, q0=q0[i], config=config)
        _assert_same_row(row, want)
