"""Conformance tier: the float32 kernel variant stays inside its
documented accuracy envelope.

float32 is a throughput tier, not an oracle: forward kinematics drift is
bounded (documented bound 1e-5 absolute over the paper sweep; measured
~3e-7 at 100 DOF) and the solver converges at the same rate as float64 on
the paper workload — it may take marginally different iteration counts,
but it must not lose problems.
"""

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.execution import KernelSpec
from repro.kinematics.robots import paper_chain
from repro.solvers.batched import BatchedQuickIK

SEED = 20170619
SWEEP_DOFS = (12, 25, 50, 75, 100)
N_CONFIGS = 32

#: Documented absolute FK bound for float32 vs the float64 oracle
#: (docs/performance.md).  Measured worst case is ~two orders below.
FK_ATOL_F32 = 1e-5


def _configurations(chain, n=N_CONFIGS):
    rng = np.random.default_rng((SEED, chain.dof))
    return np.stack([chain.random_configuration(rng) for _ in range(n)])


@pytest.mark.parametrize("dof", SWEEP_DOFS)
def test_float32_fk_within_documented_bound(dof):
    oracle = KernelSpec(name="vectorized", dtype="float64").apply(
        paper_chain(dof)
    )
    f32 = KernelSpec(name="vectorized", dtype="float32").apply(
        paper_chain(dof)
    )
    qs = _configurations(oracle)
    expected = oracle.end_positions_batch(qs)
    got = f32.end_positions_batch(qs.astype(np.float32))
    assert got.dtype == np.float32
    deviation = np.max(np.abs(got.astype(np.float64) - expected))
    assert deviation <= FK_ATOL_F32


def test_float32_convergence_rate_matches_float64():
    """The paper's headline workload (50 DOF) must not lose problems when
    demoted to float32: same convergence rate, iteration counts within a
    small factor of the float64 oracle."""
    dof, batch = 50, 64
    base = paper_chain(dof)
    rng = np.random.default_rng((SEED, dof, "targets".__hash__() & 0xFFFF))
    targets = np.stack([
        base.end_position(base.random_configuration(rng))
        for _ in range(batch)
    ])

    def run(dtype):
        chain = KernelSpec(name="vectorized", dtype=dtype).apply(
            paper_chain(dof)
        )
        engine = BatchedQuickIK(
            chain,
            config=SolverConfig(tolerance=1e-2, max_iterations=200),
            speculations=32,
        )
        out = engine.solve_batch(
            targets, rng=np.random.default_rng(SEED + 1)
        )
        rate = sum(r.converged for r in out) / batch
        iters = np.mean([r.iterations for r in out])
        return rate, iters

    rate64, iters64 = run("float64")
    rate32, iters32 = run("float32")
    assert rate64 >= 0.9  # the workload itself must be healthy
    # Convergence-rate bound: float32 may not trail float64 by more than
    # one problem in the 64-target batch.
    assert rate32 >= rate64 - 1.0 / batch
    # Iteration-count bound: same convergence behaviour, not a different
    # algorithm.  Allow 20% slack for single-step tolerance straddling.
    assert iters32 <= iters64 * 1.2 + 1.0


def test_float32_sweep_is_tagged_but_results_stay_float64():
    """The engine sweeps in float32 (telemetry tags the dtype) while the
    public ``IKResult`` keeps the float64 result contract."""
    from repro.telemetry.sinks import SummaryTracer

    chain = KernelSpec(name="vectorized", dtype="float32").apply(
        paper_chain(25)
    )
    engine = BatchedQuickIK(
        chain, config=SolverConfig(tolerance=1e-2, max_iterations=100)
    )
    base = paper_chain(25)
    rng = np.random.default_rng(SEED)
    targets = np.stack([
        base.end_position(base.random_configuration(rng)) for _ in range(4)
    ])
    tracer = SummaryTracer()
    out = engine.solve_batch(
        targets, rng=np.random.default_rng(SEED + 1), tracer=tracer
    )
    starts = [e for e in tracer.events if e["event"] == "solve_start"]
    assert starts and starts[0]["dtype"] == "float32"
    for r in out:
        assert r.q.dtype == np.float64


def test_float32_results_report_the_callers_target():
    """A float32 solve computes with a float32 copy of its target; every
    path reports the caller's float64 target, not that copy."""
    from repro import api
    from repro.execution import ExecutionOptions
    from repro.serving import SolveRequest

    target = np.array([0.31234567891, 0.1, 0.2])
    assert float(np.float32(target[0])) != target[0]
    options = ExecutionOptions(kernel="vectorized:float32")
    results = [
        api.solve("dadu-12dof", target, options=options, seed=1),
        api.solve_batch("dadu-12dof", target[None], options=options, seed=1)[0],
    ]
    with api.serve(options=options, warm_start=False) as server:
        future = server.submit(SolveRequest("dadu-12dof", target, seed=1))
        results.append(future.result(timeout=60))
    for result in results:
        assert result.target.dtype == np.float64
        assert np.array_equal(result.target, target)
