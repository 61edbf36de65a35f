"""Acceptance: served results == equivalent direct ``api.solve`` calls.

A mixed-robot, mixed-solver request stream goes through the micro-batching
server; every response is compared one-to-one against the offline solve with
the same robot / target / solver / seed / config.  Row-update families
(JT-DLS here), which run lock-step on the scalar step's own arithmetic, must
be **bit-identical**; Quick-IK's engine runs the batched einsum formulation
whose per-problem numerics the conformance tier pins to the scalar driver at
1e-9, so q is compared at that bound while the discrete outcome
(iterations / converged / status / FK count) must match exactly.

The guarantee is *dispatch-count invariant*: ``q0`` is fixed at admission
and per-problem numerics are independent of batch composition, so the same
stream through ``dispatch_workers=4`` must produce the same per-request
results as through the single loop — pinned here across {1, 4}.

Warm starting is explicitly disabled throughout: it replaces the seeded
``q0`` draw with a cached solution (by design not offline-comparable), and
whether a given admission hits the cache depends on how far concurrent
execution has progressed — the one timing-dependent piece of the pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.execution import ExecutionOptions
from repro.kinematics.robots import named_robot
from repro.serving import IKServer, ServerConfig, SolveRequest

#: (solver, lock_step) — Quick-IK's engine gets the 1e-9 q bound.
SOLVERS = [("JT-Speculation", True), ("JT-DLS", False)]
ROBOTS = ["dadu-12dof", "planar-8dof"]
MAX_ITERATIONS = 200
TOLERANCE = 1e-2


def _stream(per_cell: int = 2):
    """Interleaved requests across every (robot, solver) cell."""
    chains = {name: named_robot(name) for name in ROBOTS}
    requests = []
    seed = 500
    for i in range(per_cell):
        for robot in ROBOTS:
            for solver, lock_step in SOLVERS:
                chain = chains[robot]
                rng = np.random.default_rng(seed)
                target = chain.end_position(chain.random_configuration(rng))
                # The solve seed must differ from the target-generation
                # seed, or q0 would be the very configuration that produced
                # the target and every problem would converge in 0 steps.
                requests.append((
                    SolveRequest(
                        robot, target, solver, seed=seed + 10_000,
                        tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
                    ),
                    lock_step,
                ))
                seed += 1
    return requests


def _assert_equivalent(served, direct, lock_step: bool) -> None:
    # Lock-step engines label their results "<solver>-batched".
    assert served.solver.removesuffix("-batched") == direct.solver
    assert served.dof == direct.dof
    assert served.iterations == direct.iterations
    assert served.converged == direct.converged
    assert served.status == direct.status
    assert served.fk_evaluations == direct.fk_evaluations
    if lock_step:
        np.testing.assert_allclose(served.q, direct.q, atol=1e-9, rtol=0.0)
        assert served.error == pytest.approx(direct.error, abs=1e-9)
    else:
        np.testing.assert_array_equal(served.q, direct.q)
        assert served.error == direct.error


@pytest.mark.parametrize("dispatch_workers", [1, 4])
def test_mixed_stream_matches_direct_solves(dispatch_workers):
    stream = _stream(per_cell=2)
    config = ServerConfig(
        max_batch_size=4, max_wait_ms=100.0, warm_start=False,
        dispatch_workers=dispatch_workers,
    )
    with IKServer(config) as srv:
        futures = [srv.submit(req) for req, _ in stream]
        served = [f.result(timeout=120) for f in futures]

    for (req, lock_step), result in zip(stream, served):
        direct = api.solve(
            req.robot, req.target, req.solver, seed=req.seed,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )
        _assert_equivalent(result, direct, lock_step)

    # The stream actually coalesced: fewer batches than requests.
    stats = srv.stats()
    assert stats.completed == len(stream)
    assert stats.batches < len(stream)
    assert stats.mean_occupancy > 1.0


def test_served_results_independent_of_batch_composition():
    # The same request must solve identically whether it rides a singleton
    # batch or shares one with strangers.
    chain = named_robot("dadu-12dof")
    rng = np.random.default_rng(42)
    targets = [
        chain.end_position(chain.random_configuration(rng)) for _ in range(3)
    ]

    def run(server_config, indices):
        with IKServer(server_config) as srv:
            futures = [
                srv.submit(SolveRequest(
                    "dadu-12dof", targets[i], seed=1000 + i,
                    tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
                ))
                for i in indices
            ]
            return [f.result(timeout=120) for f in futures]

    coalesced = run(ServerConfig(max_batch_size=3, max_wait_ms=10_000.0,
                                 warm_start=False),
                    [0, 1, 2])
    singletons = run(ServerConfig(max_batch_size=1, max_wait_ms=0.0,
                                  warm_start=False),
                     [0, 1, 2])
    for a, b in zip(coalesced, singletons):
        np.testing.assert_array_equal(a.q, b.q)
        assert a.iterations == b.iterations
        assert a.status == b.status


def test_served_results_identical_across_dispatch_worker_counts():
    # The tentpole acceptance pin: the same request stream through 1 and 4
    # dispatch loops yields bit-identical per-request results — concurrent
    # dispatch may change which batch a request rides, never its answer.
    chain = named_robot("dadu-12dof")
    rng = np.random.default_rng(11)
    targets = [
        chain.end_position(chain.random_configuration(rng)) for _ in range(8)
    ]

    def run(dispatch_workers):
        config = ServerConfig(
            max_batch_size=3, max_wait_ms=5.0, warm_start=False,
            dispatch_workers=dispatch_workers,
        )
        with IKServer(config) as srv:
            futures = [
                srv.submit(SolveRequest(
                    "dadu-12dof", t, seed=3000 + i,
                    tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
                ))
                for i, t in enumerate(targets)
            ]
            return [f.result(timeout=120) for f in futures]

    single = run(1)
    multi = run(4)
    for a, b in zip(single, multi):
        np.testing.assert_array_equal(a.q, b.q)
        assert a.iterations == b.iterations
        assert a.status == b.status
        assert a.fk_evaluations == b.fk_evaluations


def test_sharded_serving_matches_inline():
    # workers=2 shards every micro-batch across processes; PR 2's
    # bit-identity guarantee must survive the serving layer.
    chain = named_robot("dadu-12dof")
    rng = np.random.default_rng(7)
    targets = [
        chain.end_position(chain.random_configuration(rng)) for _ in range(4)
    ]

    def run(workers):
        config = ServerConfig(
            max_batch_size=4, max_wait_ms=10_000.0,
            options=ExecutionOptions(workers=workers, on_error="skip"),
            warm_start=False,
        )
        with IKServer(config) as srv:
            futures = [
                srv.submit(SolveRequest(
                    "dadu-12dof", t, seed=2000 + i,
                    tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
                ))
                for i, t in enumerate(targets)
            ]
            return [f.result(timeout=300) for f in futures]

    inline = run(workers=None)
    sharded = run(workers=2)
    for a, b in zip(inline, sharded):
        np.testing.assert_array_equal(a.q, b.q)
        assert a.iterations == b.iterations
        assert a.fk_evaluations == b.fk_evaluations
