"""Acceptance: served results == equivalent direct ``api.solve`` calls.

A mixed-robot, mixed-solver request stream goes through the micro-batching
server; every response is compared one-to-one against the offline solve with
the same robot / target / solver / seed / config.  Both lock-step families
here — Quick-IK's engine and a row-update family (JT-DLS) — run the scalar
step's own per-row arithmetic, so every response must be **bit-identical**
to its direct solve: iterations / converged / status / FK count, ``q`` and
``error``.

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

SOLVERS = ["JT-Speculation", "JT-DLS"]
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
            for solver in SOLVERS:
                chain = chains[robot]
                rng = np.random.default_rng(seed)
                target = chain.end_position(chain.random_configuration(rng))
                # The solve seed must differ from the target-generation
                # seed, or q0 would be the very configuration that produced
                # the target and every problem would converge in 0 steps.
                requests.append(SolveRequest(
                    robot, target, solver, seed=seed + 10_000,
                    tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
                ))
                seed += 1
    return requests


def _assert_equivalent(served, direct) -> None:
    # Lock-step engines label their results "<solver>-batched".
    assert served.solver.removesuffix("-batched") == direct.solver
    assert served.dof == direct.dof
    assert served.iterations == direct.iterations
    assert served.converged == direct.converged
    assert served.status == direct.status
    assert served.fk_evaluations == direct.fk_evaluations
    np.testing.assert_array_equal(served.q, direct.q)
    assert served.error == direct.error


@pytest.mark.parametrize("dispatch_workers", [1, 4])
def test_mixed_stream_matches_direct_solves(dispatch_workers, hold_dispatch):
    stream = _stream(per_cell=2)
    config = ServerConfig(
        max_batch_size=4, warm_start=False, dispatch_workers=dispatch_workers,
    )
    with IKServer(config) as srv:
        with hold_dispatch(srv):
            futures = [srv.submit(req) for req in stream]
        served = [f.result(timeout=120) for f in futures]

    for req, result in zip(stream, served):
        direct = api.solve(
            req.robot, req.target, req.solver, seed=req.seed,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )
        _assert_equivalent(result, direct)

    # The stream actually coalesced: fewer batches than requests.
    stats = srv.stats()
    assert stats.completed == len(stream)
    assert stats.batches < len(stream)
    assert stats.mean_occupancy > 1.0


def test_served_results_independent_of_batch_composition(hold_dispatch):
    # The same request must solve identically whether it rides a singleton
    # batch or shares one with strangers.
    chain = named_robot("dadu-12dof")
    rng = np.random.default_rng(42)
    targets = [
        chain.end_position(chain.random_configuration(rng)) for _ in range(3)
    ]

    def run(server_config, indices):
        with IKServer(server_config) as srv:
            with hold_dispatch(srv):
                futures = [
                    srv.submit(SolveRequest(
                        "dadu-12dof", targets[i], seed=1000 + i,
                        tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
                    ))
                    for i in indices
                ]
            return [f.result(timeout=120) for f in futures]

    coalesced = run(ServerConfig(max_batch_size=3, warm_start=False),
                    [0, 1, 2])
    singletons = run(ServerConfig(max_batch_size=1, warm_start=False),
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
            max_batch_size=3, warm_start=False,
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


def test_sharded_serving_matches_inline(hold_dispatch):
    # workers=2 shards every micro-batch across processes; PR 2's
    # bit-identity guarantee must survive the serving layer.
    chain = named_robot("dadu-12dof")
    rng = np.random.default_rng(7)
    targets = [
        chain.end_position(chain.random_configuration(rng)) for _ in range(4)
    ]

    def run(workers):
        config = ServerConfig(
            max_batch_size=4,
            options=ExecutionOptions(workers=workers, on_error="skip"),
            warm_start=False,
        )
        with IKServer(config) as srv:
            with hold_dispatch(srv):
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
