"""Registry-wide resilience conformance: every family gets the machinery free.

The guards / watchdogs / fallback / telemetry layers hook the *shared
driver* and the registry, not individual solver classes — so a new solver
family (``fdik`` and ``mdik`` in this PR) must inherit all of them with
zero integration code.  These sweeps parametrize over ``SOLVER_REGISTRY``
itself rather than a hard-coded list: registering a family IS the act of
enrolling it here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.core.result import SolverConfig
from repro.execution import ExecutionOptions
from repro.kinematics.robots import paper_chain
from repro.resilience import (
    DivergingSolver,
    ResilienceConfig,
    ResilientSolver,
    WatchdogConfig,
)
from repro.solvers.registry import SOLVER_REGISTRY, make_solver
from repro.telemetry import SummaryTracer

CHAIN = paper_chain(6)
FAMILIES = sorted(SOLVER_REGISTRY)


def _reachable(seed=0):
    rng = np.random.default_rng(seed)
    return CHAIN.end_position(CHAIN.random_configuration(rng))


class TestRegistryCoversNewFamilies:
    def test_new_families_registered(self):
        # The point of this PR's solver satellite: both new families are
        # in the registry, so every sweep below (and the conformance
        # tier's bit-identity sweeps) exercises them automatically.
        assert "fdik" in SOLVER_REGISTRY
        assert "mdik" in SOLVER_REGISTRY


@pytest.mark.parametrize("name", FAMILIES)
class TestGuards:
    def test_facade_guard_rejects_nonfinite_target(self, name):
        result = api.solve(
            CHAIN, [np.nan, 0.0, 0.0], name,
            options=ExecutionOptions(resilience=True),
        )
        assert not result.converged
        assert result.status == "nonfinite_target"
        assert np.isnan(result.error)
        assert result.q.shape == (CHAIN.dof,)

    def test_guard_counter_fires(self, name):
        tracer = SummaryTracer()
        api.solve(
            CHAIN, [np.inf, 0.0, 0.0], name,
            options=ExecutionOptions(resilience=True), tracer=tracer,
        )
        assert tracer.counters.get("guard_rejected") == 1


@pytest.mark.parametrize("name", FAMILIES)
class TestWatchdogs:
    def test_deadline_watchdog_trips_in_the_shared_driver(self, name):
        # An unreachable target never converges; the deadline detector
        # must cut the solve long before the iteration cap, whatever the
        # family's step rule is.
        config = SolverConfig(
            max_iterations=1_000_000,
            watchdog=WatchdogConfig(deadline_s=0.05),
        )
        solver = make_solver(name, CHAIN, config=config)
        result = solver.solve(
            np.array([99.0, 0.0, 0.0]), rng=np.random.default_rng(1)
        )
        assert not result.converged
        assert result.status == "deadline"
        assert result.iterations < 1_000_000

    def test_watchdog_counter_fires(self, name):
        tracer = SummaryTracer()
        config = SolverConfig(
            max_iterations=1_000_000,
            watchdog=WatchdogConfig(deadline_s=0.05),
        )
        solver = make_solver(name, CHAIN, config=config)
        solver.solve(
            np.array([99.0, 0.0, 0.0]),
            rng=np.random.default_rng(1),
            tracer=tracer,
        )
        assert tracer.counters.get("watchdog_deadline") == 1


@pytest.mark.parametrize("name", FAMILIES)
class TestFallback:
    def test_family_recovers_a_diverging_primary(self, name):
        # Every registry family is a usable fallback-chain member.
        primary = DivergingSolver(
            CHAIN, config=SolverConfig(max_iterations=20)
        )
        solver = ResilientSolver(
            CHAIN,
            primary=primary,
            config=SolverConfig(max_iterations=800, record_history=False),
            resilience=ResilienceConfig(fallback_chain=(name,)),
        )
        result = solver.solve(_reachable(3), rng=np.random.default_rng(2))
        assert result.converged
        assert result.status == "converged"
        # the primary's failure is on the record
        assert solver.last_report.records[0].solver == "diverging"

    def test_exhausted_family_counts_telemetry(self, name):
        # Capped at one iteration nothing converges: the family must
        # surface solve_failed / fallback_used like every other member.
        tiny = SolverConfig(max_iterations=1, record_history=False)
        # The chain member must differ from the primary (a duplicate is
        # deduped and there would be nothing to fall back to).
        fallback = "J-1-SVD" if name == "JT-DLS" else "JT-DLS"
        solver = ResilientSolver(
            CHAIN,
            primary=name,
            config=tiny,
            resilience=ResilienceConfig(fallback_chain=(fallback,)),
        )
        tracer = SummaryTracer()
        result = solver.solve(
            _reachable(5), rng=np.random.default_rng(6), tracer=tracer
        )
        assert not result.converged
        assert tracer.counters.get("solve_failed") == 1
        assert tracer.counters.get("fallback_used") == 1


@pytest.mark.parametrize("name", FAMILIES)
def test_serving_accepts_every_family(name):
    # The serving layer resolves solvers through the same registry — a
    # one-request smoke per family (the session differential tier covers
    # the streamed case for the new families in depth).
    from repro.serving import IKServer, ServerConfig, SolveRequest

    with IKServer(ServerConfig(max_wait_ms=1.0, warm_start=False)) as srv:
        result = srv.submit(SolveRequest(
            CHAIN, _reachable(7), name, seed=9,
            tolerance=1e-2, max_iterations=800,
        )).result(timeout=120)
    assert result.dof == CHAIN.dof
    assert np.all(np.isfinite(result.q))
