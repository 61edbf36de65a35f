"""Session-differential tier: streamed sessions == offline warm-started loops.

The contract under test (``repro.serving.sessions``): a
:class:`TrackingSession` resolves every tick's ``q0`` at the session layer
— tick ``N``'s seed is tick ``N-1``'s solution via the shared
:func:`~repro.control.trajectory.next_seed` contract, and tick 0 falls back
to the ranked seed cache, then to the same seeded draw a direct
``api.solve(..., seed=s)`` performs.  Because ``q0`` is explicit at
admission, the streamed results must be **bit-identical** to an offline
loop that solves the same targets sequentially with chained seeds —
invariant across ``dispatch_workers`` counts and concurrent interleaved
sessions.

Offline reference nuance: the row-update families (JT-DLS, fdik, mdik)
run lock-step when served, on the scalar step's own arithmetic, so
``api.solve`` reproduces them bit for bit; Quick-IK's engine
(JT-Speculation) reassociates its Jacobian contractions, so its reference
is an ``api.solve_batch`` singleton (the conformance tier separately pins
that batch composition never changes per-problem numerics).

The differential runs disable the seed cache (``seed_cache_capacity=0``):
whether a tick-0 admission hits the cache depends on how far concurrent
execution has progressed — the one timing-dependent seed source.  Cache
fallback itself is covered by the lifecycle cases below with a controlled
single-session server.

Lifecycle policy (bounds, idle expiry, close-mid-stream) is tested
clock-free through ``SessionManager``'s injectable clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.control.trajectory import next_seed
from repro.kinematics.robots import named_robot
from repro.serving import (
    IKServer,
    ServerConfig,
    SessionClosed,
    SessionConfig,
    SessionExpired,
    SessionLimit,
    SessionManager,
)
from repro.telemetry import SummaryTracer

TOLERANCE = 1e-2
MAX_ITERATIONS = 300

#: (solver, lock_step) — Quick-IK's engine is referenced via solve_batch.
SOLVERS = [
    ("JT-Speculation", True),
    ("JT-DLS", False),
    ("fdik", False),
    ("mdik", False),
]


def smooth_targets(chain, ticks: int, seed: int) -> np.ndarray:
    """A short reachable trajectory: FK of a joint-space random walk."""
    rng = np.random.default_rng(seed)
    q = chain.random_configuration(rng)
    targets = []
    for _ in range(ticks):
        q = chain.clamp(q + rng.normal(scale=0.04, size=chain.dof))
        targets.append(chain.end_position(q))
    return np.stack(targets)


def offline_reference(chain, solver, lock_step, targets, seed):
    """The sequential warm-started loop a session must reproduce."""
    q0 = chain.random_configuration(np.random.default_rng(seed))
    results = []
    for target in targets:
        if lock_step:
            batch = api.solve_batch(
                chain, target[None, :], solver, q0=q0[None, :],
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )
            result = list(batch)[0]
        else:
            result = api.solve(
                chain, target, solver, q0=q0,
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )
        results.append(result)
        q0 = next_seed(result, q0)
    return results


def assert_bit_identical(served, direct) -> None:
    assert served.solver.removesuffix("-batched") == (
        direct.solver.removesuffix("-batched")
    )
    np.testing.assert_array_equal(served.q, direct.q)
    assert served.error == direct.error
    assert served.iterations == direct.iterations
    assert served.converged == direct.converged
    assert served.status == direct.status


def server_config(dispatch_workers: int = 1, **kwargs) -> ServerConfig:
    kwargs.setdefault("max_batch_size", 8)
    kwargs.setdefault("seed_cache_capacity", 0)
    return ServerConfig(dispatch_workers=dispatch_workers, **kwargs)


class TestSessionDifferential:
    @pytest.mark.parametrize("dispatch_workers", [1, 4])
    @pytest.mark.parametrize("solver,lock_step", SOLVERS)
    def test_stream_matches_offline_loop(
        self, solver, lock_step, dispatch_workers
    ):
        chain = named_robot("dadu-12dof")
        targets = smooth_targets(chain, ticks=6, seed=11)
        with IKServer(server_config(dispatch_workers)) as srv:
            manager = SessionManager(srv)
            session = manager.open(
                chain, solver=solver, seed=901,
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )
            served = [session.tick(t).result(timeout=120) for t in targets]
            manager.close_all()

        reference = offline_reference(chain, solver, lock_step, targets, 901)
        for got, want in zip(served, reference):
            assert_bit_identical(got, want)

        assert session.stats.ticks == len(targets)
        assert session.stats.cold_ticks == 1
        assert session.stats.warm_ticks == len(targets) - 1

    @pytest.mark.parametrize("dispatch_workers", [1, 4])
    def test_concurrent_mixed_robot_sessions(self, dispatch_workers):
        # Several interleaved streams across robots and solver families
        # share one server; each must still match its own offline loop.
        cells = [
            ("dadu-12dof", "fdik", 21),
            ("planar-8dof", "mdik", 22),
            ("dadu-12dof", "JT-Speculation", 23),
            ("planar-8dof", "JT-DLS", 24),
        ]
        ticks = 5
        chains = {name: named_robot(name) for name, _, _ in cells}
        trajectories = [
            smooth_targets(chains[name], ticks, seed)
            for name, _, seed in cells
        ]
        with IKServer(server_config(dispatch_workers)) as srv:
            manager = SessionManager(srv)
            sessions = [
                manager.open(
                    chains[name], solver=solver, seed=3000 + j,
                    tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
                )
                for j, (name, solver, _) in enumerate(cells)
            ]
            # Round-robin: one tick per session per round, so ticks from
            # different sessions interleave (and may coalesce) freely.
            futures = [[] for _ in cells]
            for i in range(ticks):
                for j, session in enumerate(sessions):
                    if futures[j]:
                        # tick() awaits the previous tick; bound that wait.
                        futures[j][-1].exception(timeout=120)
                    futures[j].append(
                        session.tick(trajectories[j][i])
                    )
            served = [
                [f.result(timeout=120) for f in row] for row in futures
            ]
            manager.close_all()

        for j, (name, solver, _) in enumerate(cells):
            lock_step = solver == "JT-Speculation"
            reference = offline_reference(
                chains[name], solver, lock_step, trajectories[j], 3000 + j
            )
            for got, want in zip(served[j], reference):
                assert_bit_identical(got, want)

        stats = manager.stats()
        assert stats["ticks"] == ticks * len(cells)
        assert stats["cold_ticks"] == len(cells)

    def test_explicit_q0_pins_the_first_seed(self):
        chain = named_robot("dadu-12dof")
        targets = smooth_targets(chain, ticks=3, seed=31)
        q_start = chain.random_configuration(np.random.default_rng(77))

        with IKServer(server_config()) as srv:
            manager = SessionManager(srv)
            session = manager.open(
                chain, solver="JT-DLS", q0=q_start,
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )
            served = [session.tick(t).result(timeout=120) for t in targets]
            manager.close_all()

        # An explicit q0 counts as warm from tick 0 — no cold draw at all.
        assert session.stats.cold_ticks == 0
        assert session.stats.warm_ticks == len(targets)

        q0 = q_start
        for target, got in zip(targets, served):
            want = api.solve(
                chain, target, "JT-DLS", q0=q0,
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )
            assert_bit_identical(got, want)
            q0 = next_seed(want, q0)

    def test_first_tick_falls_back_to_seed_cache(self):
        # With the ranked cache enabled and a solution already recorded
        # near the first target, tick 0 is warm (cache hit), not a draw.
        chain = named_robot("dadu-12dof")
        targets = smooth_targets(chain, ticks=2, seed=41)
        config = server_config(seed_cache_capacity=64)
        with IKServer(config) as srv:
            # Prime the cache by serving the first target once.
            from repro.serving import SolveRequest

            srv.submit(SolveRequest(
                chain, targets[0], "JT-DLS", seed=5,
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )).result(timeout=120)
            primed = srv.warm_seed(chain, targets[0])
            assert primed is not None

            manager = SessionManager(srv)
            session = manager.open(
                chain, solver="JT-DLS", seed=902,
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )
            first = session.tick(targets[0]).result(timeout=120)
            manager.close_all()

        want = api.solve(
            chain, targets[0], "JT-DLS", q0=primed,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )
        assert_bit_identical(first, want)

    def test_unconverged_tick_keeps_previous_seed(self):
        # next_seed contract: a failed tick must not poison the stream —
        # the next tick re-solves from the last good seed.
        chain = named_robot("dadu-12dof")
        targets = smooth_targets(chain, ticks=3, seed=51)
        with IKServer(server_config()) as srv:
            manager = SessionManager(srv)
            session = manager.open(
                chain, solver="JT-DLS", seed=903,
                tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
            )
            session.tick(targets[0]).result(timeout=120)
            seed_before = session.last_q
            # An unreachable target cannot converge.
            far = np.array([50.0, 50.0, 50.0])
            failed = session.tick(far, deadline_s=None).result(timeout=120)
            assert not failed.converged
            np.testing.assert_array_equal(session.last_q, seed_before)
            manager.close_all()


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture(scope="module")
def shared_server():
    with IKServer(server_config()) as srv:
        yield srv


class TestLifecycle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(max_sessions=0)
        with pytest.raises(ValueError):
            SessionConfig(idle_expiry_s=0.0)
        assert SessionConfig(idle_expiry_s=None).idle_expiry_s is None

    def test_open_get_close(self, shared_server):
        manager = SessionManager(shared_server)
        session = manager.open("dadu-12dof")
        assert manager.get(session.session_id) is session
        assert manager.active_count == 1
        session.close()
        session.close()  # idempotent
        assert session.state == "closed"
        assert manager.get(session.session_id) is None
        assert manager.active_count == 0

    def test_session_limit_rejects_open(self, shared_server):
        manager = SessionManager(
            shared_server, SessionConfig(max_sessions=2, idle_expiry_s=None)
        )
        manager.open("dadu-12dof")
        manager.open("dadu-12dof")
        with pytest.raises(SessionLimit):
            manager.open("dadu-12dof")
        assert manager.active_count == 2

    def test_idle_expiry_is_lazy_and_clock_free(self, shared_server):
        clock = FakeClock()
        manager = SessionManager(
            shared_server,
            SessionConfig(max_sessions=4, idle_expiry_s=10.0),
            clock=clock,
        )
        session = manager.open("dadu-12dof")
        clock.advance(9.0)
        assert manager.expire_idle() == []
        clock.advance(2.0)  # 11 s idle > 10 s budget
        assert manager.expire_idle() == [session.session_id]
        assert session.state == "expired"
        assert manager.expired == 1
        with pytest.raises(SessionExpired):
            session.tick(np.zeros(3))

    def test_tick_refreshes_the_idle_timestamp(self, shared_server):
        clock = FakeClock()
        manager = SessionManager(
            shared_server,
            SessionConfig(max_sessions=4, idle_expiry_s=10.0),
            clock=clock,
        )
        chain = named_robot("dadu-12dof")
        target = smooth_targets(chain, 1, seed=61)[0]
        session = manager.open(
            chain, solver="JT-DLS", seed=904,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )
        clock.advance(8.0)
        session.tick(target).result(timeout=120)
        clock.advance(8.0)  # 8 s since the tick — still live
        assert manager.expire_idle() == []
        assert session.state == "open"

    def test_ticks_sweep_only_past_the_earliest_deadline(
        self, shared_server, monkeypatch
    ):
        clock = FakeClock()
        manager = SessionManager(
            shared_server,
            SessionConfig(max_sessions=64, idle_expiry_s=10.0),
            clock=clock,
        )
        sweeps = []
        sweep = manager._expire_locked
        monkeypatch.setattr(
            manager, "_expire_locked",
            lambda now, tr: sweeps.append(now) or sweep(now, tr),
        )
        chain = named_robot("dadu-12dof")
        rng = np.random.default_rng(62)
        starts = [chain.random_configuration(rng) for _ in range(64)]
        sessions = [
            manager.open(chain, solver="JT-DLS", q0=q0, tolerance=TOLERANCE)
            for q0 in starts
        ]
        opened = len(sweeps)
        # Each tick's target is its session's start: it converges at once.
        for _ in range(3):
            clock.advance(2.0)
            for session, q0 in zip(sessions, starts):
                session.tick(chain.end_position(q0)).result(timeout=120)
        assert len(sweeps) == opened  # 192 ticks, no deadline passed

        stale, live = sessions[0], sessions[1:]
        clock.advance(4.0)
        for session, q0 in zip(live, starts[1:]):
            session.tick(chain.end_position(q0)).result(timeout=120)
        clock.advance(6.5)  # 10.5 s since ``stale``'s last tick
        with pytest.raises(SessionExpired):
            stale.tick(chain.end_position(starts[0]))
        assert len(sweeps) == opened + 1
        assert manager.expired == 1
        assert stale.state == "expired"
        assert all(session.state == "open" for session in live)
        manager.close_all()

    def test_open_evicts_expired_to_make_room(self, shared_server):
        clock = FakeClock()
        manager = SessionManager(
            shared_server,
            SessionConfig(max_sessions=1, idle_expiry_s=5.0),
            clock=clock,
        )
        stale = manager.open("dadu-12dof")
        clock.advance(6.0)
        fresh = manager.open("dadu-12dof")  # evicts the stale one
        assert stale.state == "expired"
        assert fresh.state == "open"
        assert manager.active_count == 1

    def test_close_mid_stream_keeps_inflight_future(self, shared_server):
        chain = named_robot("dadu-12dof")
        target = smooth_targets(chain, 1, seed=71)[0]
        manager = SessionManager(shared_server)
        session = manager.open(
            chain, solver="JT-DLS", seed=905,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )
        future = session.tick(target)
        session.close()
        # Admitted work is never abandoned: the future still resolves.
        result = future.result(timeout=120)
        assert result.converged
        with pytest.raises(SessionClosed):
            session.tick(target)

    def test_manager_stats_survive_session_churn(self, shared_server):
        chain = named_robot("dadu-12dof")
        targets = smooth_targets(chain, 3, seed=81)
        manager = SessionManager(shared_server)
        session = manager.open(
            chain, solver="JT-DLS", seed=906,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )
        for target in targets:
            session.tick(target).result(timeout=120)
        session.drain()
        live = manager.stats()
        assert live["ticks"] == 3
        assert live["cold_ticks"] == 1
        assert live["warm_ticks"] == 2
        assert live["warm_reduction"] is not None

        manager.close_all()
        retired = manager.stats()
        assert retired["active"] == 0
        # The aggregate is folded into the retired totals, not lost.
        for key in ("ticks", "converged", "warm_ticks", "cold_ticks"):
            assert retired[key] == live[key]

    def test_session_counters_reach_the_tracer(self, shared_server):
        chain = named_robot("dadu-12dof")
        targets = smooth_targets(chain, 2, seed=91)
        clock = FakeClock()
        tracer = SummaryTracer()
        manager = SessionManager(
            shared_server,
            SessionConfig(max_sessions=1, idle_expiry_s=5.0),
            clock=clock,
            tracer=tracer,
        )
        session = manager.open(
            chain, solver="JT-DLS", seed=907,
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        )
        for target in targets:
            session.tick(target).result(timeout=120)
        with pytest.raises(SessionLimit):
            manager.open(chain)
        clock.advance(6.0)
        manager.expire_idle()

        counters = tracer.counters
        assert counters["serve_session_opened"] == 1
        assert counters["serve_session_ticks"] == 2
        assert counters["serve_session_cold_ticks"] == 1
        assert counters["serve_session_warm_ticks"] == 1
        assert counters["serve_session_rejected"] == 1
        assert counters["serve_session_expired"] == 1

    def test_bad_q0_shape_rejected_at_open(self, shared_server):
        manager = SessionManager(shared_server)
        with pytest.raises(ValueError, match="q0 must have shape"):
            manager.open("dadu-12dof", q0=np.zeros(5))
