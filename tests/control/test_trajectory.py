"""Tests for the trajectory-following control loop."""

import numpy as np
import pytest

from repro.control.trajectory import (
    TrajectoryFollower,
    interpolate_line,
    interpolate_waypoints,
)
from repro.core.quick_ik import QuickIKSolver
from repro.core.result import SolverConfig
from repro.kinematics.robots import paper_chain


class TestInterpolation:
    def test_line_endpoints(self):
        line = interpolate_line([0, 0, 0], [1, 0, 0], 5)
        assert line.shape == (5, 3)
        assert np.allclose(line[0], [0, 0, 0])
        assert np.allclose(line[-1], [1, 0, 0])

    def test_line_evenly_spaced(self):
        line = interpolate_line([0, 0, 0], [1, 2, 3], 11)
        gaps = np.linalg.norm(np.diff(line, axis=0), axis=1)
        assert np.allclose(gaps, gaps[0])

    def test_line_min_steps(self):
        with pytest.raises(ValueError):
            interpolate_line([0, 0, 0], [1, 0, 0], 1)

    def test_densify_respects_max_segment(self):
        waypoints = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0.5, 0]])
        dense = interpolate_waypoints(waypoints, max_segment=0.11)
        gaps = np.linalg.norm(np.diff(dense, axis=0), axis=1)
        assert np.all(gaps <= 0.11 + 1e-12)
        # Original corner points preserved.
        assert any(np.allclose(p, [1.0, 0, 0]) for p in dense)
        assert np.allclose(dense[-1], [1.0, 0.5, 0])

    def test_densify_noop_when_segments_short(self):
        waypoints = np.array([[0.0, 0, 0], [0.05, 0, 0]])
        dense = interpolate_waypoints(waypoints, max_segment=0.1)
        assert dense.shape == (2, 3)

    def test_densify_single_point(self):
        single = interpolate_waypoints(np.array([[1.0, 2.0, 3.0]]), 0.1)
        assert single.shape == (1, 3)

    def test_densify_invalid_segment(self):
        with pytest.raises(ValueError):
            interpolate_waypoints(np.zeros((2, 3)), 0.0)


class TestTrajectoryFollower:
    @pytest.fixture
    def setup(self, rng):
        chain = paper_chain(25)
        solver = QuickIKSolver(chain, config=SolverConfig(max_iterations=3000))
        q_start = chain.random_configuration(rng)
        goal = chain.end_position(chain.random_configuration(rng))
        waypoints = interpolate_line(chain.end_position(q_start), goal, 6)
        return chain, solver, q_start, waypoints

    def test_follows_line(self, setup):
        chain, solver, q_start, waypoints = setup
        follower = TrajectoryFollower(solver, max_segment=0.05)
        report = follower.follow(waypoints, q_start=q_start)
        assert report.solved
        assert report.max_error < solver.config.tolerance
        # One joint configuration per solved waypoint plus the start.
        assert report.joint_path.shape[0] == len(report.results) + 1

    def test_final_pose_reaches_goal(self, setup):
        chain, solver, q_start, waypoints = setup
        report = TrajectoryFollower(solver).follow(waypoints, q_start=q_start)
        final_position = chain.end_position(report.joint_path[-1])
        assert np.linalg.norm(final_position - waypoints[-1]) < 1.5e-2

    def test_densification_smooths_joint_motion(self, setup):
        chain, solver, q_start, waypoints = setup
        coarse = TrajectoryFollower(solver).follow(waypoints, q_start=q_start)
        fine = TrajectoryFollower(solver, max_segment=0.02).follow(
            waypoints, q_start=q_start
        )
        assert fine.solved
        if coarse.solved and coarse.joint_velocity_proxy().size:
            assert (
                fine.joint_velocity_proxy().max()
                <= coarse.joint_velocity_proxy().max() + 1e-9
            )

    def test_stop_on_failure(self, rng):
        chain = paper_chain(12)
        solver = QuickIKSolver(chain, config=SolverConfig(max_iterations=3))
        follower = TrajectoryFollower(solver)
        unreachable = np.array([[99.0, 0.0, 0.0], [99.0, 1.0, 0.0]])
        report = follower.follow(unreachable, q_start=chain.random_configuration(rng))
        assert not report.solved
        assert len(report.results) == 1  # stopped at the first failure

    def test_continue_on_failure(self, rng):
        chain = paper_chain(12)
        solver = QuickIKSolver(chain, config=SolverConfig(max_iterations=3))
        follower = TrajectoryFollower(solver)
        unreachable = np.array([[99.0, 0.0, 0.0], [99.0, 1.0, 0.0]])
        report = follower.follow(
            unreachable, q_start=chain.random_configuration(rng),
            stop_on_failure=False,
        )
        assert len(report.results) == 2

    def test_report_statistics(self, setup):
        chain, solver, q_start, waypoints = setup
        report = TrajectoryFollower(solver).follow(waypoints, q_start=q_start)
        assert report.total_iterations == sum(r.iterations for r in report.results)
        assert report.mean_iterations == pytest.approx(
            report.total_iterations / len(report.results)
        )

    def test_empty_report_statistics(self):
        from repro.control.trajectory import TrackingReport

        report = TrackingReport(
            waypoints=np.zeros((0, 3)), joint_path=np.zeros((1, 3))
        )
        assert report.mean_iterations == 0.0
        assert report.max_error == 0.0
        assert report.joint_velocity_proxy().size == 0


def _result(q, converged):
    from repro.core.result import IKResult

    q = np.asarray(q, dtype=float)
    return IKResult(
        q=q, converged=converged, iterations=1, error=0.0,
        target=np.zeros(3), solver="JT-DLS", dof=q.size,
    )


class TestNextSeed:
    def test_converged_result_becomes_seed(self):
        from repro.control.trajectory import next_seed

        q = np.array([0.1, 0.2])
        fallback = np.zeros(2)
        np.testing.assert_array_equal(
            next_seed(_result(q, converged=True), fallback), q
        )

    def test_unconverged_or_nonfinite_keeps_fallback(self):
        from repro.control.trajectory import next_seed

        fallback = np.array([0.5, 0.5])
        capped = _result([0.1, 0.2], converged=False)
        assert next_seed(capped, fallback) is fallback
        blown = _result([np.nan, 0.2], converged=True)
        assert next_seed(blown, fallback) is fallback


class TestServingParity:
    def test_follower_matches_tracking_session(self, rng):
        # The control loop and the serving layer share one warm-start
        # contract (next_seed), so following a trajectory offline must
        # reproduce a TrackingSession streaming the same waypoints from
        # the same start configuration, bit for bit.
        from repro.serving import IKServer, ServerConfig, SessionManager
        from repro.solvers import make_solver

        chain = paper_chain(12)
        config = SolverConfig(tolerance=1e-2, max_iterations=300)
        q_start = chain.random_configuration(rng)
        goal = chain.end_position(chain.random_configuration(rng))
        waypoints = interpolate_line(chain.end_position(q_start), goal, 5)

        solver = make_solver("fdik", chain, config=config)
        report = TrajectoryFollower(solver).follow(
            waypoints, q_start=q_start, stop_on_failure=False
        )

        server_config = ServerConfig(
            seed_cache_capacity=0, warm_start=False
        )
        with IKServer(server_config) as srv:
            manager = SessionManager(srv)
            session = manager.open(
                chain, solver="fdik", q0=q_start,
                tolerance=1e-2, max_iterations=300,
            )
            served = [session.tick(w).result(timeout=120) for w in waypoints]
            manager.close_all()

        assert len(served) == len(report.results)
        for offline, online in zip(report.results, served):
            np.testing.assert_array_equal(offline.q, online.q)
            assert offline.iterations == online.iterations
            assert offline.converged == online.converged
            assert offline.error == online.error
