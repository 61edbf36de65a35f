"""Tests for the solver registries / factories."""

import numpy as np
import pytest

from repro.core.quick_ik import QuickIKSolver
from repro.core.result import BatchResult, SolverConfig
from repro.kinematics.robots import paper_chain
from repro.core.base import RowUpdateSolver
from repro.solvers import (
    BATCH_REGISTRY,
    BatchedQuickIK,
    BatchedRowSolver,
    SOLVER_REGISTRY,
    describe_solver_options,
    make_batch_solver,
    make_solver,
    solver_options,
)


class TestRegistry:
    def test_contains_paper_methods(self):
        for name in ("JT-Serial", "J-1-SVD", "JT-Speculation"):
            assert name in SOLVER_REGISTRY

    def test_make_solver_builds_right_type(self):
        chain = paper_chain(12)
        solver = make_solver("JT-Speculation", chain, speculations=16)
        assert isinstance(solver, QuickIKSolver)
        assert solver.speculations == 16

    def test_make_solver_passes_config(self):
        chain = paper_chain(12)
        config = SolverConfig(max_iterations=42)
        solver = make_solver("JT-Serial", chain, config=config)
        assert solver.config.max_iterations == 42

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_solver("JT-Quantum", paper_chain(12))

    def test_every_registered_solver_solves_a_target(self, rng):
        """Each solver in the registry converges on an easy 12-DOF target."""
        chain = paper_chain(12)
        config = SolverConfig(max_iterations=10_000)
        q_goal = chain.random_configuration(rng)
        target = chain.end_position(q_goal)
        for name in SOLVER_REGISTRY:
            solver = make_solver(name, chain, config=config)
            result = solver.solve(target, rng=np.random.default_rng(11))
            assert result.converged, f"{name} failed"
            assert result.solver == name


class TestKwargValidation:
    def test_unknown_kwarg_names_solver_and_options(self):
        chain = paper_chain(12)
        with pytest.raises(TypeError) as excinfo:
            make_solver("JT-DLS", chain, dampling=0.2)
        message = str(excinfo.value)
        assert "JT-DLS" in message
        assert "dampling" in message
        assert "damping" in message  # the accepted options are listed

    def test_known_kwargs_still_forwarded(self):
        chain = paper_chain(12)
        solver = make_solver("JT-DLS", chain, damping=0.3, adaptive=True)
        assert solver.damping == 0.3
        assert solver.adaptive

    def test_solver_options_exposes_defaults(self):
        options = solver_options("JT-Speculation")
        assert set(options) == {"speculations", "schedule", "track_chosen"}
        assert options["speculations"].default == 64

    def test_solver_options_unknown_name(self):
        with pytest.raises(KeyError):
            solver_options("JT-Quantum")

    def test_describe_covers_every_solver(self):
        text = describe_solver_options()
        for name in SOLVER_REGISTRY:
            assert name in text


class TestBatchRegistry:
    def test_parallel_names(self):
        assert set(BATCH_REGISTRY) <= set(SOLVER_REGISTRY)

    def test_make_batch_solver_builds_engines(self):
        chain = paper_chain(12)
        assert isinstance(
            make_batch_solver("JT-Speculation", chain, speculations=8),
            BatchedQuickIK,
        )
        for name in ("JT-Serial", "JT-DLS", "J-1-SVD", "JT-SDLS", "fdik", "mdik"):
            engine = make_batch_solver(name, chain)
            assert isinstance(engine, BatchedRowSolver)
            assert isinstance(engine.solver, SOLVER_REGISTRY[name])
            assert engine.name == f"{name}-batched"

    def test_lock_step_names_are_the_row_update_families(self):
        row_families = {
            name for name, factory in SOLVER_REGISTRY.items()
            if issubclass(factory, RowUpdateSolver)
        }
        assert set(BATCH_REGISTRY) == row_families | {"JT-Speculation"}
        for name in ("CCD", "J-1-SVD+nullspace", "JT-Hybrid"):
            assert name not in BATCH_REGISTRY

    def test_row_engine_uses_the_solvers_own_options(self):
        chain = paper_chain(12)
        engine = make_batch_solver("JT-DLS", chain, damping=0.3, adaptive=True)
        assert engine.solver.damping == 0.3 and engine.solver.adaptive
        with pytest.raises(ValueError, match="damping"):
            make_batch_solver("JT-DLS", chain, damping=-1.0)

    def test_scalar_fallback_has_solve_batch(self, rng):
        chain = paper_chain(12)
        solver = make_batch_solver("CCD", chain)
        target = chain.end_position(chain.random_configuration(rng))
        batch = solver.solve_batch(np.atleast_2d(target), rng=rng)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 1

    def test_unknown_batch_kwarg_rejected(self):
        with pytest.raises(TypeError, match="JT-Serial"):
            make_batch_solver("JT-Serial", paper_chain(12), alpha=0.1)

    def test_unknown_batch_name(self):
        with pytest.raises(KeyError):
            make_batch_solver("JT-Quantum", paper_chain(12))
