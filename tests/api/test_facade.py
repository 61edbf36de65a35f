"""The ``repro.api`` facade: one-call solve/solve_batch over the registries."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import api
from repro.core.result import BatchResult, IKResult, SolverConfig
from repro.kinematics import paper_chain
from repro.solvers import BATCH_REGISTRY, SOLVER_REGISTRY
from repro.telemetry import SummaryTracer


def _easy_target(chain, seed=4):
    rng = np.random.default_rng(seed)
    return chain.end_position(chain.random_configuration(rng))


class TestSolve:
    def test_default_solver_on_named_robot(self):
        result = api.solve("dadu-12dof", _easy_target(paper_chain(12)), seed=0)
        assert isinstance(result, IKResult)
        assert result.converged
        assert result.solver == "JT-Speculation"

    def test_accepts_chain_instance(self):
        chain = paper_chain(12)
        result = api.solve(chain, _easy_target(chain), seed=0)
        assert result.dof == 12

    def test_every_registry_name_works(self):
        chain = paper_chain(12)
        target = _easy_target(chain)
        for name in SOLVER_REGISTRY:
            result = api.solve(chain, target, solver=name, seed=11)
            assert result.converged, f"{name} failed"
            assert result.solver == name

    def test_solver_options_forwarded(self):
        chain = paper_chain(12)
        result = api.solve(chain, _easy_target(chain), seed=0, speculations=16)
        assert result.speculations == 16

    def test_unknown_option_names_solver(self):
        with pytest.raises(TypeError, match="JT-Speculation.*speculation"):
            api.solve("dadu-12dof", [0.3, 0.2, 0.4], speculation=16)

    def test_unknown_solver(self):
        with pytest.raises(KeyError, match="JT-Quantum"):
            api.solve("dadu-12dof", [0.3, 0.2, 0.4], solver="JT-Quantum")

    def test_unknown_robot_type(self):
        with pytest.raises(TypeError):
            api.solve(42, [0.3, 0.2, 0.4])

    def test_tolerance_and_cap(self):
        chain = paper_chain(12)
        result = api.solve(
            chain, _easy_target(chain), seed=0, tolerance=0.05, max_iterations=7
        )
        assert result.iterations <= 7

    def test_config_conflicts_rejected(self):
        with pytest.raises(ValueError):
            api.solve(
                "dadu-12dof", [0.3, 0.2, 0.4],
                config=SolverConfig(), tolerance=0.1,
            )
        with pytest.raises(ValueError):
            api.solve(
                "dadu-12dof", [0.3, 0.2, 0.4],
                rng=np.random.default_rng(0), seed=1,
            )

    def test_restarts_wrapper(self):
        chain = paper_chain(12)
        result = api.solve(
            chain, _easy_target(chain), seed=0, restarts=3, max_iterations=2000
        )
        assert result.solver.endswith("+restarts")

    def test_tracer_threaded_through(self):
        tracer = SummaryTracer()
        chain = paper_chain(12)
        result = api.solve(chain, _easy_target(chain), seed=0, tracer=tracer)
        assert tracer.summary().solves == 1
        assert tracer.counters["fk_evaluations"] == result.fk_evaluations

    def test_reexported_from_package_root(self):
        assert repro.solve is api.solve
        assert repro.solve_batch is api.solve_batch


class TestSolveBatch:
    def _targets(self, chain, n=4, seed=9):
        rng = np.random.default_rng(seed)
        return np.stack(
            [chain.end_position(chain.random_configuration(rng)) for _ in range(n)]
        )

    def test_lockstep_engine_selected(self):
        chain = paper_chain(12)
        batch = api.solve_batch(chain, self._targets(chain), seed=0)
        assert isinstance(batch, BatchResult)
        assert batch.solver == "JT-Speculation-batched"
        assert len(batch) == 4
        assert batch.convergence_rate == 1.0

    def test_every_batch_registry_name_works(self):
        chain = paper_chain(12)
        targets = self._targets(chain, n=2)
        for name in BATCH_REGISTRY:
            batch = api.solve_batch(chain, targets, solver=name, seed=0)
            assert isinstance(batch, BatchResult)
            assert all(r.converged for r in batch), f"{name} failed"

    def test_scalar_fallback_for_other_solvers(self):
        # CCD, J-1-SVD+nullspace and JT-Hybrid keep the per-target driver;
        # every other name lock-steps (test_every_batch_registry_name_works).
        chain = paper_chain(12)
        targets = self._targets(chain, n=2)
        batch = api.solve_batch(chain, targets, solver="CCD", seed=0)
        assert isinstance(batch, BatchResult)
        assert batch.solver == "CCD"
        assert len(batch) == 2
        lock_step = api.solve_batch(chain, targets, solver="JT-DLS", seed=0)
        assert lock_step.solver == "JT-DLS-batched"
        assert all(r.converged for r in lock_step)

    def test_batch_result_is_sequence_compatible(self):
        chain = paper_chain(12)
        batch = api.solve_batch(chain, self._targets(chain), seed=0)
        assert batch[0].converged
        assert [r.solver for r in batch]  # iterable
        assert len(list(reversed(batch))) == len(batch)
        assert batch.total_fk_evaluations == sum(r.fk_evaluations for r in batch)

    def test_unknown_batch_option_names_solver(self):
        with pytest.raises(TypeError, match="JT-Speculation.*chunks"):
            api.solve_batch("dadu-12dof", np.zeros((1, 3)), chunks=4)

    def test_batch_telemetry(self):
        tracer = SummaryTracer()
        chain = paper_chain(12)
        batch = api.solve_batch(
            chain, self._targets(chain), seed=0, tracer=tracer
        )
        assert tracer.counters["fk_evaluations"] == batch.total_fk_evaluations
