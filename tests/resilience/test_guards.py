"""Input-guard tests: classification, batch vectorisation, API boundary."""

import numpy as np
import pytest

from repro import api
from repro.execution import ExecutionOptions
from repro.kinematics.robots import paper_chain
from repro.resilience import (
    FATAL_GUARD_KINDS,
    FailureReport,
    GuardViolation,
    guard_target,
    guard_targets,
    reach_bound,
)

CHAIN = paper_chain(6)


class TestGuardTarget:
    def test_reachable_passes(self):
        rng = np.random.default_rng(0)
        target = CHAIN.end_position(CHAIN.random_configuration(rng))
        assert guard_target(CHAIN, target) is None

    def test_nonfinite_rejected(self):
        record = guard_target(CHAIN, [np.nan, 0.0, 0.0])
        assert record is not None
        assert record.kind == "nonfinite_target"
        assert record.kind in FATAL_GUARD_KINDS
        assert record.stage == "guard"

    def test_inf_rejected(self):
        record = guard_target(CHAIN, [np.inf, 0.0, 0.0])
        assert record is not None and record.kind == "nonfinite_target"

    def test_bad_shape_rejected(self):
        record = guard_target(CHAIN, [0.1, 0.2])
        assert record is not None
        assert record.kind == "bad_shape"
        assert record.kind in FATAL_GUARD_KINDS

    def test_unreachable_flagged_not_fatal(self):
        record = guard_target(CHAIN, [99.0, 0.0, 0.0])
        assert record is not None
        assert record.kind == "unreachable"
        assert record.kind not in FATAL_GUARD_KINDS

    def test_reach_margin_expands_bound(self):
        bound = reach_bound(CHAIN)
        target = [bound * 1.05, 0.0, 0.0]
        assert guard_target(CHAIN, target).kind == "unreachable"
        assert guard_target(CHAIN, target, reach_margin=0.2) is None

    def test_index_propagates(self):
        record = guard_target(CHAIN, [np.nan, 0.0, 0.0], index=7)
        assert record.index == 7


class TestGuardTargets:
    def test_matches_scalar_guard(self):
        targets = np.array(
            [
                [0.1, 0.1, 0.1],
                [np.nan, 0.0, 0.0],
                [99.0, 0.0, 0.0],
                [0.2, 0.0, 0.1],
            ]
        )
        records = guard_targets(CHAIN, targets)
        assert [r.index for r in records] == [1, 2]
        assert [r.kind for r in records] == ["nonfinite_target", "unreachable"]

    def test_clean_batch_empty(self):
        rng = np.random.default_rng(1)
        targets = np.stack(
            [CHAIN.end_position(CHAIN.random_configuration(rng)) for _ in range(5)]
        )
        assert guard_targets(CHAIN, targets) == []


class TestGuardViolation:
    def test_is_value_error_with_report(self):
        record = guard_target(CHAIN, [np.nan, 0.0, 0.0], index=3)
        exc = GuardViolation(FailureReport([record]))
        assert isinstance(exc, ValueError)
        assert exc.report.indices == [3]
        assert "nonfinite_target" in str(exc)


class TestApiBoundary:
    def test_batch_raise_mode_rejects_nonfinite(self):
        targets = [[0.1, 0.1, 0.1], [np.nan, 0.0, 0.0]]
        with pytest.raises(GuardViolation) as excinfo:
            api.solve_batch(
                CHAIN, targets, max_iterations=10,
                options=ExecutionOptions(workers=1),
            )
        assert excinfo.value.report.by_kind() == {"nonfinite_target": 1}

    def test_batch_raise_mode_attempts_unreachable(self):
        # Advisory kind: historical hit-the-cap behaviour must survive.
        batch = api.solve_batch(
            CHAIN, [[99.0, 0.0, 0.0]], max_iterations=5, seed=0,
            options=ExecutionOptions(workers=1),
        )
        assert batch[0].iterations == 5
        assert batch[0].status == "max_iterations"

    def test_batch_skip_mode_rejects_both(self):
        targets = [[np.nan, 0.0, 0.0], [99.0, 0.0, 0.0], [0.1, 0.1, 0.1]]
        batch = api.solve_batch(
            CHAIN, targets, max_iterations=500, seed=0,
            options=ExecutionOptions(on_error="skip"),
        )
        assert len(batch) == 3
        assert batch[0].status == "nonfinite_target"
        assert batch[1].status == "unreachable"
        assert not batch[0].converged and np.isnan(batch[0].error)
        assert batch.failures.by_kind() == {
            "nonfinite_target": 1,
            "unreachable": 1,
        }

    def test_guard_rejected_counter(self):
        from repro.telemetry import SummaryTracer

        tracer = SummaryTracer()
        api.solve_batch(
            CHAIN,
            [[np.nan, 0.0, 0.0], [0.1, 0.1, 0.1]],
            options=ExecutionOptions(on_error="skip"),
            max_iterations=200,
            seed=0,
            tracer=tracer,
        )
        assert tracer.counters.get("guard_rejected") == 1
        assert tracer.counters.get("solve_failed") == 1
