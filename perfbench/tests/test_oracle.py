"""The oracle gate re-checks results on the scalar chain."""

from dataclasses import replace

import numpy as np
import pytest

from perfbench import inputs
from perfbench.oracle import Oracle, OracleGateError


@pytest.fixture(scope="module")
def solved():
    from repro import api
    from repro.kinematics.robots import named_robot

    oracle = Oracle(named_robot("dadu-12dof"), 1e-2, "test-workload")
    targets, q0 = inputs.offline_batch(oracle.chain, 3, 0)
    targets, q0 = targets[:4], q0[:4]
    batch = api.solve_batch(
        "dadu-12dof", targets, "JT-Speculation", q0=q0, tolerance=1e-2,
    )
    assert batch.converged_count == 4
    return oracle, targets, list(batch)


def test_correct_results_pass(solved):
    oracle, targets, results = solved
    verdict = oracle.check(targets, results)
    assert (verdict.failed, verdict.wrong) == (0, 0)
    assert verdict.worst_error < 1e-2
    oracle.gate(verdict)


def test_corrupted_configuration_fails_the_gate(solved):
    oracle, targets, results = solved
    corrupted = list(results)
    corrupted[2] = replace(results[2], q=results[2].q + 0.3)
    verdict = oracle.check(targets, corrupted)
    assert (verdict.failed, verdict.wrong) == (1, 1)
    with pytest.raises(OracleGateError, match="test-workload"):
        oracle.gate(verdict)


def test_unconverged_results_count_as_failed_without_tripping(solved):
    oracle, targets, results = solved
    marked = [replace(results[0], converged=False), *results[1:]]
    verdict = oracle.check(targets, marked)
    assert (verdict.failed, verdict.wrong) == (1, 0)
    oracle.gate(verdict)


def test_nonfinite_configuration_is_a_miss(solved):
    oracle, targets, results = solved
    broken = [replace(results[0], q=np.full_like(results[0].q, np.nan)), *results[1:]]
    verdict = oracle.check(targets, broken)
    assert verdict.wrong == 1
    with pytest.raises(OracleGateError):
        oracle.gate(verdict)


def test_oracle_refuses_a_vectorized_chain():
    from repro.kinematics.robots import named_robot

    with pytest.raises(ValueError):
        Oracle(named_robot("dadu-12dof").with_kernel("vectorized"), 1e-2, "w")
