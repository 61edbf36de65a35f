"""The resumable lock-step run: rows join mid-flight and leave on their own.

:class:`~repro.solvers.batched.LockStepRun` is the one loop behind
``solve_batch`` and the serving layer's iteration-level admission.  A row
admitted while others are mid-flight must come out bit-identical to
``solve_batch`` of that row alone — including a row that hits the
iteration cap and a row that goes non-finite — on both engines and both
kernels.
"""

import numpy as np
import pytest

from repro.core.result import SolverConfig
from repro.execution import KernelSpec
from repro.kinematics.robots import paper_chain
from repro.solvers.registry import make_batch_solver
from repro.telemetry import SummaryTracer

DOF = 12
CAP = 80

#: Rows 0-3 reachable, 4 unreachable (hits the cap), 5 non-finite.
UNREACHABLE, NONFINITE = 4, 5


def _engine(name, kernel, cap=CAP):
    config = SolverConfig(
        tolerance=1e-2, max_iterations=cap, record_history=True
    )
    chain = KernelSpec(name=kernel).apply(paper_chain(DOF))
    return make_batch_solver(name, chain, config=config)


def _problems():
    chain = paper_chain(DOF)
    rng = np.random.default_rng(31)
    targets = np.stack([
        chain.end_position(chain.random_configuration(rng)) for _ in range(6)
    ])
    targets[UNREACHABLE] = [5.0, 5.0, 5.0]
    targets[NONFINITE] = [np.inf, 0.0, 0.0]
    q0 = np.stack([chain.random_configuration(rng) for _ in range(6)])
    return targets, q0


def _alone(engine, targets, q0, i):
    return engine.solve_batch(targets[i : i + 1], q0=q0[i : i + 1])[0]


def _assert_same(a, b):
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.status == b.status
    assert a.fk_evaluations == b.fk_evaluations
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.error, b.error)
    assert np.array_equal(a.error_history, b.error_history, equal_nan=True)
    assert np.array_equal(a.target, b.target, equal_nan=True)


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
@pytest.mark.parametrize("name", ["JT-Speculation", "JT-DLS"])
def test_rows_admitted_mid_flight_equal_rows_alone(name, kernel):
    engine = _engine(name, kernel)
    targets, q0 = _problems()
    run = engine.open_run()
    finished = []
    # Waves: {0, 4}, then {1, 5} two steps later, then {2, 3} at step 5 —
    # the unreachable row is live from the start, so later rows always
    # join a run that is mid-flight.
    schedule = {0: [0, UNREACHABLE], 2: [1, NONFINITE], 5: [2, 3]}
    step = 0
    while step <= max(schedule) or run.live:
        rows = schedule.get(step, [])
        if rows:
            finished += run.admit(targets[rows], q0[rows], rows)
        finished += run.step()
        step += 1
    run.close()
    results = dict(finished)
    assert sorted(results) == list(range(6))
    assert results[UNREACHABLE].status == "max_iterations"
    assert results[UNREACHABLE].iterations == CAP
    assert results[NONFINITE].status == "nonfinite"
    for i, result in results.items():
        _assert_same(result, _alone(engine, targets, q0, i))


def test_row_at_its_solution_retires_at_admission():
    engine = _engine("JT-Speculation", "vectorized")
    targets, q0 = _problems()
    run = engine.open_run()
    assert run.admit(targets[:1], q0[:1], ["slow"]) == []
    run.step()
    solved = paper_chain(DOF).random_configuration(np.random.default_rng(5))
    target = paper_chain(DOF).end_position(solved)
    (tag, result), = run.admit(target[None], solved[None], ["instant"])
    assert tag == "instant"
    assert result.converged and result.iterations == 0
    assert result.fk_evaluations == 1
    assert run.live == 1


def test_each_row_keeps_its_own_iteration_cap():
    engine = _engine("JT-DLS", "vectorized", cap=10)
    targets, q0 = _problems()
    far = targets[[UNREACHABLE]]
    run = engine.open_run()
    run.admit(far, q0[:1], ["early"])
    for _ in range(6):
        assert run.step() == []
    run.admit(far, q0[1:2], ["late"])
    retired = []
    while run.live:
        retired += [(tag, run.steps, r.iterations) for tag, r in run.step()]
    # Each row ran its full cap, counted from its own admission.
    assert retired == [("early", 10, 10), ("late", 16, 10)]


def test_empty_run_steps_to_nothing_and_emits_nothing():
    tracer = SummaryTracer()
    run = _engine("JT-Speculation", "vectorized").open_run(tracer)
    assert run.live == 0
    assert run.step() == []
    run.close()
    assert tracer.events == []


def test_telemetry_spans_every_admission():
    tracer = SummaryTracer()
    engine = _engine("JT-Speculation", "vectorized")
    targets, q0 = _problems()
    run = engine.open_run(tracer)
    results = run.admit(targets[:2], q0[:2], [0, 1])
    results += run.step()
    results += run.admit(targets[2:4], q0[2:4], [2, 3])
    while run.live:
        results += run.step()
    run.close()
    starts = tracer.events_of("solve_start")
    ends = tracer.events_of("solve_end")
    assert len(starts) == 1 and starts[0]["batch"] == 2
    assert len(ends) == 1 and ends[0]["batch"] == 4
    assert ends[0]["converged_count"] == 4
    assert ends[0]["iterations"] == sum(r.iterations for _, r in results)
    active = [e["active"] for e in tracer.events_of("iteration")]
    assert active[0] == 2 and active[1] == 4
    assert len(active) == run.steps
    assert tracer.counters["fk_evaluations"] == sum(
        r.fk_evaluations for _, r in results
    )
