"""Benches for the extensions beyond the paper.

* hybrid direction speculation (Quick-IK + DLS candidate families);
* multi-problem throughput mode (cross-problem SPU/SSU pipelining);
* the lock-step software throughput engine;
* the Figure-4 investigation (winning-candidate position).
"""

import numpy as np

from repro.core.result import SolverConfig
from repro.evaluation.ablations import hybrid_direction_ablation
from repro.evaluation.diagnostics import figure4_investigation
from repro.ikacc.multi import MultiProblemIKAcc
from repro.solvers.jacobian_transpose import JacobianTransposeSolver
from repro.solvers.registry import make_batch_solver


def test_hybrid_direction(benchmark, save_table):
    """Quick-IK vs the hybrid candidate set on interior/near-boundary work."""
    table = benchmark.pedantic(
        hybrid_direction_ablation, rounds=1, iterations=1, warmup_rounds=0
    )
    save_table(table, "extension_hybrid")
    interior, boundary = table.rows
    # Same league on easy targets; decisively better on hard ones.
    assert boundary[3] < 0.5 * boundary[1]
    assert interior[3] < 5 * interior[1]


def test_ikacc_throughput(benchmark, suite, save_table):
    """Cross-problem pipelining: batch makespan vs latency-mode sum."""
    from repro.evaluation.tables import TableResult

    def run():
        rows = []
        for dof in suite.dofs:
            chain = suite.chain(dof)
            multi = MultiProblemIKAcc(chain)
            report = multi.run(
                suite.targets(dof), rng=np.random.default_rng(5)
            )
            rows.append(
                [
                    dof,
                    report.problems,
                    report.serial_seconds * 1e3,
                    report.pipelined_seconds * 1e3,
                    report.speedup,
                    report.solves_per_second,
                ]
            )
        return TableResult(
            title="Extension: IKAcc multi-problem throughput",
            headers=["dof", "problems", "serial ms", "pipelined ms",
                     "speedup", "solves/s"],
            rows=rows,
            notes=["speedup bound: 2x (two overlapping units)"],
        )

    table = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    save_table(table, "extension_throughput")
    assert all(1.0 <= row[4] <= 2.0 + 1e-9 for row in table.rows)


def test_batched_software_engine(benchmark, suite, save_table):
    """Wall-clock of the lock-step JT-Serial vs the scalar loop."""
    import time

    from repro.evaluation.tables import TableResult

    dof = min(suite.dofs)
    chain = suite.chain(dof)
    targets = suite.targets(dof)
    rng = np.random.default_rng(8)
    q0 = np.stack([chain.random_configuration(rng) for _ in targets])
    config = SolverConfig(max_iterations=10_000, record_history=False)

    def run():
        t0 = time.perf_counter()
        batched = make_batch_solver("JT-Serial", chain, config=config).solve_batch(
            targets, q0=q0
        )
        t_batched = time.perf_counter() - t0
        scalar_solver = JacobianTransposeSolver(chain, config=config)
        t0 = time.perf_counter()
        scalar = [
            scalar_solver.solve(t, q0=q0[i]) for i, t in enumerate(targets)
        ]
        t_scalar = time.perf_counter() - t0
        identical = sum(
            b.iterations == s.iterations for b, s in zip(batched, scalar)
        )
        return TableResult(
            title=f"Extension: lock-step throughput engine ({dof} DOF, "
            f"{len(targets)} targets)",
            headers=["engine", "wall s", "identical trajectories"],
            rows=[
                ["scalar JT-Serial", t_scalar, "-"],
                ["batched JT-Serial", t_batched, f"{identical}/{len(targets)}"],
            ],
            notes=["identical trajectories: same iteration counts per target"],
        )

    table = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    save_table(table, "extension_batched_engine")
    assert table.rows[1][1] < table.rows[0][1]  # batched must win


def test_figure4_investigation(benchmark, suite, save_table):
    """Why Figure 4 is flat for us: the winner's k/Max is scale-free."""
    dof = suite.dofs[len(suite.dofs) // 2]
    chain = suite.chain(dof)
    targets = suite.targets(dof)

    def run():
        return figure4_investigation(
            chain,
            targets,
            config=SolverConfig(max_iterations=5000, record_history=False),
        )

    table = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    save_table(table, "figure4_investigation")
    fractions = [row[2] for row in table.rows]
    assert max(fractions) - min(fractions) < 0.3
