"""CLI smoke tests: argument parsing, exit codes, health-check paths.

Every command runs through :func:`repro.cli.main` in-process (no
subprocesses), on small robots with tight iteration caps so the whole
module stays tier-1 fast.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def strict_loads(text: str):
    """Parse JSON refusing NaN/Infinity — the repo's output contract."""
    def _reject(token):
        raise ValueError(f"non-strict JSON constant {token!r} in output")
    return json.loads(text, parse_constant=_reject)


class TestParsing:
    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["destroy"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv", [
            ["solve", "--solver", "not-a-solver"],
            ["solve", "--kernel", "quantum"],
            ["solve", "--on-error", "explode"],
            ["solve", "--workers", "0"],
            ["bench", "nonexistent-experiment"],
            ["bench", "figure4", "--max-iterations", "-5"],
            ["serve-bench", "--on-error", "explode"],
            ["serve-bench", "--requests", "0"],
        ],
    )
    def test_invalid_choice_exits_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_solve_flags_land_in_namespace(self):
        args = build_parser().parse_args([
            "solve", "--robot", "dadu-12dof", "--solver", "JT-DLS",
            "--kernel", "vectorized", "--workers", "2",
            "--on-error", "skip", "--max-iterations", "500",
        ])
        assert args.command == "solve"
        assert args.robot == "dadu-12dof"
        assert args.solver == "JT-DLS"
        assert args.kernel == "vectorized"
        assert args.workers == 2
        assert args.on_error == "skip"
        assert args.max_iterations == 500

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.robot == "dadu-50dof"
        assert args.out == "BENCH_serving.json"
        assert args.on_error == "skip"
        assert args.deadline_ms is None
        # Serving defaults: warm start on, one dispatch loop, iid target
        # stream.
        assert args.warm_start is True
        assert args.dispatch_workers == 1
        assert args.workload == "iid"

    def test_serve_bench_negated_booleans(self):
        args = build_parser().parse_args([
            "serve-bench", "--no-warm-start",
            "--dispatch-workers", "4", "--workload", "tracking",
        ])
        assert args.warm_start is False
        assert args.dispatch_workers == 4
        assert args.workload == "tracking"

    @pytest.mark.parametrize(
        "flag", ["--max-wait-ms=5", "--adaptive", "--no-adaptive"]
    )
    def test_serve_bench_has_no_flush_trigger_flags(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", flag])

    def test_serve_bench_sessions_workload(self):
        args = build_parser().parse_args([
            "serve-bench", "--workload", "sessions", "--tracks", "3",
        ])
        assert args.workload == "sessions"
        assert args.tracks == 3

    @pytest.mark.parametrize("solver", ["fdik", "mdik"])
    def test_new_solver_families_are_choices(self, solver):
        args = build_parser().parse_args(["solve", "--solver", solver])
        assert args.solver == solver


class TestSolve:
    def test_converged_exits_0(self, capsys):
        rc = main(["solve", "--robot", "dadu-12dof",
                   "--max-iterations", "2000"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_unconverged_exits_1(self):
        assert main(["solve", "--robot", "dadu-12dof",
                     "--max-iterations", "1"]) == 1

    def test_vectorized_kernel(self):
        rc = main(["solve", "--robot", "dadu-12dof", "--kernel", "vectorized",
                   "--max-iterations", "2000"])
        assert rc == 0

    def test_on_error_skip_degrades_bad_target(self, capsys):
        rc = main(["solve", "--robot", "dadu-12dof", "--on-error", "skip",
                   "--target", "nan", "0", "0"])
        assert rc == 1
        assert "failures:" in capsys.readouterr().out

    def test_workers_flag_runs_pooled_path(self):
        rc = main(["solve", "--robot", "dadu-12dof", "--workers", "2",
                   "--max-iterations", "2000"])
        assert rc == 0

    @pytest.mark.parametrize("solver", ["fdik", "mdik"])
    def test_new_families_converge(self, solver, capsys):
        rc = main(["solve", "--robot", "dadu-12dof", "--solver", solver,
                   "--max-iterations", "2000"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    @pytest.mark.parametrize("solver", ["fdik", "mdik"])
    def test_new_families_unconverged_exit_1(self, solver):
        assert main(["solve", "--robot", "dadu-12dof", "--solver", solver,
                     "--max-iterations", "1"]) == 1


class TestSimulateAndTrace:
    def test_simulate_exits_0(self, capsys):
        rc = main(["simulate", "--robot", "dadu-12dof",
                   "--max-iterations", "2000"])
        assert rc == 0
        assert "cycle breakdown" in capsys.readouterr().out

    def test_trace_renders_gantt(self, capsys):
        assert main(["trace", "--robot", "dadu-12dof"]) == 0
        assert "per-iteration latency" in capsys.readouterr().out


class TestBench:
    ARGS = ["bench", "figure4", "--targets", "1", "--dofs", "12"]

    def test_experiment_exits_0(self, capsys):
        rc = main(self.ARGS + ["--max-iterations", "400"])
        assert rc == 0
        assert "figure 4" in capsys.readouterr().out.lower()

    def test_zero_converged_health_check_exits_1(self, capsys):
        # An iteration cap of 1 converges nothing: the health check must
        # turn "all solves failed" into a nonzero exit, not a quiet table.
        rc = main(self.ARGS + ["--max-iterations", "1"])
        assert rc == 1
        assert "bench FAILED" in capsys.readouterr().err


class TestServeBench:
    def test_writes_payload_and_exits_0(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main([
            "serve-bench", "--robot", "dadu-12dof", "--requests", "8",
            "--rate", "200", "--max-batch-size", "4",
            "--max-iterations", "2000", "--out", str(out),
        ])
        assert rc == 0
        assert "served 8/8" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "serving"
        assert payload["completed"] == 8
        assert payload["converged"] > 0
        assert payload["serving"]["mean_occupancy"] >= 1.0
        assert set(payload["latency_s"]) >= {"mean", "p50", "p90", "p99"}

    def test_sessions_workload_records_section(self, tmp_path, capsys):
        out = tmp_path / "bench_sessions.json"
        rc = main([
            "serve-bench", "--robot", "dadu-12dof", "--requests", "12",
            "--rate", "300", "--workload", "sessions", "--tracks", "3",
            "--max-iterations", "2000", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        assert "sessions: 3 streams, 12 ticks" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        sessions = payload["sessions"]
        assert sessions["count"] == 3
        assert sessions["manager"]["ticks"] == 12
        assert sessions["manager"]["cold_ticks"] == 3
        assert sessions["manager"]["warm_ticks"] == 9
        # Streamed warm-chaining must beat the cold per-tick baseline.
        assert sessions["cold_baseline"]["iteration_reduction"] > 0.0

    def test_zero_converged_health_check_exits_1(self, tmp_path, capsys):
        out = tmp_path / "bench_failed.json"
        rc = main([
            "serve-bench", "--robot", "dadu-12dof", "--requests", "6",
            "--rate", "300", "--workload", "sessions", "--tracks", "2",
            "--max-iterations", "1", "--no-cold-baseline",
            "--out", str(out),
        ])
        assert rc == 1
        assert "serve-bench FAILED" in capsys.readouterr().err


class TestExperimentParsing:
    @pytest.mark.parametrize(
        "argv", [
            ["experiment"],
            ["experiment", "explode"],
            ["experiment", "run", "--targets", "0"],
            ["experiment", "run", "--max-iterations", "0"],
            ["experiment", "query"],  # a selector is required
            ["experiment", "query", "--runs", "--latest", "wall_s"],
            ["experiment", "import"],  # at least one file
        ],
    )
    def test_invalid_usage_exits_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_run_flags_land_in_namespace(self):
        args = build_parser().parse_args([
            "experiment", "run", "--store", "x.sqlite", "--name", "nightly",
            "--robots", "planar-4dof,dadu-6dof", "--solvers", "JT-DLS",
            # a leading '-' value needs the '=' spelling (argparse rule)
            "--kernels=-,vectorized:float32", "--workers=-,2",
            "--workloads", "batch", "--targets", "3",
            "--max-iterations", "400", "--fresh",
        ])
        assert args.command == "experiment"
        assert args.experiment_command == "run"
        assert args.store == "x.sqlite"
        assert args.robots == "planar-4dof,dadu-6dof"
        assert args.kernels == "-,vectorized:float32"
        assert args.fresh is True

    def test_query_selectors_parse(self):
        args = build_parser().parse_args([
            "experiment", "query", "--regressions", "0.1",
            "--run-name", "bench-kernels", "--metric", "headline_speedup",
        ])
        assert args.regressions == 0.1
        assert args.run_name == "bench-kernels"
        assert args.metric == "headline_speedup"


class TestExperimentCommands:
    SWEEP = ["--name", "smoke", "--robots", "planar-4dof",
             "--solvers", "JT-DLS", "--targets", "2",
             "--max-iterations", "400"]

    def _store_args(self, tmp_path):
        return ["--store", str(tmp_path / "exp.sqlite")]

    def test_run_emits_strict_json_and_exits_0(self, tmp_path, capsys):
        rc = main(["experiment", "run", *self._store_args(tmp_path),
                   *self.SWEEP])
        assert rc == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["sweep"] == "smoke"
        assert payload["executed"] == payload["total"] == 1
        assert payload["completed"] is True

    def test_resume_skips_finished_cells(self, tmp_path, capsys):
        store_args = self._store_args(tmp_path)
        assert main(["experiment", "run", *store_args, *self.SWEEP]) == 0
        capsys.readouterr()
        rc = main(["experiment", "resume", *store_args, "--name", "smoke"])
        assert rc == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["skipped"] == payload["total"] == 1
        assert payload["executed"] == 0

    def test_resume_unknown_sweep_exits_1(self, tmp_path, capsys):
        rc = main(["experiment", "resume", *self._store_args(tmp_path),
                   "--name", "ghost"])
        assert rc == 1
        assert "no resumable sweep" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        rc = main(["experiment", "run", *self._store_args(tmp_path),
                   "--robots", "not-a-robot"])
        assert rc == 2
        assert "bad sweep spec" in capsys.readouterr().err

    def test_import_then_query_round_trip(self, tmp_path, capsys):
        store_args = self._store_args(tmp_path)
        bench = [str(REPO_ROOT / name) for name in (
            "BENCH_kernels.json", "BENCH_parallel.json", "BENCH_serving.json",
        )]
        rc = main(["experiment", "import", *store_args, *bench])
        assert rc == 0
        imported = strict_loads(capsys.readouterr().out)["imported"]
        assert [i["run_name"] for i in imported] == [
            "bench-kernels", "bench-parallel", "bench-serving",
        ]

        assert main(["experiment", "query", *store_args, "--runs"]) == 0
        runs = strict_loads(capsys.readouterr().out)["runs"]
        assert len(runs) == 3
        assert all(r["source"] == "import" for r in runs)

        assert main(["experiment", "query", *store_args,
                     "--latest", "headline_speedup",
                     "--run-name", "bench-kernels"]) == 0
        latest = strict_loads(capsys.readouterr().out)
        assert latest["value"] is not None and latest["value"] > 1.0

        # One import per name == no history: the regression gate is quiet.
        assert main(["experiment", "query", *store_args,
                     "--regressions", "0.1"]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["regressions"] == []

    def test_import_unknown_payload_exits_1(self, tmp_path, capsys):
        bogus = tmp_path / "not_a_bench.json"
        bogus.write_text(json.dumps({"benchmark": "mystery"}))
        rc = main(["experiment", "import", *self._store_args(tmp_path),
                   str(bogus)])
        assert rc == 1
        assert "unknown benchmark tag" in capsys.readouterr().err

    def test_locked_store_exits_1(self, tmp_path, capsys):
        import sqlite3

        from repro.experiments import ResultStore

        path = tmp_path / "exp.sqlite"
        ResultStore(path).close()
        blocker = sqlite3.connect(path)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            rc = main([
                "experiment", "import", "--store", str(path),
                "--lock-timeout", "0.05",
                str(REPO_ROOT / "BENCH_kernels.json"),
            ])
        finally:
            blocker.rollback()
            blocker.close()
        assert rc == 1
        assert "experiment store locked" in capsys.readouterr().err


class TestRobots:
    def test_lists_known_robots(self, capsys):
        assert main(["robots"]) == 0
        out = capsys.readouterr().out
        assert "dadu-<N>dof" in out
        assert "JT-Speculation" in out
