"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     solve one IK target with any solver
``simulate``  run the IKAcc cycle-level simulator on one target
``trace``     render the pipeline Gantt of one accelerator iteration
``bench``     regenerate a paper experiment table
``serve-bench``  open-loop load test of the micro-batching IK server
``experiment``  declarative sweeps + the SQLite result store
              (``run`` / ``resume`` / ``query`` / ``import``)
``report``    write the full EXPERIMENTS.md
``robots``    list the available robots
"""

from __future__ import annotations

import argparse
import ast
import sys

import numpy as np

from repro.core.result import SolverConfig
from repro.execution import KERNEL_DTYPES, ExecutionOptions, KernelSpec
from repro.kinematics.kernels import KERNEL_MODES
from repro.kinematics.robots import ROBOT_NAMES, named_robot
from repro.solvers import (
    SOLVER_REGISTRY,
    describe_solver_options,
    make_solver,
)

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dadu (DAC 2017) reproduction: Quick-IK and IKAcc",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--robot", default="dadu-25dof",
                       help="robot name (see `repro robots`)")
        p.add_argument("--target", type=float, nargs=3, metavar=("X", "Y", "Z"),
                       help="target position in metres")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the random target/restart")
        p.add_argument("--tolerance", type=float, default=1e-2,
                       help="accuracy constraint (metres)")
        p.add_argument("--max-iterations", type=int, default=10_000)
        p.add_argument("--kernel", default=None, choices=list(KERNEL_MODES),
                       help="FK/Jacobian kernel mode (default: the chain's, "
                            "i.e. scalar; see docs/performance.md)")

    def add_kernel_axes(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dtype", default=None, choices=list(KERNEL_DTYPES),
                       help="kernel floating-point precision (default: the "
                            "chain's, i.e. float64; float32 trades ~1e-7 m "
                            "of FK accuracy for bandwidth — see "
                            "docs/performance.md)")
        p.add_argument("--chunk", type=_positive_int, default=None,
                       help="FK rows per chunked sweep in the lock-step "
                            "engines (default: per-kernel)")

    def add_telemetry(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-out", metavar="PATH",
                       help="write a JSONL telemetry trace of every solve")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="write aggregated metrics (latency percentiles, "
                            "counters) as JSON")

    solve = sub.add_parser(
        "solve", help="solve one IK target",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="per-solver options (pass via --opt NAME=VALUE):\n"
        + describe_solver_options(),
    )
    add_common(solve)
    add_kernel_axes(solve)
    add_telemetry(solve)
    solve.add_argument("--solver", default="JT-Speculation",
                       choices=sorted(SOLVER_REGISTRY))
    solve.add_argument("--speculations", type=int, default=64)
    solve.add_argument("--workers", type=_positive_int, default=1,
                       help="solve through the process-sharded batch layer "
                            "with this many workers (results are identical "
                            "for any worker count; see docs/parallel.md)")
    solve.add_argument("--on-error", default="raise",
                       choices=["raise", "skip", "fallback"],
                       help="failure policy: raise (default), skip (bad "
                            "targets / failed solves become typed "
                            "placeholder results), or fallback (failures "
                            "retry through the resilient solver chain; "
                            "see docs/robustness.md)")
    solve.add_argument("--opt", action="append", default=[], metavar="NAME=VALUE",
                       help="extra solver option (repeatable); values are "
                            "parsed as Python literals, unknown names are "
                            "rejected with the solver's accepted options")

    simulate = sub.add_parser("simulate", help="cycle-level IKAcc run")
    add_common(simulate)
    add_telemetry(simulate)
    simulate.add_argument("--ssus", type=int, default=32)
    simulate.add_argument("--speculations", type=int, default=64)

    trace = sub.add_parser("trace", help="Gantt chart of one IKAcc iteration")
    trace.add_argument("--robot", default="dadu-100dof")
    trace.add_argument("--ssus", type=int, default=32)
    trace.add_argument("--speculations", type=int, default=64)
    trace.add_argument("--width", type=int, default=72)

    bench = sub.add_parser("bench", help="regenerate a paper experiment")
    bench.add_argument("experiment",
                       choices=["figure4", "figure5a", "figure5b", "table2",
                                "table2_ratios", "table3", "energy",
                                "headline", "all"])
    bench.add_argument("--targets", type=int, default=None,
                       help="targets per DOF (default: REPRO_TARGETS or 20)")
    bench.add_argument("--dofs", default=None,
                       help="comma list, e.g. 12,25 (default: REPRO_DOFS or paper sweep)")
    bench.add_argument("--workers", type=_positive_int, default=1,
                       help="shard each solver's target batch across this "
                            "many worker processes (default 1; results are "
                            "identical for any worker count)")
    bench.add_argument("--max-iterations", type=_positive_int, default=None,
                       help="override the paper's per-solve iteration cap "
                            "(default: 10000)")
    bench.add_argument("--kernel", default=None, choices=list(KERNEL_MODES),
                       help="FK/Jacobian kernel mode for the evaluation "
                            "chains (default: scalar)")
    add_kernel_axes(bench)
    add_telemetry(bench)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="open-loop load test of the in-process serving layer",
        description="Drive the micro-batching IK server with an open-loop "
                    "(seeded Poisson) request stream and record throughput, "
                    "latency percentiles and batch-occupancy gauges "
                    "(see docs/serving.md).",
    )
    serve_bench.add_argument("--robot", default="dadu-50dof",
                             help="robot name (see `repro robots`)")
    serve_bench.add_argument("--solver", default="JT-Speculation",
                             choices=sorted(SOLVER_REGISTRY))
    serve_bench.add_argument("--requests", type=_positive_int, default=200,
                             help="total requests in the open-loop stream")
    serve_bench.add_argument("--rate", type=float, default=300.0,
                             help="offered load in requests/second")
    serve_bench.add_argument("--max-batch-size", type=_positive_int, default=32,
                             help="most requests per micro-batch, and most "
                                  "live rows per lock-step run")
    serve_bench.add_argument("--dispatch-workers", type=_positive_int,
                             default=1,
                             help="concurrent dispatch loops draining the "
                                  "batcher (results are identical for any "
                                  "count; overlaps batch execution)")
    serve_bench.add_argument("--workload", default="iid",
                             choices=["iid", "tracking", "sessions"],
                             help="target stream shape: iid (independent "
                                  "workspace draws), tracking (smooth "
                                  "per-client trajectories — the warm-start "
                                  "workload), or sessions (the same "
                                  "trajectories streamed through "
                                  "TrackingSession handles: each tick is "
                                  "warm-started from that session's last "
                                  "solution; see docs/serving.md)")
    serve_bench.add_argument("--tracks", type=_positive_int, default=8,
                             help="simulated clients in the tracking/"
                                  "sessions workloads (sessions: one "
                                  "TrackingSession per client)")
    serve_bench.add_argument("--workers", type=_positive_int, default=None,
                             help="shard each micro-batch across this many "
                                  "worker processes (default: in-process)")
    serve_bench.add_argument("--kernel", default=None,
                             choices=list(KERNEL_MODES),
                             help="FK/Jacobian kernel mode for served solves")
    add_kernel_axes(serve_bench)
    serve_bench.add_argument("--on-error", default="skip",
                             choices=["raise", "skip", "fallback"],
                             help="per-batch failure policy (serving default: "
                                  "skip — a bad request degrades alone)")
    serve_bench.add_argument("--max-iterations", type=_positive_int,
                             default=None)
    serve_bench.add_argument("--tolerance", type=float, default=None)
    serve_bench.add_argument("--deadline-ms", type=float, default=None,
                             help="per-request latency budget; expired "
                                  "requests are rejected, not solved late")
    serve_bench.add_argument("--warm-start",
                             action=argparse.BooleanOptionalAction,
                             default=True,
                             help="IKSel-style ranked seed cache (default "
                                  "on; --no-warm-start restores the seeded "
                                  "cold draw and offline bit-comparability)")
    serve_bench.add_argument("--seed-k", type=_positive_int, default=None,
                             help="warm-start k-NN neighbourhood size "
                                  "(default: 8)")
    serve_bench.add_argument("--no-cold-baseline", dest="cold_baseline",
                             action="store_false",
                             help="skip the post-run cold-seed re-solve "
                                  "that measures the warm-start iteration "
                                  "reduction")
    serve_bench.add_argument("--seed", type=int, default=2017)
    serve_bench.add_argument("--out", default="BENCH_serving.json",
                             help="payload destination (JSON)")

    experiment = sub.add_parser(
        "experiment",
        help="declarative sweeps + the SQLite result store",
        description="Expand a robot x solver x kernel x workers x workload "
                    "grid, execute it resumably, and persist every cell's "
                    "metrics in a queryable SQLite store "
                    "(see docs/experiments.md).",
    )
    esub = experiment.add_subparsers(dest="experiment_command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default="experiments.sqlite",
                       help="SQLite result store path (created on demand)")
        p.add_argument("--lock-timeout", type=float, default=5.0,
                       help="seconds to wait on another writer before "
                            "failing with a locked-store error")

    exp_run = esub.add_parser(
        "run", help="expand a sweep grid and execute it (resumable)",
    )
    add_store(exp_run)
    exp_run.add_argument("--name", default="sweep",
                         help="sweep name (the store groups history by it)")
    exp_run.add_argument("--robots", default="dadu-12dof",
                         help="comma list of robot names")
    exp_run.add_argument("--solvers", default="JT-Speculation",
                         help="comma list of SOLVER_REGISTRY names")
    exp_run.add_argument("--kernels", default="-",
                         help="comma list of kernel specs (mode[:dtype]); "
                              "'-' inherits the chain's default")
    exp_run.add_argument("--workers", default="-", metavar="LIST",
                         help="comma list of sharding widths (e.g. 1,4); "
                              "'-' runs in-process")
    exp_run.add_argument("--workloads", default="batch",
                         help="comma list of workloads: batch, suite, serve")
    exp_run.add_argument("--targets", type=_positive_int, default=20,
                         help="problems (serve: requests) per cell")
    exp_run.add_argument("--seed", type=int, default=2017)
    exp_run.add_argument("--tolerance", type=float, default=None)
    exp_run.add_argument("--max-iterations", type=_positive_int, default=None)
    exp_run.add_argument("--rate", type=float, default=200.0,
                         help="offered load (req/s) for serve-workload cells")
    exp_run.add_argument("--fresh", action="store_true",
                         help="start a new run row even if an identical "
                              "sweep exists (records history for "
                              "regression queries instead of resuming)")

    exp_resume = esub.add_parser(
        "resume",
        help="re-run a stored sweep, executing only unfinished cells",
    )
    add_store(exp_resume)
    exp_resume.add_argument("--name", default="sweep",
                            help="sweep name to resume (newest run wins)")

    exp_query = esub.add_parser(
        "query", help="typed queries over the result store (strict JSON out)",
    )
    add_store(exp_query)
    what = exp_query.add_mutually_exclusive_group(required=True)
    what.add_argument("--runs", action="store_true",
                      help="list every run with its cell tally")
    what.add_argument("--latest", metavar="METRIC",
                      help="newest recorded value of METRIC")
    what.add_argument("--regressions", type=float, metavar="THRESHOLD",
                      help="flag (run-name, cell, metric) triples that "
                           "worsened by more than THRESHOLD (fraction) "
                           "between the two newest same-name runs; exits 1 "
                           "when any are found")
    what.add_argument("--compare", nargs=2, type=int,
                      metavar=("RUN_A", "RUN_B"),
                      help="join two runs' metrics on (cell, metric)")
    exp_query.add_argument("--cell", default=None,
                           help="restrict --latest to one cell key")
    exp_query.add_argument("--run-name", default=None,
                           help="restrict --latest/--regressions to one "
                                "run name")
    exp_query.add_argument("--metric", default=None,
                           help="restrict --regressions to one metric name")

    exp_import = esub.add_parser(
        "import",
        help="backfill committed BENCH_*.json payloads into the store",
    )
    add_store(exp_import)
    exp_import.add_argument("files", nargs="+",
                            help="BENCH_*.json payload files to import")

    report = sub.add_parser("report", help="write the EXPERIMENTS.md report")
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")

    sub.add_parser("robots", help="list available robots")
    return parser


def _kernel_spec(args) -> KernelSpec | None:
    """One :class:`KernelSpec` from ``--kernel`` / ``--dtype`` / ``--chunk``
    (``None`` when no axis was pinned: inherit the chain's defaults)."""
    name = getattr(args, "kernel", None)
    dtype = getattr(args, "dtype", None)
    chunk = getattr(args, "chunk", None)
    if name is None and dtype is None and chunk is None:
        return None
    return KernelSpec(name=name, dtype=dtype, chunk=chunk)


def _resolve_target(chain, args) -> np.ndarray:
    if args.target is not None:
        return np.asarray(args.target, dtype=float)
    rng = np.random.default_rng(args.seed)
    target = chain.end_position(chain.random_configuration(rng))
    print(f"random reachable target: {np.round(target, 4)}")
    return target


def _parse_solver_opts(pairs: list[str]) -> dict:
    """Parse repeated ``--opt NAME=VALUE`` flags (values: Python literals)."""
    options = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"--opt expects NAME=VALUE, got {pair!r}")
        try:
            options[name] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            options[name] = value  # bare strings, e.g. schedule=linear
    return options


class _TelemetryOutputs:
    """Build the tracer requested by ``--trace-out`` / ``--metrics-out``.

    Always also collects an in-memory summary so commands can print a
    one-line telemetry digest; ``finish()`` closes the JSONL file and writes
    the metrics report.
    """

    def __init__(self, args) -> None:
        from repro import telemetry

        self.trace_out = getattr(args, "trace_out", None)
        self.metrics_out = getattr(args, "metrics_out", None)
        self.requested = bool(self.trace_out or self.metrics_out)
        self.summary_sink = telemetry.SummaryTracer()
        self.jsonl = (
            telemetry.JsonlTracer(self.trace_out) if self.trace_out else None
        )
        self.registry = (
            telemetry.MetricsRegistry() if self.metrics_out else None
        )
        sinks = [
            s for s in (self.summary_sink, self.jsonl, self.registry)
            if s is not None
        ]
        self.tracer = telemetry.MultiTracer(*sinks)

    def finish(self) -> None:
        if self.jsonl is not None:
            self.jsonl.close()
            print(f"telemetry trace: {self.trace_out} "
                  f"({self.jsonl.lines_written} events)")
        if self.registry is not None:
            self.registry.to_json(self.metrics_out)
            print(f"telemetry metrics: {self.metrics_out}")
        summary = self.summary_sink.summary()
        counters = ", ".join(
            f"{name}={value}" for name, value in sorted(summary.counters.items())
        )
        print(f"telemetry: {summary.iterations} iteration events, {counters}")


def _cmd_solve(args) -> int:
    chain = named_robot(args.robot)
    config = SolverConfig(
        tolerance=args.tolerance, max_iterations=args.max_iterations
    )
    kwargs = {"speculations": args.speculations} if args.solver == "JT-Speculation" else {}
    kwargs.update(_parse_solver_opts(args.opt))
    spec = _kernel_spec(args)
    solver = make_solver(
        args.solver, spec.apply(chain) if spec is not None else chain,
        config=config, **kwargs,
    )
    target = _resolve_target(chain, args)
    telemetry = _TelemetryOutputs(args)
    if args.workers > 1 or args.on_error != "raise":
        # The sharded batch layer carries the on_error machinery (guards,
        # typed placeholders, fallback retries); workers=1 runs it inline.
        from repro.parallel import ShardedBatchSolver

        batch = ShardedBatchSolver(
            solver, workers=args.workers, on_error=args.on_error
        ).solve_batch(
            [target],
            rng=np.random.default_rng(args.seed + 1),
            tracer=telemetry.tracer if telemetry.requested else None,
        )
        result = batch[0]
        if batch.failures:
            print(f"failures: {batch.failures.summary()}")
    else:
        result = solver.solve(
            target,
            rng=np.random.default_rng(args.seed + 1),
            tracer=telemetry.tracer if telemetry.requested else None,
        )
    print(result.summary())
    print(f"wall time: {result.wall_time * 1e3:.2f} ms (this Python substrate)")
    if telemetry.requested:
        telemetry.finish()
    return 0 if result.converged else 1


def _cmd_simulate(args) -> int:
    from repro.ikacc import IKAccConfig, IKAccSimulator

    chain = named_robot(args.robot)
    sim = IKAccSimulator(
        chain,
        config=IKAccConfig(n_ssus=args.ssus, speculations=args.speculations,
                           kernel=args.kernel),
        solver_config=SolverConfig(
            tolerance=args.tolerance, max_iterations=args.max_iterations
        ),
    )
    target = _resolve_target(chain, args)
    telemetry = _TelemetryOutputs(args)
    run = sim.solve(
        target,
        rng=np.random.default_rng(args.seed + 1),
        tracer=telemetry.tracer if telemetry.requested else None,
    )
    print(run.summary())
    print("cycle breakdown:", run.cycle_breakdown)
    print(f"average power: {run.average_power_w * 1e3:.1f} mW")
    if telemetry.requested:
        telemetry.finish()
    return 0 if run.converged else 1


def _cmd_trace(args) -> int:
    from repro.ikacc import IKAccConfig, IKAccSimulator, render_gantt, trace_iteration

    chain = named_robot(args.robot)
    sim = IKAccSimulator(
        chain, config=IKAccConfig(n_ssus=args.ssus, speculations=args.speculations)
    )
    print(render_gantt(trace_iteration(sim), width=args.width))
    print(f"per-iteration latency: {sim.seconds_per_full_iteration() * 1e6:.2f} us")
    return 0


class _BenchHealth:
    """Count solves/convergences from ``solve_end`` events.

    Understands both per-problem events (``converged`` boolean) and merged
    batch events from the sharded layer (``batch`` / ``converged_count``
    fields), so the failure accounting is correct for any worker count.
    """

    def __init__(self) -> None:
        self.solves = 0
        self.converged = 0
        self.by_solver: dict[str, tuple[int, int]] = {}

    def observe(self, solver: str, fields: dict) -> None:
        n = int(fields.get("batch", 1))
        c = int(fields.get(
            "converged_count", n if fields.get("converged") else 0
        ))
        self.solves += n
        self.converged += c
        prev = self.by_solver.get(solver, (0, 0))
        self.by_solver[solver] = (prev[0] + n, prev[1] + c)


class _HealthTracer:
    """Minimal always-on tracer: forward ``solve_end`` to a ``_BenchHealth``.

    Deliberately not a :class:`~repro.telemetry.tracer.TracerBase` — every
    hot-loop event is a flat no-op (no dict construction, no clock reads),
    so leaving it installed for an untraced bench costs only the per-call
    overhead the <5% telemetry budget already allows for.
    """

    enabled = True

    def __init__(self, health: _BenchHealth) -> None:
        self._health = health

    def solve_start(self, solver, dof, **fields) -> None:
        pass

    def iteration(self, index, error, **fields) -> None:
        pass

    def speculation_wave(self, wave, occupancy, **fields) -> None:
        pass

    def count(self, counter, amount=1) -> None:
        pass

    def add_phase(self, phase, seconds) -> None:
        pass

    def phase(self, name):
        from contextlib import nullcontext

        return nullcontext()

    def solve_end(self, solver, **fields) -> None:
        self._health.observe(solver, fields)


def _cmd_bench(args) -> int:
    from repro.evaluation.experiments import PaperExperiments
    from repro.telemetry import MultiTracer, use_tracer
    from repro.workloads.suite import EvaluationSuite

    dofs = tuple(int(d) for d in args.dofs.split(",")) if args.dofs else None
    suite = EvaluationSuite(
        dofs=dofs, targets_per_dof=args.targets,
        options=ExecutionOptions(
            kernel=_kernel_spec(args),
            workers=None if args.workers == 1 else args.workers,
        ),
    )
    experiments = PaperExperiments(suite=suite, max_iterations=args.max_iterations)

    telemetry = _TelemetryOutputs(args)
    health = _BenchHealth()
    if telemetry.requested:
        tracer = MultiTracer(_HealthTracer(health), telemetry.tracer)
    else:
        tracer = _HealthTracer(health)
    # Install the tracer process-wide: the experiment harness calls solvers
    # several layers deep, and every solve path falls back to the global
    # tracer when not handed one explicitly.
    with use_tracer(tracer):
        tables = experiments.all_tables()
        selected = tables if args.experiment == "all" else {
            args.experiment: tables[args.experiment]
        }
        for table in selected.values():
            print(table.to_ascii())
            print()
    if telemetry.requested:
        telemetry.finish()
    if health.solves and health.converged == 0:
        # Every solve failing is a broken benchmark, not a result table;
        # exiting 0 here used to hide total failure from CI pipelines.
        print(f"bench FAILED: 0/{health.solves} solves converged",
              file=sys.stderr)
        for name, (n, c) in sorted(health.by_solver.items()):
            print(f"  {name}: {c}/{n} converged", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_bench(args) -> int:
    import json
    from pathlib import Path

    from repro.serving import run_serve_bench

    payload = run_serve_bench(
        robot=args.robot,
        solver=args.solver,
        requests=args.requests,
        rate_hz=args.rate,
        max_batch_size=args.max_batch_size,
        dispatch_workers=args.dispatch_workers,
        workers=args.workers,
        kernel=args.kernel,
        dtype=args.dtype,
        chunk=args.chunk,
        on_error=args.on_error,
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        warm_start=args.warm_start,
        seed_k=args.seed_k,
        workload=args.workload,
        tracks=args.tracks,
        cold_baseline=args.cold_baseline,
        deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        seed=args.seed,
    )
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    serving = payload["serving"]
    latency = payload["latency_s"]
    print(
        f"served {payload['completed']}/{payload['requests']} requests "
        f"({payload['converged']} converged) at "
        f"{payload['throughput_rps']:.1f} req/s"
    )
    print(
        f"latency p50/p90/p99: {latency['p50'] * 1e3:.2f} / "
        f"{latency['p90'] * 1e3:.2f} / {latency['p99'] * 1e3:.2f} ms"
    )
    print(
        f"batches: {serving['batches']} "
        f"(mean occupancy {serving['mean_occupancy']:.2f}, "
        f"peak {serving['occupancy_peak']}, "
        f"queue peak {serving['queue_depth_peak']})"
    )
    warm = payload["warm_start"]
    if warm["enabled"]:
        hits, misses = warm["cache_hits"], warm["cache_misses"]
        line = f"warm-start: {hits} cache hits / {hits + misses} lookups"
        baseline = warm.get("cold_baseline")
        if baseline and baseline["iteration_reduction"] is not None:
            line += (
                f"; mean iterations {baseline['warm_mean_iterations']:.1f} "
                f"warm vs {baseline['mean_iterations']:.1f} cold "
                f"({baseline['iteration_reduction'] * 100:.1f}% fewer)"
            )
        print(line)
    sessions = payload.get("sessions")
    if sessions:
        manager = sessions["manager"]
        line = (
            f"sessions: {sessions['count']} streams, "
            f"{manager['ticks']} ticks "
            f"({manager['warm_ticks']} warm-chained)"
        )
        baseline = sessions.get("cold_baseline")
        if baseline and baseline["iteration_reduction"] is not None:
            line += (
                f"; mean iterations "
                f"{baseline['warm_mean_iterations']:.1f} warm vs "
                f"{baseline['mean_iterations']:.1f} cold per-tick "
                f"({baseline['iteration_reduction'] * 100:.1f}% fewer)"
            )
        print(line)
    shed = payload["rejections"].get("slo_shed", 0)
    if shed:
        print(f"SLO shedding: {shed} requests shed at dispatch")
    print(f"wrote {args.out}")
    if payload["completed"] and payload["converged"] == 0:
        # Mirror the bench health check: a load test where nothing
        # converges is a broken serving stack, not a latency result.
        print(
            f"serve-bench FAILED: 0/{payload['completed']} served solves "
            "converged", file=sys.stderr,
        )
        return 1
    return 0


def _csv_axis(text: str, convert=None) -> tuple:
    """Parse a comma-list sweep axis; ``-`` (or empty) items mean ``None``."""
    values = []
    for item in text.split(","):
        item = item.strip()
        if item in ("", "-", "none", "None"):
            values.append(None)
        else:
            values.append(convert(item) if convert is not None else item)
    return tuple(values)


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _cmd_experiment(args) -> int:
    """Dispatch ``experiment run/resume/query/import`` against one store.

    Every subcommand prints one strict-JSON document; locked stores exit 1
    with a one-line stderr diagnosis instead of a traceback.
    """
    from repro.experiments import ResultStore, StoreLocked

    try:
        store = ResultStore(args.store, timeout_s=args.lock_timeout)
    except StoreLocked as exc:
        print(f"experiment store locked: {exc}", file=sys.stderr)
        return 1
    try:
        with store:
            return _EXPERIMENT_COMMANDS[args.experiment_command](args, store)
    except StoreLocked as exc:
        print(f"experiment store locked: {exc}", file=sys.stderr)
        return 1


def _experiment_run(args, store) -> int:
    from repro.experiments import SweepRunner, SweepSpec

    try:
        spec = SweepSpec(
            name=args.name,
            robots=_csv_axis(args.robots),
            solvers=_csv_axis(args.solvers),
            kernels=_csv_axis(args.kernels),
            workers=_csv_axis(args.workers, convert=int),
            workloads=_csv_axis(args.workloads),
            targets=args.targets,
            seed=args.seed,
            tolerance=args.tolerance,
            max_iterations=args.max_iterations,
            rate_hz=args.rate,
        )
    except (TypeError, ValueError) as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2
    result = SweepRunner(spec, store, fresh=args.fresh).run()
    _print_json({"sweep": spec.name, "store": args.store, **result.to_dict()})
    return 0 if result.failed == 0 else 1


def _experiment_resume(args, store) -> int:
    from repro.experiments import SweepRunner, SweepSpec

    run_id = store.latest_run_id(args.name)
    row = store.run_row(run_id) if run_id is not None else None
    if row is None or row["source"] != "sweep" or not row["spec_json"]:
        print(
            f"no resumable sweep named {args.name!r} in {args.store}"
            " (imports cannot be resumed)",
            file=sys.stderr,
        )
        return 1
    spec = SweepSpec.from_json(row["spec_json"])
    result = SweepRunner(spec, store).run()
    _print_json({"sweep": spec.name, "store": args.store, **result.to_dict()})
    return 0 if result.failed == 0 else 1


def _experiment_query(args, store) -> int:
    if args.runs:
        _print_json({"runs": store.runs()})
        return 0
    if args.latest is not None:
        value = store.latest_metric(
            args.latest, cell_key=args.cell, run_name=args.run_name
        )
        _print_json({
            "metric": args.latest,
            "cell": args.cell,
            "run_name": args.run_name,
            "value": value,
        })
        return 0
    if args.compare is not None:
        run_a, run_b = args.compare
        _print_json({
            "run_a": run_a,
            "run_b": run_b,
            "rows": store.compare_runs(run_a, run_b),
        })
        return 0
    flagged = store.regressions(
        args.regressions, metric=args.metric, run_name=args.run_name
    )
    _print_json({
        "threshold": args.regressions,
        "regressions": [r.to_dict() for r in flagged],
    })
    # A nonempty answer *is* the CI perf gate tripping.
    return 1 if flagged else 0


def _experiment_import(args, store) -> int:
    from repro.experiments import import_bench_file

    imports = []
    for path in args.files:
        try:
            imports.append(import_bench_file(store, path))
        except (OSError, ValueError) as exc:
            print(f"import failed: {exc}", file=sys.stderr)
            return 1
    _print_json({"imported": imports})
    return 0


_EXPERIMENT_COMMANDS = {
    "run": _experiment_run,
    "resume": _experiment_resume,
    "query": _experiment_query,
    "import": _experiment_import,
}


def _cmd_report(args) -> int:
    from repro.evaluation.report import main as report_main

    return report_main([args.output])


def _cmd_robots(_args) -> int:
    from repro.solvers import BATCH_REGISTRY

    print("named robots:", ", ".join(ROBOT_NAMES))
    print("generated:    dadu-<N>dof, snake-<N>dof, planar-<N>dof")
    print()
    print("solvers and their options (pass via `repro solve --opt NAME=VALUE`):")
    print(describe_solver_options())
    print()
    print("lock-step batch engines:", ", ".join(sorted(BATCH_REGISTRY)))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "serve-bench": _cmd_serve_bench,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "robots": _cmd_robots,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
