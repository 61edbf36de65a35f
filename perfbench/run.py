"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-tracking-50dof --seed 1 \\
        --seconds 50 --trace 0

The program under test is imported from ``src/`` of the same checkout.  A
run makes its inputs from ``--seed`` and repeats them as identical passes
for ``--seconds`` (see :class:`perfbench.workloads.Workload`); it
re-checks every result on the scalar oracle chain and prints one JSON
object as the last line of standard output::

    {"correct": true, "attempted": 960, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: solve
throughput and latency (median and p90; one sample per ``api.solve_batch``
call offline, one per tick when serving), each taken per pass and reported
as the median over the run's passes; peak resident memory; and set-up time
(the median of several fresh-interpreter start-ups run between timed
units).  ``--trace 1`` runs every unit twice, untraced and then with the
layer wrappers of :mod:`perfbench.tracing` installed, and reports the
per-layer metrics from the traced twins, per pass; the spans are written
to ``.bench_traces/`` when the run ends.

Host calibration: the host's speed swings by 30-55 % in phases of seconds
to minutes, set by other tenants of the machine, and one run of
``--seconds`` cannot average that out.  After every unit the run times a
fixed kernel that does not touch the program
(:func:`perfbench.measure.calibration_ms`) for about 1 % of the unit's
time.  A pass's timings are scaled by how much slower than its nominal
time the kernel ran in that pass, which gives what the same pass would
have taken on the host in its fast phase; a change to the program moves
them exactly as it moves the measured times, and the measured median is
printed beside them.  Set-up time is scaled by the kernel's median over
the whole run.

Lines before the last one are for people and for ``steady.py``: each
metric with its unit and sample count, and an ``info`` line with exact
work counts, per-pass rates and the host calibration time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]

#: Fresh-interpreter set-up probes per untraced run, spread across it.
SETUP_PROBES = 11

#: Share of each unit's time spent afterwards timing the calibration kernel.
CALIBRATION_SHARE = 0.01


class BenchmarkError(RuntimeError):
    """The run cannot produce a result."""


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = CHECKOUT / "src"
    try:
        import repro
    except ImportError as exc:
        raise BenchmarkError(f"cannot import the program from {src}: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchmarkError(f"imported repro from {origin}, not from {src}")


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds of one workload set-up in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(CHECKOUT / "perfbench" / "setup_probe.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{probe.stderr}")
    return float(probe.stdout.strip().splitlines()[-1])


@dataclass
class PassTiming:
    """One pass: operations, timed seconds, latency samples, the exact work
    counts of its results and the calibration kernel's times (ms)."""

    ops: int = 0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    iterations: int = 0
    fk_evaluations: int = 0
    calibration: list[float] = field(default_factory=list)

    @property
    def work(self) -> tuple[int, int]:
        return self.iterations, self.fk_evaluations

    @property
    def rate(self) -> float:
        return self.ops / self.wall_s


class Run:
    """One run of one workload: the pass loop and what it accumulates."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        from perfbench import measure
        from perfbench.workloads import make_workload

        self.measure = measure
        self.workload = make_workload(name, seed)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.passes: list[PassTiming] = []
        self.ops = self.failed = 0
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.setup_s: list[float] = []
        # Traced runs only.
        self.recorder = None
        self.twin_wall_s = 0.0
        self.twin_mismatches = 0
        self.serving = {}

    def _account(self, outcome) -> None:
        oracle = self.workload.oracle
        verdict = oracle.check(outcome.targets, outcome.results)
        self.ops += outcome.ops
        self.failed += outcome.rejected + verdict.failed
        oracle.gate(verdict)
        self.wall_s += outcome.wall_s
        self.latencies.extend(outcome.latencies_ms)
        current = self.passes[-1]
        current.ops += outcome.ops
        current.wall_s += outcome.wall_s
        current.latencies.extend(outcome.latencies_ms)
        for iterations, fk_evaluations in outcome.work:
            current.iterations += iterations
            current.fk_evaluations += fk_evaluations

    def _calibrate(self, unit_s: float) -> None:
        """Time the calibration kernel for a share of the unit just run."""
        samples = self.passes[-1].calibration
        spent_ms = 0.0
        while spent_ms < CALIBRATION_SHARE * unit_s * 1e3:
            samples.append(self.measure.calibration_ms())
            spent_ms += samples[-1]

    def _twin(self, unit: int, outcome) -> None:
        """Repeat ``unit`` with the layer wrappers installed."""
        from perfbench.tracing import Instrumentation

        before = self.workload.counters()
        with Instrumentation(self.recorder):
            twin = self.workload.run(unit, recorder=self.recorder)
        after = self.workload.counters()
        for key in after:
            self.serving[key] = self.serving.get(key, 0) + after[key] - before[key]
        oracle = self.workload.oracle
        oracle.gate(oracle.check(twin.targets, twin.results))
        self.twin_wall_s += twin.wall_s
        if twin.work != outcome.work:
            self.twin_mismatches += 1

    def execute(self) -> None:
        """Run passes until the next one would end after ``seconds``
        (at least one), with the set-up probes spread through that time."""
        workload = self.workload
        if self.trace:
            from perfbench.tracing import Recorder

            self.recorder = Recorder()
            probes_due = []
        else:
            probes_due = [
                (i + 0.5) * self.seconds / SETUP_PROBES for i in range(SETUP_PROBES)
            ]
            # The first start-up compiles bytecode and fills the page cache;
            # it is not a sample.
            _setup_probe(workload.name, self.seed)
        workload.setup()
        try:
            workload.prepare()
            started = time.perf_counter()
            while not self.passes or self._room_for_pass(started):
                self.passes.append(PassTiming())
                for unit in range(workload.pass_units):
                    if probes_due and time.perf_counter() - started >= probes_due[0]:
                        probes_due.pop(0)
                        self.setup_s.append(_setup_probe(workload.name, self.seed))
                    outcome = workload.run(unit)
                    self._account(outcome)
                    self._calibrate(outcome.wall_s)
                    if self.trace:
                        self._twin(unit, outcome)
            for _ in probes_due:
                self.setup_s.append(_setup_probe(workload.name, self.seed))
        finally:
            workload.close()

    def _room_for_pass(self, started: float) -> bool:
        elapsed = time.perf_counter() - started
        return elapsed * (1 + 1 / len(self.passes)) <= self.seconds

    # -- reporting -------------------------------------------------------

    def _factors(self) -> list[float]:
        """Per pass, how many times slower than nominal the host ran."""
        return [self.measure.host_factor(t.calibration) for t in self.passes]

    def _how(self, measured: list[float]) -> str:
        return (
            f"median of {len(measured)} passes, host-calibrated; "
            f"measured {statistics.median(measured):.4g}"
        )

    def _latency(self, p: float) -> tuple[float, str, str]:
        """The median over passes of each pass's ``p``-th percentile
        latency, calibrated."""
        per_pass = [self.measure.percentile(t.latencies, p) for t in self.passes]
        if None in per_pass:
            raise BenchmarkError(
                f"{len(self.passes[0].latencies)} latency samples per pass "
                f"cannot support p{p:g}"
            )
        values = [q.value for q in per_pass]
        calibrated = [v / f for v, f in zip(values, self._factors())]
        return statistics.median(calibrated), "ms", (
            f"{per_pass[0].describe()} per pass; {self._how(values)}"
        )

    def end_to_end(self) -> dict[str, tuple[float, str, str]]:
        """``{name: (value, unit, how measured)}``."""
        rates = [t.rate for t in self.passes]
        calibrated = [r * f for r, f in zip(rates, self._factors())]
        return {
            "solves_per_s": (
                statistics.median(calibrated), "1/s",
                f"{self.passes[0].ops} targets per pass; {self._how(rates)}",
            ),
            "latency_p50_ms": self._latency(50),
            "latency_p90_ms": self._latency(90),
            "peak_rss_mb": (self.measure.peak_rss_mb(), "MB", "workload process"),
            "setup_s": (
                statistics.median(self.setup_s) / self._run_factor(), "s",
                f"median of n={len(self.setup_s)} fresh start-ups, "
                f"host-calibrated; measured {statistics.median(self.setup_s):.4g}",
            ),
        }

    def _calibration_samples(self) -> list[float]:
        return [ms for t in self.passes for ms in t.calibration]

    def _run_factor(self) -> float:
        return self.measure.host_factor(self._calibration_samples())

    def per_layer(self) -> dict[str, tuple[float, str, str]]:
        from perfbench.tracing import layer_totals

        spans = [s for s in self.recorder.spans if s.name != "serving.tick"]
        totals = layer_totals(spans)
        passes = len(self.passes)

        def layer(name: str, key: str) -> float:
            return totals.get(name, {}).get(key, 0) / passes

        out: dict[str, tuple[float, str, str]] = {}
        for name, fields in LAYER_FIELDS.items():
            for key in fields:
                unit = "s" if key == "self_s" else "count"
                out[f"{name}.{key}"] = (
                    layer(name, key), unit, f"traced twins, per pass of {passes}",
                )
        fk_rows = layer("kinematics.fk_batch", "rows")
        out["kinematics.fk_batch.us_per_row"] = (
            layer("kinematics.fk_batch", "self_s") / fk_rows * 1e6
            if fk_rows else 0.0, "us", "self time / rows",
        )
        first = self.passes[0]
        solved = max(1, self.ops - self.failed)
        fk_evaluations = sum(t.fk_evaluations for t in self.passes)
        out["solvers.iterations"] = (first.iterations, "count", "IKResults, per pass")
        out["solvers.fk_evaluations"] = (
            first.fk_evaluations, "count", "IKResults, per pass",
        )
        out["solvers.fk_rows_per_solve"] = (
            fk_evaluations / solved, "count", "FK rows / solved target",
        )
        out.update(self._serving_layer(passes))
        covered = sum(entry["self_s"] for entry in totals.values())
        out["telemetry.span_coverage"] = (
            covered / self.twin_wall_s, "1", "layer self time / traced wall",
        )
        out["telemetry.trace_overhead_frac"] = (
            self.twin_wall_s / self.wall_s - 1.0, "1",
            f"traced {self.twin_wall_s:.3f} s vs untraced {self.wall_s:.3f} s",
        )
        out["host.ref_ms"] = self._host_ref()
        return out

    def _serving_layer(self, passes: int) -> dict[str, tuple[float, str, str]]:
        s = self.serving
        batches = s.get("batches", 0)
        batched = s.get("requests_batched", 0)
        occupancy = batched / batches if batches else 0.0
        limit = getattr(self.workload, "max_batch_size", 0)
        p99 = self.measure.percentile(self.latencies, 99) if batches else None
        return {
            "serving.queue_wait_s": (
                s.get("coalesce_wait_s", 0.0) / batched if batched else 0.0,
                "s", "mean per request, traced twins",
            ),
            "serving.batches": (batches / passes, "count", "traced twins, per pass"),
            "serving.occupancy_mean": (occupancy, "count", "ticks per micro-batch"),
            "serving.batch_fill": (
                occupancy / limit if batches else 0.0, "1",
                "occupancy / max_batch_size",
            ),
            "serving.rejected": (
                s.get("rejected", 0) / passes, "count", "traced twins, per pass",
            ),
            "serving.tick_p99_ms": (
                p99.value if p99 else 0.0, "ms",
                p99.describe() + ", untraced" if p99 else "no ticks",
            ),
        }

    def _host_ref(self) -> tuple[float, str, str]:
        samples = self._calibration_samples()
        return (
            statistics.median(samples), "ms",
            f"calibration kernel, median of n={len(samples)}; "
            f"nominal {self.measure.CALIBRATION_MS}",
        )

    def report(self) -> tuple[dict, list[str]]:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        lines = [
            f"workload {self.workload.name}  seed {self.seed}  "
            f"trace {int(self.trace)}"
        ]
        for name, (value, unit, how) in metrics.items():
            lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} ({how})")
        first = self.passes[0]
        info = {
            "workload": self.workload.name,
            "seed": self.seed,
            "passes": len(self.passes),
            "pass_rates": [t.rate for t in self.passes],
            "pass_host_factors": self._factors(),
            # Exact work of one pass.  Every pass solves the same inputs, so
            # a pass that did other work did work that depends on timing.
            "solvers.iterations": first.iterations,
            "solvers.fk_evaluations": first.fk_evaluations,
            "passes_repeat_work": all(t.work == first.work for t in self.passes),
            "failed_frac": self.failed / self.ops,
            "host.ref_ms": self._host_ref()[0],
        }
        if self.trace:
            info["twin_mismatches"] = self.twin_mismatches
        if not info["passes_repeat_work"]:
            lines.append("  passes of the same inputs did different work")
        lines.append(
            f"  failed_frac {self.failed}/{self.ops}   "
            f"host.ref_ms {info['host.ref_ms']:.4f} (not gated)"
        )
        lines.append("info " + json.dumps(info))
        result = {
            "correct": True,
            "attempted": self.ops,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in metrics.items()
            },
        }
        return result, lines

    def write_spans(self) -> Path:
        out_dir = CHECKOUT / ".bench_traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{self.workload.name}-seed{self.seed}.jsonl.gz"
        self.recorder.write(path)
        return path


#: Counted span fields per layer (``self_s`` is seconds of self time).
LAYER_FIELDS = {
    "kinematics.fk_batch": ("calls", "rows", "self_s"),
    "kinematics.jacobian_batch": ("calls", "rows", "self_s"),
    "kinematics.fk_single": ("calls", "self_s"),
    "kinematics.jacobian_single": ("calls", "self_s"),
    "core.driver": ("calls", "self_s"),
    "solvers.engine": ("calls", "self_s"),
    "api.solve_batch": ("calls", "self_s"),
    "parallel.shard": ("calls", "self_s"),
    "serving.submit": ("calls", "self_s"),
}


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    from perfbench.oracle import OracleGateError
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _import_program()
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        try:
            run.execute()
        except OracleGateError as exc:
            print(f"oracle gate failed: {exc}", file=sys.stderr)
            print(json.dumps({
                "correct": False, "attempted": run.ops,
                "failed": run.failed, "metrics": {},
            }))
            return 1
        result, lines = run.report()
        if run.trace:
            lines.append(f"  spans written to {run.write_spans()}")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    lines.append(f"  run took {time.perf_counter() - started:.1f} s")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
