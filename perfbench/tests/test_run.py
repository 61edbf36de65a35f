"""The one command: metric names match BENCHMARK.json, and it refuses to
run without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench.measure import CALIBRATION_MS
from perfbench.workloads import FamiliesWorkload

CHECKOUT = Path(__file__).resolve().parents[2]
BENCH = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _names(section):
    return [metric["name"] for metric in BENCH[section]]


# An untraced run reports latency percentiles, which need 100 samples
# (one per api.solve_batch call) in a pass before p90 has ten beyond it.
# It is shorter than one pass, so it does exactly one; the traced run has
# room for several short passes of the same five batches.
@pytest.mark.parametrize("trace, units, seconds", [(False, 100, 1), (True, 5, 6)])
def test_reports_exactly_the_benchmark_metrics(trace, units, seconds, monkeypatch):
    monkeypatch.setattr(FamiliesWorkload, "pass_units", units)
    run = bench_run.Run("offline-families-50dof", seed=3, seconds=seconds, trace=trace)
    run.execute()
    result, lines = run.report()
    section = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(_names(section))
    assert result["correct"] is True
    assert result["failed"] == 0
    for name, metric in zip(_names(section), BENCH[section]):
        assert result["metrics"][name]["unit"] == metric["unit"]
    info = json.loads(next(x for x in lines if x.startswith("info "))[5:])
    assert result["attempted"] == info["passes"] * units * 32
    assert info["passes_repeat_work"] is True
    assert info["solvers.iterations"] > 0
    if trace:
        assert info["passes"] >= 2
        assert info["twin_mismatches"] == 0
        assert result["metrics"]["telemetry.span_coverage"]["value"] >= 0.9
        per_pass = result["metrics"]["solvers.iterations"]["value"]
        assert per_pass == info["solvers.iterations"]
    else:
        assert info["passes"] == 1
        assert "p90 of n=100, 10 beyond" in "\n".join(lines)


def test_timings_are_calibrated_medians_of_the_passes():
    nominal = CALIBRATION_MS
    run = bench_run.Run("offline-families-50dof", seed=1, seconds=1, trace=False)
    run.passes = [
        bench_run.PassTiming(
            ops=64, wall_s=1.0, latencies=list(range(100)), calibration=[nominal],
        ),
        # The same pass on a host running at half speed.
        bench_run.PassTiming(
            ops=64, wall_s=2.0, latencies=[2 * x for x in range(100)],
            calibration=[2 * nominal] * 3,
        ),
        # A pass that was slower by itself.
        bench_run.PassTiming(
            ops=64, wall_s=2.0, latencies=list(range(100, 200)),
            calibration=[nominal] * 4,
        ),
    ]
    # Over the run the kernel ran at its nominal time: set-up is unscaled.
    run.setup_s = [0.3, 0.1, 0.2]
    metrics = run.end_to_end()
    assert metrics["solves_per_s"][0] == pytest.approx(64.0)
    assert "median of 3 passes, host-calibrated; measured 32" in metrics["solves_per_s"][2]
    assert metrics["latency_p50_ms"][0] == pytest.approx(49)
    assert metrics["latency_p90_ms"][0] == pytest.approx(89)
    assert "p90 of n=100, 10 beyond per pass" in metrics["latency_p90_ms"][2]
    assert metrics["setup_s"][0] == 0.2
    assert "host-calibrated; measured 0.2" in metrics["setup_s"][2]
    # host.ref_ms is the median of every calibration sample of the run.
    assert run._host_ref()[0] == nominal


def test_predictions_cover_every_metric_once():
    predictions = json.loads(
        (CHECKOUT / "perfbench" / "predictions.json").read_text()
    )
    layers = predictions["layers"]
    listed = [name for entry in layers.values() for name in entry["metrics"]]
    assert sorted(listed) == sorted(_names("per_layer"))
    assert sorted(predictions["workloads"]) == sorted(_names("workloads"))
    for entry in predictions["workloads"].values():
        assert set(entry["stresses"]) <= set(layers)
    end_to_end = set(_names("end_to_end"))
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        workloads = set(entry["on"]) | set(entry["no_change_on"])
        assert workloads <= set(_names("workloads"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        CHECKOUT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "offline-families-50dof", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "cannot import the program" in proc.stderr
