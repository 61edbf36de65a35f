"""Perf-regression gate for the vectorized kernel layer (``-m slow``).

Runs the fixed microbenchmark workload of ``benchmarks/bench_kernels.py``
under both kernel modes and asserts the vectorized path has not regressed:

* the headline lock-step candidate sweep (all ``B x Max`` speculative
  evaluations of one 50-DOF iteration in one stacked call) must keep a
  clear speedup over the scalar oracle — the committed baseline
  ``BENCH_kernels.json`` records ~2-3x, the gate demands >= 1.5x to absorb
  shared-runner noise;
* no section may be slower than scalar beyond tolerance (1.5x) — catching
  a dispatch-overhead regression even where the win is only parity; the
  sections span 32 rows (one solve's sweep), 256 rows (the served sweep)
  and 2048 rows (a full lock-step batch), plus the 8-row frame pass of a
  served iteration, so a kernel whose fixed cost is paid per call is held
  to the oracle at the sizes the server runs;
* accuracy rides along: every section's recorded deviation from the
  scalar oracle stays within the 1e-12 conformance bound.

Timing-sensitive, so excluded from tier 1 (the ``slow`` marker); the
nightly CI job runs it and uploads the fresh JSON next to the committed
baseline.
"""

import json
from pathlib import Path

import pytest

from benchmarks.bench_kernels import run_kernel_bench

#: Gate on the headline sweep: well under the measured ~2-3x, well over 1x.
MIN_HEADLINE_SPEEDUP = 1.5

#: No section may be slower than the scalar oracle beyond this factor.
MAX_SLOWDOWN = 1.5

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_kernels.json"


@pytest.fixture(scope="module")
def payload():
    return run_kernel_bench(dof=50, speculations=32, batch=64, repeats=5)


@pytest.mark.slow
def test_headline_speculative_sweep_keeps_speedup(payload):
    headline = payload["headline_speedup"]
    assert headline >= MIN_HEADLINE_SPEEDUP, (
        f"lock-step candidate sweep at {headline:.2f}x "
        f"(gate {MIN_HEADLINE_SPEEDUP}x; committed baseline records "
        f"{json.loads(BASELINE.read_text())['headline_speedup']:.2f}x)"
        if BASELINE.exists()
        else f"lock-step candidate sweep at {headline:.2f}x"
    )


@pytest.mark.slow
def test_no_section_slower_than_scalar_beyond_tolerance(payload):
    slow_sections = {
        name: section["speedup"]
        for name, section in payload["sections"].items()
        if section["speedup"] < 1.0 / MAX_SLOWDOWN
    }
    assert not slow_sections, (
        f"vectorized kernels regressed past {MAX_SLOWDOWN}x slowdown: "
        f"{slow_sections}"
    )


@pytest.mark.slow
def test_accuracy_rides_along(payload):
    for name, section in payload["sections"].items():
        assert section["max_abs_deviation"] <= 1e-12, (
            f"{name} deviates {section['max_abs_deviation']:.2e} from the "
            "scalar oracle (conformance bound 1e-12)"
        )


@pytest.mark.slow
def test_committed_baseline_is_fresh_and_passing():
    """The repo's ``BENCH_kernels.json`` must exist and itself meet the
    acceptance bar (>= 2x on the headline sweep), so the committed record
    never contradicts the gate."""
    assert BASELINE.exists(), "run benchmarks/bench_kernels.py to seed it"
    recorded = json.loads(BASELINE.read_text())
    assert recorded["benchmark"] == "kernel-speedup"
    assert recorded["headline_speedup"] >= 2.0
    for name, section in recorded["sections"].items():
        assert section["max_abs_deviation"] <= 1e-12, name
