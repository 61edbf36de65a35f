"""Scalar vs vectorized FK/Jacobian kernel speedups → BENCH_kernels.json.

Times the kernel layer (:mod:`repro.kinematics.kernels`) on the workload
shapes the Quick-IK pipeline actually runs:

* ``candidate_sweep_lockstep`` — the headline microbenchmark: all
  ``B x Max`` (problem, candidate) speculative evaluations of one lock-step
  iteration at 50 DOF (default 64 x 32 = 2048 FK rows) in one call.  The
  acceptance gate in ``ISSUE`` expects >= 2x here.
* ``candidate_sweep_served`` — the sweep at the size the server runs:
  about four live problems x ``Max = 64`` candidates = 256 FK rows (the
  serve-tracking workload's sweeps average 150-250 rows).  The fold's
  fixed cost is paid per joint, not per row, so this is the size that
  shows it.
* ``ray_sweep_served`` — the same served size handed over as a
  :class:`~repro.kinematics.kernels.SpeculationGrid` (4 problems, each
  ``Max = 64`` candidates on one ray), the form Quick-IK's solvers sweep
  under the linear schedule: the vectorized kernel steps its joint angles
  along each ray, the scalar oracle materialises the candidates.
* ``frame_pass_served`` — one served iteration's prefix-frame pass
  (``fk_jacobian_batch``): the positions and Jacobians of 8 rows, the
  serve-tracking workload's live rows.  Quick-IK's lock-step iteration
  makes this one pass, shared by the rows it admits and the rows it
  steps.
* ``candidate_sweep_single`` — one problem's ``Max = 32`` candidates (the
  single-solve speculative sweep of Algorithm 1).
* ``jacobian_single`` — one Jacobian build at ``B = 1`` (the scalar driver
  loop's per-iteration cost; the vectorized path runs the frame pass's
  log-depth rotation scan on one row here).
* ``jacobian_batch`` — the lock-step engines' per-iteration Jacobian over
  all unconverged problems.

Two tables time the sweep across sizes (``sweep_sizes`` in the payload):

* ``fold_crossover`` — the fold against the frame pass's poses (the
  vectorized ``fk_batch``) and the scalar oracle, at 1 to 2048 explicit
  rows: where the fold's per-joint fixed cost stops mattering.
* ``ray_grid_served`` — the served grid sizes, 1 to 8 problems of
  ``Max = 64``, swept as a ``SpeculationGrid`` and as the explicit block
  of the same candidates (built beforehand).

One table times the frame pass across sizes (``frame_pass_sizes``):
``fk_jacobian_batch`` at 1 to 64 rows, the sizes the lock-step engines
run (the offline row families pass 9-19 rows a call, a served run about
4), under both kernels, with the max deviation from the oracle.

Each cell is the best of ``repeats`` rounds that time the columns in turn.

Timings are best-of-``repeats`` over an inner loop (the container this repo
is typically benchmarked in has one noisy CPU; the minimum is the standard
robust estimator).  Every section also records the max absolute deviation
of the vectorized result from the scalar oracle — the JSON doubles as an
accuracy record::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --dof 50 --speculations 32 --batch 64 --out BENCH_kernels.json

Also collected by ``pytest benchmarks`` as a miniature smoke test; the
timing-sensitive regression gate lives in
``tests/performance/test_kernel_perf.py`` (``-m slow``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.result import SolverConfig
from repro.execution import KernelSpec
from repro.kinematics.kernels import SpeculationGrid
from repro.kinematics.robots import paper_chain
from repro.solvers.batched import BatchedQuickIK

DEFAULT_REPEATS = 7

#: ``candidate_sweep_served``: live problems x candidates per problem.
SERVED_PROBLEMS, SERVED_SPECULATIONS = 4, 64

#: ``frame_pass_served``: rows in one served iteration's frame pass.
SERVED_FRAME_ROWS = 8

#: ``fold_crossover`` rows and ``ray_grid_served`` problems (x ``Max = 64``).
CROSSOVER_ROWS = (1, 4, 8, 16, 32, 64, 128, 256, 512, 2048)
GRID_PROBLEMS = (1, 2, 4, 8)

#: ``frame_pass_sizes`` rows.
FRAME_PASS_ROWS = (1, 4, 16, 32, 64)

#: Engine-level solve workload: iteration cap for the 50-DOF batch solve
#: (the paper tolerance converges well before this on reachable targets).
ENGINE_MAX_ITERATIONS = 200


def _best_of_each(fns: dict, repeats: int, inner: int) -> dict:
    """Best-of-``repeats`` mean seconds per call over an ``inner`` loop,
    for each of ``fns``, timed in turn within every round."""
    for fn in fns.values():
        fn()  # warm caches / allocator before timing
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            best[name] = min(best[name], (time.perf_counter() - start) / inner)
    return best


def _best_of(fn, repeats: int, inner: int) -> float:
    """Best-of-``repeats`` mean seconds per call over an ``inner`` loop."""
    return _best_of_each({"fn": fn}, repeats, inner)["fn"]


def _microseconds(fns: dict, repeats: int, inner: int) -> dict:
    return {
        name: seconds * 1e6
        for name, seconds in _best_of_each(fns, repeats, inner).items()
    }


def _sweep_sizes(scalar, vectorized, repeats: int, seed: int) -> dict:
    """The ``fold_crossover`` and ``ray_grid_served`` tables."""
    crossover = {}
    for rows in CROSSOVER_ROWS:
        qs = _candidates(scalar, rows, seed + rows)
        crossover[rows] = _microseconds({
            "frames_us": lambda: vectorized.kernels.fk_batch(qs)[:, :3, 3],
            "fold_us": lambda: vectorized.end_positions_batch(qs),
            "scalar_us": lambda: scalar.end_positions_batch(qs),
        }, repeats, inner=max(1, 256 // rows))
        print(f"fold_crossover {rows} rows: " + ", ".join(
            f"{name} {us:.0f}" for name, us in crossover[rows].items()
        ))
    grids = {}
    for problems in GRID_PROBLEMS:
        grid = _grid(scalar, problems, SERVED_SPECULATIONS, seed + problems)
        block = grid.candidates()
        grids[problems] = _microseconds({
            "explicit_us": lambda: vectorized.end_positions_batch(block),
            "grid_us": lambda: vectorized.end_positions_batch(grid),
        }, repeats, inner=10)
        print(f"ray_grid_served {problems} x {SERVED_SPECULATIONS}: " + ", ".join(
            f"{name} {us:.0f}" for name, us in grids[problems].items()
        ))
    return {"fold_crossover": crossover, "ray_grid_served": grids}


def _frame_pass_sizes(scalar, vectorized, repeats: int, seed: int) -> dict:
    """The ``frame_pass_sizes`` table: ``fk_jacobian_batch`` per kernel."""
    table = {}
    for rows in FRAME_PASS_ROWS:
        qs = _candidates(scalar, rows, seed + rows)
        table[rows] = _microseconds({
            "vectorized_us": lambda: vectorized.fk_jacobian_batch(qs),
            "scalar_us": lambda: scalar.fk_jacobian_batch(qs),
        }, repeats, inner=max(1, 64 // rows))
        table[rows]["max_abs_deviation"] = _frame_pass_deviation(
            scalar, vectorized, qs
        )
        print(f"frame_pass_sizes {rows} rows: " + ", ".join(
            f"{name} {value:.3g}" for name, value in table[rows].items()
        ))
    return table


def _frame_pass_deviation(scalar, vectorized, qs: np.ndarray) -> float:
    """Largest deviation of the vectorized frame pass (positions and
    Jacobians) from the oracle's."""
    return float(max(
        np.abs(fast - oracle).max()
        for fast, oracle in zip(
            vectorized.fk_jacobian_batch(qs), scalar.fk_jacobian_batch(qs)
        )
    ))


def _candidates(chain, rows: int, seed: int) -> np.ndarray:
    """A ``(rows, dof)`` block of candidate configurations (seeded)."""
    rng = np.random.default_rng(seed)
    return np.stack([chain.random_configuration(rng) for _ in range(rows)])


def _grid(chain, problems: int, count: int, seed: int) -> SpeculationGrid:
    """``problems`` seeded rays of ``count`` candidates each, with a full
    step (``alpha_base`` times the direction) of about 0.05 rad a joint."""
    rng = np.random.default_rng(seed)
    return SpeculationGrid(
        _candidates(chain, problems, seed),
        rng.normal(size=(problems, chain.dof)),
        rng.uniform(0.02, 0.08, size=problems),
        count,
    )


def run_kernel_bench(
    dof: int = 50,
    speculations: int = 32,
    batch: int = 64,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2017,
) -> dict:
    """Time every section under both kernels; returns the JSON payload."""
    scalar = paper_chain(dof)
    vectorized = scalar.with_kernel("vectorized")

    single = _candidates(scalar, speculations, seed)
    lockstep = _candidates(scalar, batch * speculations, seed + 1)
    served = _candidates(scalar, SERVED_PROBLEMS * SERVED_SPECULATIONS, seed + 5)
    rays = _grid(scalar, SERVED_PROBLEMS, SERVED_SPECULATIONS, seed + 6)
    frame_rows = _candidates(scalar, SERVED_FRAME_ROWS, seed + 7)
    q = single[0]
    jac_rows = _candidates(scalar, batch, seed + 2)

    sections = {}

    def section(name, scalar_fn, vectorized_fn, deviation, inner):
        scalar_s = _best_of(scalar_fn, repeats, inner)
        vectorized_s = _best_of(vectorized_fn, repeats, inner)
        sections[name] = {
            "scalar_us": scalar_s * 1e6,
            "vectorized_us": vectorized_s * 1e6,
            "speedup": scalar_s / vectorized_s,
            "max_abs_deviation": float(deviation),
        }
        print(
            f"{name}: {scalar_s * 1e6:.1f} us -> {vectorized_s * 1e6:.1f} us "
            f"({sections[name]['speedup']:.2f}x, "
            f"dev {deviation:.1e})"
        )

    section(
        "candidate_sweep_lockstep",
        lambda: scalar.end_positions_batch(lockstep),
        lambda: vectorized.end_positions_batch(lockstep),
        np.abs(
            vectorized.end_positions_batch(lockstep)
            - scalar.end_positions_batch(lockstep)
        ).max(),
        inner=3,
    )
    section(
        "candidate_sweep_served",
        lambda: scalar.end_positions_batch(served),
        lambda: vectorized.end_positions_batch(served),
        np.abs(
            vectorized.end_positions_batch(served)
            - scalar.end_positions_batch(served)
        ).max(),
        inner=10,
    )
    section(
        "ray_sweep_served",
        lambda: scalar.end_positions_batch(rays),
        lambda: vectorized.end_positions_batch(rays),
        np.abs(
            vectorized.end_positions_batch(rays)
            - scalar.end_positions_batch(rays)
        ).max(),
        inner=10,
    )
    section(
        "frame_pass_served",
        lambda: scalar.fk_jacobian_batch(frame_rows),
        lambda: vectorized.fk_jacobian_batch(frame_rows),
        _frame_pass_deviation(scalar, vectorized, frame_rows),
        inner=20,
    )
    section(
        "candidate_sweep_single",
        lambda: scalar.end_positions_batch(single),
        lambda: vectorized.end_positions_batch(single),
        np.abs(
            vectorized.end_positions_batch(single)
            - scalar.end_positions_batch(single)
        ).max(),
        inner=20,
    )
    def jacobian_single_vectorized():
        # Invalidate first: the prefix cache would otherwise make repeated
        # same-q timing calls free, which the driver loop (new q every
        # iteration) never sees.
        vectorized.kernels.invalidate()
        return vectorized.jacobian_position(q)

    section(
        "jacobian_single",
        lambda: scalar.jacobian_position(q),
        jacobian_single_vectorized,
        np.abs(
            vectorized.jacobian_position(q) - scalar.jacobian_position(q)
        ).max(),
        inner=20,
    )
    section(
        "jacobian_batch",
        lambda: scalar.jacobian_position_batch(jac_rows),
        lambda: vectorized.jacobian_position_batch(jac_rows),
        np.abs(
            vectorized.jacobian_position_batch(jac_rows)
            - scalar.jacobian_position_batch(jac_rows)
        ).max(),
        inner=10,
    )

    # -- kernel matrix: the headline lock-step sweep across mode x dtype --
    # Reference cost and oracle values are scalar/float64; float32 rows
    # record their deviation from that oracle (the documented ~1e-7 m
    # single-precision FK bound, see docs/performance.md).
    oracle = scalar.end_positions_batch(lockstep)
    scalar_f64_s = sections["candidate_sweep_lockstep"]["scalar_us"] / 1e6
    kernel_matrix = {}
    for mode in ("scalar", "vectorized"):
        for dtype in ("float64", "float32"):
            spec = KernelSpec(name=mode, dtype=dtype)
            chain = spec.apply(scalar)
            rows = lockstep.astype(chain.dtype, copy=False)
            seconds = _best_of(
                lambda: chain.end_positions_batch(rows), repeats, inner=3
            )
            kernel_matrix[spec.label] = {
                "us": seconds * 1e6,
                "speedup_vs_scalar_float64": scalar_f64_s / seconds,
                "max_abs_deviation_vs_oracle": float(
                    np.abs(
                        chain.end_positions_batch(rows).astype(np.float64)
                        - oracle
                    ).max()
                ),
            }
            print(
                f"kernel_matrix {spec.label}: {seconds * 1e6:.1f} us "
                f"({kernel_matrix[spec.label]['speedup_vs_scalar_float64']:.2f}x"
                f" vs scalar/float64)"
            )

    # -- engine matrix: full lock-step Quick-IK solves per dtype --
    # Engine solves are ~0.3 s each, so best-of can afford more repeats
    # than the microbenchmark sections — the single noisy container CPU
    # otherwise dominates the dtype delta.
    engine = _engine_bench(
        dof=dof, batch=batch, speculations=speculations,
        repeats=max(5, repeats), seed=seed,
    )

    sweep_sizes = _sweep_sizes(scalar, vectorized, repeats, seed + 8)
    frame_pass_sizes = _frame_pass_sizes(scalar, vectorized, repeats, seed + 9)

    headline = sections["candidate_sweep_lockstep"]["speedup"]
    return {
        "benchmark": "kernel-speedup",
        "dof": dof,
        "speculations": speculations,
        "batch": batch,
        "lockstep_rows": batch * speculations,
        "repeats": repeats,
        "seed": seed,
        "headline_speedup": headline,
        "engine_headline_speedup": engine["headline_speedup"],
        "sections": sections,
        "kernel_matrix": kernel_matrix,
        "engine": engine,
        "sweep_sizes": sweep_sizes,
        "frame_pass_sizes": frame_pass_sizes,
        "notes": (
            "best-of-repeats timings on the speculative-evaluation shapes of "
            "Quick-IK; candidate_sweep_lockstep (all B x Max rows of one "
            "lock-step iteration in one stacked call) is the >= 2x "
            "acceptance microbenchmark. max_abs_deviation is vectorized vs "
            "the scalar oracle (conformance bound: 1e-12). kernel_matrix "
            "sweeps the same sweep across kernel mode x dtype; engine times "
            "full lock-step Quick-IK batch solves per dtype "
            "(engine_headline_speedup: float32 vs the vectorized float64 "
            "engine)."
        ),
    }


def _engine_bench(
    dof: int,
    batch: int,
    speculations: int,
    repeats: int,
    seed: int,
    max_iterations: int = ENGINE_MAX_ITERATIONS,
) -> dict:
    """Time full lock-step Quick-IK batch solves per dtype.

    Both cases solve the identical seeded target set from identical q0
    draws, so iteration counts are comparable across dtypes.
    """
    base = paper_chain(dof)
    rng = np.random.default_rng(seed + 3)
    targets = np.stack([
        base.end_position(base.random_configuration(rng))
        for _ in range(batch)
    ])
    config = SolverConfig(tolerance=1e-2, max_iterations=max_iterations)

    cases = {}
    for dtype in ("float64", "float32"):
        spec = KernelSpec(name="vectorized", dtype=dtype)
        engine = BatchedQuickIK(
            spec.apply(base), speculations=speculations, config=config,
        )

        def run(engine=engine):
            return engine.solve_batch(
                targets, rng=np.random.default_rng(seed + 4)
            )

        seconds = _best_of(run, repeats, inner=1)
        result = run()
        label = spec.label
        cases[label] = {
            "seconds": seconds,
            "per_solve_ms": seconds / batch * 1e3,
            "converged": int(np.sum([r.converged for r in result])),
            "mean_iterations": float(np.mean([r.iterations for r in result])),
            "mean_error": float(np.mean([r.error for r in result])),
        }
        print(
            f"engine {label}: {seconds * 1e3:.1f} ms "
            f"({cases[label]['converged']}/{batch} converged, "
            f"{cases[label]['mean_iterations']:.1f} mean iters)"
        )

    baseline = cases["vectorized/float64"]["seconds"]
    combined = cases["vectorized/float32"]["seconds"]
    return {
        "workload": {
            "dof": dof,
            "batch": batch,
            "speculations": speculations,
            "tolerance": 1e-2,
            "max_iterations": max_iterations,
        },
        "cases": cases,
        "headline_speedup": baseline / combined,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dof", type=int, default=50)
    parser.add_argument("--speculations", type=int, default=32)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--out", default="BENCH_kernels.json")
    args = parser.parse_args(argv)

    payload = run_kernel_bench(
        dof=args.dof,
        speculations=args.speculations,
        batch=args.batch,
        repeats=args.repeats,
        seed=args.seed,
    )
    Path(args.out).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {args.out} (kernel headline {payload['headline_speedup']:.2f}x,"
        f" engine headline {payload['engine_headline_speedup']:.2f}x)"
    )
    worst = max(
        s["max_abs_deviation"]
        for table in (payload["sections"], payload["frame_pass_sizes"])
        for s in table.values()
    )
    return 1 if worst > 1e-12 else 0


def test_kernel_bench_smoke():
    """Miniature run: payload shape is right and accuracy holds everywhere."""
    payload = run_kernel_bench(dof=12, speculations=4, batch=4, repeats=1)
    assert payload["benchmark"] == "kernel-speedup"
    assert set(payload["sections"]) == {
        "candidate_sweep_lockstep",
        "candidate_sweep_served",
        "ray_sweep_served",
        "frame_pass_served",
        "candidate_sweep_single",
        "jacobian_single",
        "jacobian_batch",
    }
    for section in payload["sections"].values():
        assert section["max_abs_deviation"] <= 1e-12
        assert section["scalar_us"] > 0.0 and section["vectorized_us"] > 0.0
    # The mode x dtype matrix: float64 rows match the oracle bit-for-bit
    # territory (1e-12); float32 rows stay within the single-precision
    # FK bound documented in docs/performance.md.
    assert set(payload["kernel_matrix"]) == {
        "scalar/float64", "vectorized/float64",
        "scalar/float32", "vectorized/float32",
    }
    for label, row in payload["kernel_matrix"].items():
        bound = 1e-12 if label.endswith("float64") else 1e-4
        assert row["max_abs_deviation_vs_oracle"] <= bound, label
        assert row["us"] > 0.0
    assert set(payload["sweep_sizes"]["fold_crossover"]) == set(CROSSOVER_ROWS)
    assert set(payload["sweep_sizes"]["ray_grid_served"]) == set(GRID_PROBLEMS)
    assert set(payload["frame_pass_sizes"]) == set(FRAME_PASS_ROWS)
    for rows, cell in payload["frame_pass_sizes"].items():
        assert set(cell) == {"vectorized_us", "scalar_us", "max_abs_deviation"}
        assert cell["vectorized_us"] > 0.0 and cell["scalar_us"] > 0.0, rows
        assert cell["max_abs_deviation"] <= 1e-12, rows
    # The engine matrix: every dtype case solved the batch.
    cases = payload["engine"]["cases"]
    assert set(cases) == {"vectorized/float64", "vectorized/float32"}
    batch = payload["engine"]["workload"]["batch"]
    for label, case in cases.items():
        assert case["seconds"] > 0.0, label
        assert case["converged"] == batch, label


if __name__ == "__main__":
    raise SystemExit(main())
