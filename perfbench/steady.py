"""Check that the benchmark is steady: spreads, set agreement, exact work.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 10 --sets 2

runs ``perfbench/run.py`` once per (set, seed, workload), untraced, with
``run_seconds`` from ``BENCHMARK.json``.  Workloads are interleaved within
each seed so that every workload samples the same host drift.  For every
end-to-end metric of every workload it prints, per set, the median and the
spread: the distance between the first and third quartile of the
per-seed values as a share of their median.  It fails when

* a spread exceeds the metric's bound;
* the median of a later set is worse than the first set's by more than
  the bound;
* two passes of one run, or two runs of one seed, did different work
  (``solvers.iterations`` or ``solvers.fk_evaluations`` of a pass differ),
  which means the work depends on timing rather than on the seed.

Spreads above a third of the bound are flagged as ``thin``.  It also
prints the range of ``host.ref_ms`` over the runs, a diagnostic that gates
nothing: a set run in a slower host phase shows there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]


def _run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    info = next(
        json.loads(line[len("info "):]) for line in lines if line.startswith("info ")
    )
    return {"result": result, "info": info}


def _worse(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    if metric["better"] == "lower":
        return later / first - 1.0
    return 1.0 - later / first


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(CHECKOUT))
    from perfbench.measure import spread

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="at least 2")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", help="write every run's output here (JSON)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to measure a spread")

    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for set_index in range(args.sets):
        for w in workloads:
            runs[w].append([])
        for seed in seeds:
            for w in workloads:
                run = _run(bench["command"], w, seed, seconds)
                runs[w][set_index].append(run)
                values = {
                    k: round(v["value"], 4)
                    for k, v in run["result"]["metrics"].items()
                }
                print(f"set {set_index} seed {seed} {w}: {values}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))

    failures = []
    for w in workloads:
        print(f"\n{w}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, set_runs in enumerate(runs[w]):
                values = [r["result"]["metrics"][name]["value"] for r in set_runs]
                median, width = statistics.median(values), spread(values)
                medians.append(median)
                flag = "ok"
                if width > bound:
                    flag = "FAIL"
                    failures.append(f"{w} {name} set {set_index} spread {width:.3f}")
                elif width > bound / 3:
                    flag = "thin"
                print(
                    f"  {name:<16} set {set_index}: median {median:12.5g}  "
                    f"spread {width:6.3f}  bound {bound}  {flag}"
                )
            for set_index, later in enumerate(medians[1:], start=1):
                drift = _worse(metric, medians[0], later)
                if drift > bound:
                    failures.append(
                        f"{w} {name} set {set_index} median worse by {drift:.3f}"
                    )
        for i, seed in enumerate(seeds):
            if not all(s[i]["info"]["passes_repeat_work"] for s in runs[w]):
                failures.append(f"{w} seed {seed}: passes did different work")
            work = {
                (r["info"]["solvers.iterations"], r["info"]["solvers.fk_evaluations"])
                for r in (set_runs[i] for set_runs in runs[w])
            }
            if len(work) > 1:
                failures.append(f"{w} seed {seed} did different work: {sorted(work)}")
        refs = [r["info"]["host.ref_ms"] for set_runs in runs[w] for r in set_runs]
        print(
            f"  host.ref_ms median {statistics.median(refs):.3f}, range "
            f"{min(refs):.3f}-{max(refs):.3f} (not gated)"
        )
    print()
    for failure in failures:
        print("FAIL", failure)
    print("steady" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
