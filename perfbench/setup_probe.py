"""Time one workload set-up in a fresh interpreter.

``python3 perfbench/setup_probe.py --workload <name> --seed <n>`` imports
numpy, then times ``import repro`` plus the workload's set-up up to the
return of its first untimed operation, and prints the seconds as its last
line.  ``run.py`` starts it several times per run, between timed units.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before the clock starts)

CHECKOUT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    from perfbench.workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    start = time.perf_counter()
    import repro  # noqa: F401

    workload.setup()
    elapsed = time.perf_counter() - start
    workload.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
