"""Repository benchmark: two deterministic 50-DOF inverse-kinematics workloads.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; the last line
of standard output is one JSON object with the metrics.  ``perfbench/
steady.py`` repeats runs over several seeds and checks their spread
against the bounds in ``BENCHMARK.json``.
"""
