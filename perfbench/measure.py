"""Measurement helpers: percentiles with a sample rule, host calibration.

A timing is reported as its median plus the named percentile, each with its
sample count.  A percentile is reported only when at least
:data:`MIN_BEYOND` samples lie beyond it; with fewer, the tail value would be
one or two samples and would not repeat.

The host's speed swings by 30-55 % in phases of seconds to minutes, set by
other tenants of the machine.  :func:`calibration_ms` times a fixed kernel
that does not touch the program under test; run between the units of work,
it measures the host's speed in the same seconds, and
:func:`host_factor` turns that into the factor by which the host was
slower than :data:`CALIBRATION_MS`.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "Percentile",
    "percentile",
    "spread",
    "CALIBRATION_MS",
    "calibration_ms",
    "host_factor",
    "peak_rss_mb",
]

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Median time of :func:`calibration_ms` on a 2-core x86 host in its fast
#: phase; calibrated timings are what that host would show.
CALIBRATION_MS = 0.30

#: The calibration kernel's data: 50 rows of 3, like one configuration's
#: joint positions.
_KERNEL_DATA = np.linspace(-1.0, 1.0, 150).reshape(50, 3)


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with its sample counts."""

    p: float
    value: float
    n: int
    beyond: int

    def describe(self) -> str:
        return f"p{self.p:g} of n={self.n}, {self.beyond} beyond"


def percentile(samples, p: float) -> Percentile | None:
    """Nearest-rank ``p``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0 < p < 100:
        raise ValueError("p must be in (0, 100)")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return Percentile(p=p, value=ordered[rank - 1], n=n, beyond=beyond)


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibration_ms() -> float:
    """Wall time of one run of a fixed kernel, in milliseconds.

    Interpreted Python and small numpy operations, the mix the workloads
    run, in about equal parts; nothing in it depends on the program under
    test.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(15):
        x = np.cumsum(_KERNEL_DATA, axis=0)
        acc += np.linalg.norm(x[-1]) + (_KERNEL_DATA @ _KERNEL_DATA.T[:, :3]).sum()
    return (time.perf_counter() - start) * 1e3


def host_factor(samples) -> float:
    """How many times slower than :data:`CALIBRATION_MS` the host ran the
    calibration kernel (median of ``samples``)."""
    return statistics.median(samples) / CALIBRATION_MS


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
