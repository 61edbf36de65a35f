"""Parameter Selector — argmin reduction over the speculative errors.

Section 5.1: "The unit just selects the theta_o with minimum error error_o
from multiple speculations ... Due to the mismatch between the speculations
in software and hardware, the Parameter Selector needs to store and compare
the last result at each schedule, but the overhead is negligible."

Modelled as a binary comparator tree over the SSU array (depth ``ceil(log2
MaxSSUs)``) plus one extra compare per wave against the stored running best.
This is the unit's cost model.  Its rule — the lowest ``k`` within the
threshold (Algorithm 1 lines 12-13, which also ends the solve), else the
argmin — is :func:`~repro.core.quick_ik.speculate`'s.
"""

from __future__ import annotations

import math

from repro.ikacc.config import IKAccConfig

__all__ = ["ParameterSelector"]


class ParameterSelector:
    """Cycle-level model of the selector tree."""

    def __init__(self, config: IKAccConfig) -> None:
        self.config = config

    def cycles_per_wave(self, occupancy: int) -> int:
        """Comparator-tree latency for one wave of ``occupancy`` results,
        plus the compare against the stored previous-wave best."""
        if occupancy < 1:
            raise ValueError("occupancy must be >= 1")
        depth = math.ceil(math.log2(occupancy)) if occupancy > 1 else 0
        return (depth + 1) * self.config.timing.compare
