"""Tests for the Parameter Selector.

The selector's rule is ``speculate``'s (Algorithm 1 lines 10-16); the merge
tests run it over one problem whose candidate ``k`` lies a chosen distance
from the target.  A wave is ``MaxSSUs`` = 32 consecutive ``k``.
"""

import numpy as np
import pytest

from repro.core.quick_ik import speculate
from repro.ikacc.accelerator import IKAccSimulator
from repro.ikacc.config import IKAccConfig
from repro.ikacc.selector import ParameterSelector
from repro.kinematics.robots import paper_chain
from repro.telemetry.sinks import SummaryTracer
from repro.telemetry.tracer import NULL_TRACER


def _select(errors: dict[int, float], tolerance: float = 1e-2) -> int:
    """The ``k`` (1-based) ``speculate`` keeps among 64 candidates, where
    candidate ``k`` lies ``errors[k]`` from the target (1.0 if unlisted)."""
    distance = np.ones(64)
    for k, error in errors.items():
        distance[k - 1] = error
    block = np.arange(64, dtype=float)[None, :, None]  # candidate k-1 is "q = k-1"

    def fk(qs):
        return np.stack(
            [distance[qs[:, 0].astype(int)], np.zeros(len(qs)), np.zeros(len(qs))],
            axis=1,
        )

    _, _, _, chosen, _ = speculate(fk, block, np.zeros((1, 3)), tolerance, NULL_TRACER)
    return int(chosen[0]) + 1


@pytest.fixture
def selector():
    return ParameterSelector(IKAccConfig())


def _traced_solve(rng):
    chain = paper_chain(12)
    sim = IKAccSimulator(chain)
    tracer = SummaryTracer()
    target = chain.end_position(chain.random_configuration(rng))
    result = sim.solve(target, rng=rng, tracer=tracer)
    assert result.iterations > 0
    return sim, result, tracer.events_of("speculation_wave")


class TestMerge:
    def test_single_wave_argmin(self):
        assert _select({1: 0.5, 2: 0.2, 3: 0.9}) == 2

    def test_best_survives_across_waves(self):
        assert _select({1: 0.5, 2: 0.2, 33: 0.3, 34: 0.4}) == 2

    def test_later_wave_can_win(self):
        assert _select({1: 0.5, 33: 0.1}) == 33

    def test_threshold_hit_beats_argmin(self):
        """Algorithm 1 lines 12-13: a threshold hit returns immediately even
        if another candidate has lower error."""
        assert _select({1: 0.009, 2: 0.001, 3: 0.0005}) == 1  # lowest k among hits

    def test_tie_broken_by_lower_k(self):
        assert _select({3: 0.2, 5: 0.2}) == 3

    def test_waves_merged_counter(self, rng):
        """Every executed wave is merged once, and traced once."""
        _, result, waves = _traced_solve(rng)
        assert len(waves) == result.waves_executed


class TestTiming:
    def test_tree_depth_log2(self, selector):
        compare = IKAccConfig().timing.compare
        assert selector.cycles_per_wave(32) == 6 * compare  # log2(32)+1
        assert selector.cycles_per_wave(1) == 1 * compare
        assert selector.cycles_per_wave(2) == 2 * compare
        assert selector.cycles_per_wave(17) == 6 * compare  # ceil(log2(17))=5, +1

    def test_invalid_occupancy(self, selector):
        with pytest.raises(ValueError):
            selector.cycles_per_wave(0)

    def test_state_accumulates_cycles(self, rng):
        """A solve's selector cycles sum the tree over its executed waves."""
        sim, result, waves = _traced_solve(rng)
        assert result.cycle_breakdown["selector"] == sum(
            sim.selector.cycles_per_wave(wave["occupancy"]) for wave in waves
        )
