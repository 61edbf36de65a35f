"""The percentile helper's sample rule and the spread helper."""

import statistics

import pytest

from perfbench.measure import (
    CALIBRATION_MS,
    MIN_BEYOND,
    calibration_ms,
    host_factor,
    percentile,
    spread,
)


def test_percentile_needs_ten_samples_beyond():
    # p90 of n samples has n - ceil(0.9 n) samples beyond it.
    assert percentile(range(99), 90) is None  # 9 beyond
    p90 = percentile(range(100), 90)
    assert p90 is not None
    assert (p90.n, p90.beyond, p90.value) == (100, 10, 89)
    assert percentile(range(19), 50) is None  # 9 beyond
    assert percentile(range(20), 50).beyond == MIN_BEYOND


def test_percentile_reports_its_sample_count():
    p50 = percentile([5.0, 1.0, 3.0] * 10, 50)
    assert p50.value == 3.0
    assert p50.describe() == "p50 of n=30, 15 beyond"


def test_percentile_rejects_out_of_range_p_and_empty_input():
    with pytest.raises(ValueError):
        percentile([1.0], 100)
    assert percentile([], 50) is None


def test_spread_is_interquartile_range_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 12.0, 8.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_host_factor_is_median_calibration_over_nominal():
    samples = [CALIBRATION_MS, 3 * CALIBRATION_MS, 2 * CALIBRATION_MS]
    assert host_factor(samples) == pytest.approx(2.0)
    assert calibration_ms() > 0
