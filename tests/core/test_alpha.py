"""Tests for the Buss step size (Eq. 8) and speculation schedules (Eq. 9)."""

import numpy as np
import pytest

from repro.core.alpha import (
    FALLBACK_ALPHA,
    SCHEDULE_NAMES,
    buss_alpha,
    buss_alpha_rows,
    extended_schedule,
    geometric_schedule,
    get_schedule,
    linear_schedule,
    single_schedule,
)
from repro.core.rows import row_dot


class TestBussAlpha:
    def test_matches_equation_8(self, rng):
        error = rng.normal(size=3)
        jjte = error + 0.1 * rng.normal(size=3)
        expected = float(error @ jjte) / float(jjte @ jjte)
        if expected > 0:
            assert np.isclose(buss_alpha(error, jjte), expected)

    def test_identity_case_gives_one(self):
        error = np.array([0.3, -0.2, 0.5])
        assert np.isclose(buss_alpha(error, error), 1.0)

    def test_zero_denominator_falls_back(self):
        assert buss_alpha(np.array([1.0, 0, 0]), np.zeros(3)) == FALLBACK_ALPHA

    def test_negative_alpha_falls_back(self):
        error = np.array([1.0, 0.0, 0.0])
        jjte = np.array([-1.0, 0.0, 0.0])  # e . JJ^T e < 0
        assert buss_alpha(error, jjte) == FALLBACK_ALPHA

    def test_linearised_optimality(self, rng):
        """Eq. 8 minimises ||e - alpha JJ^T e|| over alpha (the linearised
        post-step error)."""
        error = rng.normal(size=3)
        jjte = rng.normal(size=3)
        if float(error @ jjte) <= 0:
            jjte = -jjte
        alpha = buss_alpha(error, jjte)
        best = np.linalg.norm(error - alpha * jjte)
        for perturbed in (alpha * 0.9, alpha * 1.1):
            assert best <= np.linalg.norm(error - perturbed * jjte) + 1e-12


def _reference_alpha_rows(error, jjte):
    """Eq. 8 with every fallback case tested on its own: a denominator
    that is not positive, a ratio that is not finite, and one that is not
    positive."""
    denominator = np.asarray(row_dot(jjte, jjte), dtype=float)
    numerator = np.asarray(row_dot(error, jjte), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = numerator / denominator
    bad = (denominator <= 0.0) | ~np.isfinite(alpha) | (alpha <= 0.0)
    return np.where(bad, FALLBACK_ALPHA, alpha)


class TestBussAlphaRows:
    def test_matches_reference_on_degenerate_rows(self, rng):
        """Zero, negative, non-finite and overflowing numerators, and
        zero, subnormal, non-finite and overflowing denominators, give the
        reference's value bit for bit (the fallback or the ratio)."""
        tiny, huge = 1e-170, 1e170
        unit = np.array([1.0, 0.0, 0.0])
        rows = [
            (unit, np.zeros(3)),  # 0 / 0
            (np.zeros(3), unit),  # zero numerator
            (unit, -unit),  # negative numerator
            (unit, unit * tiny),  # denominator underflows to zero
            (unit * huge, unit * tiny),  # overflowing ratio
            (unit * huge, unit * huge),  # overflowing numerator and denominator
            (unit, unit * huge),  # overflowing denominator, ratio 0
            (unit * 1e-300, unit * 1e-160),  # subnormal denominator, 0 numerator
            (np.array([np.inf, 0.0, 0.0]), unit),  # infinite numerator
            (unit, np.array([np.inf, 0.0, 0.0])),  # infinite denominator
            (np.array([np.nan, 0.0, 0.0]), unit),  # NaN numerator
            (unit, np.array([np.nan, 1.0, 0.0])),  # NaN denominator
            (-unit * huge, unit * huge),  # negative overflow
            (np.array([0.3, -0.2, 0.5]), np.array([0.2, 0.1, 0.4])),  # ordinary
        ]
        rows += [(rng.normal(size=3), rng.normal(size=3)) for _ in range(64)]
        error = np.array([e for e, _ in rows])
        jjte = np.array([j for _, j in rows])
        with np.errstate(all="ignore"):
            got = buss_alpha_rows(error, jjte)
            expected = _reference_alpha_rows(error, jjte)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert got[0] == got[1] == got[2] == got[3] == got[4] == FALLBACK_ALPHA
        # float32 rows: the dots in float32, the ratio in float64.
        with np.errstate(all="ignore"):
            error32, jjte32 = error.astype(np.float32), jjte.astype(np.float32)
            got32 = buss_alpha_rows(error32, jjte32)
            expected32 = _reference_alpha_rows(error32, jjte32)
        assert np.array_equal(got32.view(np.uint64), expected32.view(np.uint64))


class TestLinearSchedule:
    def test_matches_equation_9(self):
        alphas = linear_schedule(2.0, 4)
        assert np.allclose(alphas, [0.5, 1.0, 1.5, 2.0])

    def test_last_candidate_is_alpha_base(self):
        assert linear_schedule(0.37, 64)[-1] == pytest.approx(0.37)

    def test_smallest_is_base_over_max(self):
        assert linear_schedule(1.0, 64)[0] == pytest.approx(1.0 / 64)

    def test_count_one_gives_base(self):
        assert np.allclose(linear_schedule(0.5, 1), [0.5])

    def test_monotone_increasing(self):
        alphas = linear_schedule(1.0, 32)
        assert np.all(np.diff(alphas) > 0)

    def test_nested_grids(self):
        """Eq. 9 with Max=16 is a subset of Max=64 (k/16 = 4k/64)."""
        small = linear_schedule(1.0, 16)
        large = linear_schedule(1.0, 64)
        assert np.allclose(small, large[3::4])

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            linear_schedule(1.0, 0)


class TestOtherSchedules:
    def test_geometric_tops_out_at_base(self):
        alphas = geometric_schedule(2.0, 8)
        assert alphas[-1] == pytest.approx(2.0)
        assert np.all(np.diff(alphas) > 0)

    def test_geometric_ratio_spacing(self):
        alphas = geometric_schedule(1.0, 5, ratio=0.5)
        assert np.allclose(alphas[:-1] / alphas[1:], 0.5)

    def test_geometric_invalid_ratio(self):
        with pytest.raises(ValueError):
            geometric_schedule(1.0, 4, ratio=1.5)

    def test_extended_reaches_twice_base(self):
        alphas = extended_schedule(1.0, 10)
        assert alphas[-1] == pytest.approx(2.0)

    def test_single_ignores_count(self):
        assert np.allclose(single_schedule(0.7, 64), [0.7])

    def test_all_schedules_positive_for_positive_base(self):
        for name in SCHEDULE_NAMES:
            alphas = get_schedule(name)(0.5, 16)
            assert np.all(alphas > 0)


class TestRegistry:
    def test_get_schedule_known(self):
        assert get_schedule("linear") is linear_schedule

    def test_get_schedule_unknown(self):
        with pytest.raises(KeyError):
            get_schedule("fibonacci")

    def test_names_sorted_and_complete(self):
        assert "linear" in SCHEDULE_NAMES
        assert tuple(sorted(SCHEDULE_NAMES)) == SCHEDULE_NAMES
