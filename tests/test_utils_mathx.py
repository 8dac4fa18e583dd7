"""Tests for metric math helpers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.utils.mathx import (
    geometric_mean,
    harmonic_mean,
    pct_improvement,
    percentile,
    safe_div,
)


class TestHarmonicMean:
    def test_identical_values(self):
        assert harmonic_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        # Hmean(1, 1/3) = 2 / (1 + 3) = 0.5
        assert harmonic_mean([1.0, 1 / 3]) == pytest.approx(0.5)

    def test_zero_dominates(self):
        # The fairness property the paper relies on: starving one thread
        # drives the metric to zero.
        assert harmonic_mean([5.0, 0.0]) == 0.0

    def test_empty(self):
        assert harmonic_mean([]) == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=8))
    def test_property_below_arithmetic_mean(self, vals):
        hm = harmonic_mean(vals)
        am = sum(vals) / len(vals)
        assert hm <= am + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=8))
    def test_property_between_min_and_max(self, vals):
        hm = harmonic_mean(vals)
        assert min(vals) - 1e-9 <= hm <= max(vals) + 1e-9


class TestGeometricMean:
    def test_known(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_zero(self):
        assert geometric_mean([1.0, 0.0]) == 0.0

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=8))
    def test_property_ordering(self, vals):
        # HM <= GM <= AM
        hm = harmonic_mean(vals)
        gm = geometric_mean(vals)
        am = sum(vals) / len(vals)
        assert hm - 1e-9 <= gm <= am + 1e-9


class TestSafeDiv:
    def test_normal(self):
        assert safe_div(6, 3) == 2.0

    def test_zero_denominator(self):
        assert safe_div(6, 0) == 0.0
        assert safe_div(6, 0, default=math.inf) == math.inf


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        vals = [5.0, 1.0, 3.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 5.0

    def test_p95_interpolates(self):
        vals = list(range(1, 101))  # 1..100
        assert percentile(vals, 95) == pytest.approx(95.05)

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_singleton(self):
        assert percentile([7.5], 95) == 7.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_bounded_by_min_max(self, vals):
        for q in (0, 25, 50, 75, 95, 100):
            p = percentile(vals, q)
            assert min(vals) <= p <= max(vals)

    def test_matches_numpy_default(self):
        # Reference values from numpy.percentile's default (linear)
        # interpolation over the same inputs.
        vals = [0.3, 1.7, 2.2, 9.9, 4.1, 0.05]
        expected = {10: 0.175, 50: 1.95, 90: 7.0, 95: 8.45}
        for q, want in expected.items():
            assert percentile(vals, q) == pytest.approx(want)


class TestPctImprovement:
    def test_improvement(self):
        assert pct_improvement(1.2, 1.0) == pytest.approx(20.0)

    def test_slowdown(self):
        assert pct_improvement(0.9, 1.0) == pytest.approx(-10.0)

    def test_zero_base(self):
        assert pct_improvement(1.0, 0.0) == 0.0
