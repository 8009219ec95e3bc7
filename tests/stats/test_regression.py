"""Linear regression and trend detection."""

from __future__ import annotations

import random

import pytest

from repro.stats.regression import detect_trend, linear_regression


class TestLinearRegression:
    def test_exact_line(self):
        fit = linear_regression([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(21.0)

    def test_constant_series_has_no_trend_evidence(self):
        fit = linear_regression([0, 1, 2, 3], [5.0, 5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.p_value == 1.0

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            linear_regression([0, 1], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_regression([0, 1, 2], [1.0, 2.0])

    def test_identical_x_values(self):
        with pytest.raises(ValueError):
            linear_regression([1, 1, 1], [1.0, 2.0, 3.0])


class TestDetectTrend:
    def test_detects_steady_upward_trend(self):
        series = [100.0 * (1.01**i) for i in range(30)]
        trend = detect_trend(series)
        assert trend is not None
        assert trend.direction == 1
        assert trend.relative_slope == pytest.approx(0.01, rel=0.2)

    def test_detects_steady_downward_trend(self):
        series = [100.0 * (0.99**i) for i in range(30)]
        trend = detect_trend(series)
        assert trend is not None and trend.direction == -1

    def test_flat_noisy_series_not_flagged(self):
        rng = random.Random(3)
        series = [100.0 * (1 + rng.uniform(-0.05, 0.05)) for _ in range(40)]
        assert detect_trend(series) is None

    def test_tiny_slope_below_threshold(self):
        series = [100.0 + 0.01 * i for i in range(30)]
        assert detect_trend(series, slope_threshold=0.004) is None

    def test_noisy_trend_still_detected(self):
        rng = random.Random(3)
        series = [
            100.0 * (1.012**i) * (1 + rng.uniform(-0.03, 0.03)) for i in range(40)
        ]
        trend = detect_trend(series)
        assert trend is not None and trend.direction == 1

    def test_short_series_returns_none(self):
        assert detect_trend([1.0, 2.0]) is None

    def test_nonpositive_mean_returns_none(self):
        assert detect_trend([-1.0, -2.0, -3.0, -4.0]) is None
