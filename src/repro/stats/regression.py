"""Linear regression and trend detection.

The last two columns of the paper's Table 3 count sites "for which a
linear regression revealed a steady upward (downward) trend in
performance" — non-stationary sites whose average is meaningless.
``detect_trend`` regresses performance on round index and reports a
trend when the slope is both statistically significant and practically
large (relative to the series mean).

The fit is scipy's ``linregress`` formula written out inline on
``scipy.special``: the same covariance, the same clipping of r and the
same ``TINY`` term, so every field is bit-identical to
``scipy.stats.linregress`` without importing ``scipy.stats`` or paying
for its input-validation wrapper on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

#: keeps the t statistic finite when |r| == 1 (scipy's ``linregress`` term)
TINY = 1.0e-20


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares fit of y on x."""

    slope: float
    intercept: float
    r_value: float
    p_value: float
    stderr: float

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


def linear_regression(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """OLS fit; requires at least three points and matching lengths."""
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if len(x) < 3:
        raise ValueError("need at least three points to regress")
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    x_max = np.amax(xs)
    if np.isnan(x_max) or np.isnan(np.amax(ys)):
        # linregress turns any NaN input into an all-NaN result
        return LinearFit(math.nan, math.nan, 0.0, 1.0, 0.0)
    if x_max == np.amin(xs):
        raise ValueError("cannot regress if all x values are identical")
    df = len(xs) - 2
    ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
    slope = ssxym / ssxm
    intercept = np.mean(ys) - slope * np.mean(xs)
    t = r * np.sqrt(df / ((1.0 - r + TINY) * (1.0 + r + TINY)))
    p_value = float(2 * special.stdtr(df, -np.abs(t)))
    stderr = float(np.sqrt((1 - r**2) * ssym / ssxm / df))
    if math.isnan(p_value):  # constant input -> no evidence of a trend
        p_value = 1.0
    return LinearFit(
        slope=float(slope),
        intercept=float(intercept),
        r_value=float(r) if not math.isnan(r) else 0.0,
        p_value=p_value,
        stderr=stderr if not math.isnan(stderr) else 0.0,
    )


@dataclass(frozen=True)
class TrendDetection:
    """A detected steady trend in a performance series."""

    direction: int  # +1 up, -1 down
    relative_slope: float  # per-round slope as a fraction of the mean
    p_value: float


def detect_trend(
    values: Sequence[float],
    slope_threshold: float = 0.004,
    p_value_threshold: float = 0.01,
) -> TrendDetection | None:
    """Detect a steady per-round trend in ``values``.

    The slope is normalised by the series mean so the threshold is a
    relative drift per round (e.g. 0.004 = 0.4%/round).
    """
    if len(values) < 3:
        return None
    series_mean = sum(values) / len(values)
    if series_mean <= 0:
        return None
    fit = linear_regression(list(range(len(values))), list(values))
    relative_slope = fit.slope / series_mean
    if abs(relative_slope) < slope_threshold or fit.p_value > p_value_threshold:
        return None
    return TrendDetection(
        direction=1 if relative_slope > 0 else -1,
        relative_slope=relative_slope,
        p_value=fit.p_value,
    )
