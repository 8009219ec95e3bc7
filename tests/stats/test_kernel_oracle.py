"""The OLS and Student-t kernel against its ``scipy.stats`` oracle.

``repro.stats`` computes the regression and the t quantiles on
``scipy.special`` alone; ``scipy.stats`` is imported here, in tests
only, as the reference.  Every comparison is exact ``==`` (NaN equal to
NaN): the steady-trend ``p_value``s end up in digest-sealed observer
reports, so a last-bit drift is a failure.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.stats.intervals import t_critical
from repro.stats.regression import linear_regression

CONFIDENCES = (0.8, 0.9, 0.95, 0.98, 0.99)


def _oracle(x, y) -> tuple[float, float, float, float, float]:
    """``linregress`` with the NaN handling ``linear_regression`` promises:
    p becomes 1.0, r and stderr become 0.0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = scipy_stats.linregress(x, y)
    p_value = float(result.pvalue)
    r_value = float(result.rvalue)
    stderr = float(result.stderr)
    return (
        float(result.slope),
        float(result.intercept),
        0.0 if math.isnan(r_value) else r_value,
        1.0 if math.isnan(p_value) else p_value,
        0.0 if math.isnan(stderr) else stderr,
    )


def _fields(x, y) -> tuple[float, float, float, float, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = linear_regression(x, y)
    return (fit.slope, fit.intercept, fit.r_value, fit.p_value, fit.stderr)


def _same(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


def _values(allow_nan: bool):
    finite = st.floats(min_value=-1e6, max_value=1e6) | st.integers(-1000, 1000)
    return finite | st.just(math.nan) if allow_nan else finite


@st.composite
def _series(draw):
    n = draw(st.integers(min_value=3, max_value=60))
    shape = draw(st.sampled_from(["rounds", "free", "line", "two_level"]))
    if shape == "rounds":
        x = list(range(n))
    else:
        x = draw(st.lists(_values(allow_nan=True), min_size=n, max_size=n))
    if shape == "line":
        a = draw(st.floats(min_value=-100, max_value=100))
        b = draw(st.floats(min_value=-1e4, max_value=1e4))
        y = [a * float(v) + b for v in x]
    elif shape == "two_level":
        levels = draw(st.lists(_values(allow_nan=False), min_size=2, max_size=2))
        y = [levels[i] for i in draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n)
        )]
    else:
        y = draw(st.lists(_values(allow_nan=True), min_size=n, max_size=n))
    return x, y


def _rounds(y: list[float]) -> tuple[list[int], list[float]]:
    return list(range(len(y))), y


class TestLinearRegressionOracle:
    @given(_series())
    @example(_rounds([5.0] * 12))  # constant: p, r, stderr NaN in scipy
    @example(_rounds([0.1] * 7))  # constant whose mean is inexact
    @example(_rounds([1.0, 3.0] * 6))
    @example(_rounds([2.0 * i + 1.0 for i in range(12)]))  # r == 1: TINY term
    @example(_rounds([-0.7 * i + 3.3 for i in range(9)]))  # r < -1 is clipped
    @example(_rounds([100.0 * (1.01**i) for i in range(30)]))
    @example(_rounds([1.0, math.nan, 3.0, 4.0]))
    @example(([1, 1, 1], [math.nan, 1.0, 2.0]))  # NaN wins over identical x
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_linregress(self, series):
        x, y = series
        try:
            want = _oracle(x, y)
        except ValueError:
            with pytest.raises(ValueError):
                linear_regression(x, y)
            return
        got = _fields(x, y)
        for name, g, w in zip(
            ("slope", "intercept", "r_value", "p_value", "stderr"), got, want
        ):
            assert _same(g, w), f"{name}: {g!r} != {w!r}"


class TestTCriticalOracle:
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_bit_identical_to_t_ppf(self, confidence):
        mismatches = [
            dof
            for dof in range(1, 500)
            if t_critical(confidence, dof)
            != float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
        ]
        assert mismatches == []
