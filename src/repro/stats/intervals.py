"""Confidence intervals.

The paper's stopping rule appears at two levels: within a round
("downloads repeat until the measured average download time is within 10%
of the mean with 95% confidence") and across rounds (a site is kept only
if the 95% CI of its per-round averages is within 10% of their mean).
Both reduce to a Student-t interval check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from scipy import special

from .descriptive import RunningStats


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (inf for a zero mean)."""
        if self.mean == 0:
            return math.inf
        return self.half_width / abs(self.mean)

    def meets_target(self, relative: float) -> bool:
        """The paper's criterion: CI within ``relative`` of the mean."""
        return self.relative_half_width <= relative


@lru_cache(maxsize=4096)
def t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value (cached; the download loop asks
    for the same few (confidence, dof) pairs millions of times).

    ``stdtrit`` is the inverse Student-t CDF that ``scipy.stats.t.ppf``
    evaluates, so the value is bit-identical without loading
    ``scipy.stats``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if dof < 1:
        raise ValueError("need at least 1 degree of freedom")
    return float(special.stdtrit(dof, 0.5 + confidence / 2.0))


def t_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t CI of the mean of ``values`` (needs n >= 2)."""
    if len(values) < 2:
        raise ValueError("need at least two samples for a confidence interval")
    acc = RunningStats()
    acc.extend(values)
    return interval_from_stats(acc, confidence)


def interval_from_stats(
    acc: RunningStats, confidence: float = 0.95
) -> ConfidenceInterval:
    """CI from a Welford accumulator (the online form of the above)."""
    if acc.n < 2:
        raise ValueError("need at least two samples for a confidence interval")
    half = t_critical(confidence, acc.n - 1) * acc.stderr
    return ConfidenceInterval(
        mean=acc.mean, half_width=half, confidence=confidence, n=acc.n
    )


def within_relative(a: float, b: float, relative: float) -> bool:
    """True if ``a`` is within ``relative`` of ``b`` (the 10% comparisons).

    The paper's comparisons are anchored on IPv4: "IPv6 performance is
    within our 10% confidence interval of IPv4 performance".
    """
    if b == 0:
        return a == 0
    return abs(a - b) / abs(b) <= relative
