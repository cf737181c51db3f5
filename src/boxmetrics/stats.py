"""Descriptive statistics, the regularity index, correlations and inference.

Regularity is the inverse coefficient of variation: mean divided by the
sample standard deviation (divisor n-1). A high value means the player's
per-game numbers cluster tightly around their mean. Regularity only makes
sense as a comparison between players with similar means, which is what
:func:`comparable_means` checks.

All functions are pure and operate on plain sequences of floats (or on
:class:`~boxmetrics.model.MetricSeries`, whose values they read).

Every spread is one computation, :func:`_squared_deviations`, on each sample
over the power of two of its largest magnitude, with squares as products.
So a power-of-two scale of the values, 2**-1000 included, scales means and
sds exactly, and leaves regularity, r and Welch's t, df and p as they are.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right, insort
from itertools import groupby, repeat
from math import frexp, ldexp
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .distributions import normal_two_sided_p, student_t_two_sided_p
from .model import MetricSeries, SplitComparison

CORRELATION_KINDS = ("pearson", "kendall", "spearman")
COMPARABILITY_TOLERANCE = 0.25


class LengthMismatchError(ValueError):
    """Paired inputs have different lengths."""


class ConstantInputError(ValueError):
    """A correlation input has zero variance."""


class TooFewSamplesError(ValueError):
    """Not enough observations for the requested procedure."""


class SeriesSummary(NamedTuple):
    """Descriptive summary of one series.

    ``sd_sample`` uses divisor n-1 and is None for n = 1. ``regularity`` is
    mean / sd_sample; for a constant series (all values equal, n = 1
    included, or a spread that rounds to sd_sample = 0) it is None and
    ``constant_series`` is set instead of dividing by zero.
    """

    n: int
    mean: float
    sd_sample: float | None
    sd_population: float
    regularity: float | None
    constant_series: bool


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from int 0.

    That is what the builtin ``sum()`` does up to Python 3.11. From 3.12 on
    ``sum()`` compensates float rounding (Neumaier), which changes the last
    digits of some sums, so every float sum behind a report goes through
    here and a report has the same bytes on every supported Python.
    """
    total = 0
    for value in values:
        total += value
    return total


def _in_range(value: float, what: str, e: int = 0) -> float:
    """``value`` * 2**e, a result of finite inputs; an overflow is a ValueError naming ``what``."""
    if not math.isfinite(value) or value and frexp(value)[1] + e > sys.float_info.max_exp:
        raise ValueError(f"{what} is out of the float range")
    return ldexp(value, e)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamplesError("mean of an empty sequence")
    return _in_range(left_sum(values), f"the sum of {len(values)} values") / len(values)


def _squared_deviations(
    values: Sequence[float], what: str = "the sum of {} squared deviations"
) -> tuple[float, int, list[float], float]:
    """(mean, k, deviations from it over 2**k, the sum of their squares) of ``values``, k
    the ``frexp`` exponent of their largest magnitude. Equal values have their value as
    mean and no spread, though the mean of 21 copies of 222 * 835.765 rounds. An unscaled
    sum out of the float range is a ValueError naming ``what`` (given len(values))."""
    center = mean(values)
    if all(v == values[0] for v in values):
        center = values[0]
    k = frexp(max(map(abs, values)))[1]
    scaled = ldexp(center, -k)
    deviations = [v - scaled for v in map(ldexp, values, repeat(-k))]
    spread = left_sum(map(mul, deviations, deviations))
    _in_range(spread, what.format(len(values)), 2 * k)
    return center, k, deviations, spread


def summarize(series: MetricSeries | Sequence[float]) -> SeriesSummary:
    """Summary statistics plus the regularity index for one series."""
    values = tuple(series.values if isinstance(series, MetricSeries) else series)
    n = len(values)
    center, k, _, spread = _squared_deviations(values)
    sd = None if n < 2 else math.sqrt(spread / (n - 1))
    constant = spread == 0.0
    return SeriesSummary(
        n=n,
        mean=center,
        sd_sample=sd and ldexp(sd, k),
        sd_population=ldexp(math.sqrt(spread / n), k),
        regularity=None if constant else ldexp(center, -k) / sd,
        constant_series=constant,
    )


def comparable_means(
    summary_a: SeriesSummary, summary_b: SeriesSummary, tolerance: float = COMPARABILITY_TOLERANCE
) -> bool:
    """Whether two means are close enough for a regularity comparison.

    True iff |mean_a - mean_b| <= tolerance * max(|mean_a|, |mean_b|).
    Regularity rankings across players failing this check should carry a
    warning annotation.
    """
    gap = abs(summary_a.mean - summary_b.mean)
    return gap <= tolerance * max(abs(summary_a.mean), abs(summary_b.mean))


def _check_paired(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise LengthMismatchError(f"paired inputs differ in length: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise TooFewSamplesError(f"correlation requires n >= 3, got {len(x)}")


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped into [-1, 1]."""
    _check_paired(x, y)
    what = "the product of pearson's sums of squares"
    _, _, dx, ssx = _squared_deviations(x, what)
    _, _, dy, ssy = _squared_deviations(y, what)
    if ssx == 0.0 or ssy == 0.0:
        raise ConstantInputError("pearson undefined for a constant input")
    r = left_sum(map(mul, dx, dy)) / math.sqrt(ssx * ssy)
    return max(-1.0, min(1.0, r))


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b (tie corrected), clamped into [-1, 1].

    Knight's (1966) count: sort the pairs by (x, y), then every discordant
    pair is one inversion of the y order. Each y is counted against the
    greater ys before it by bisection into a sorted list, whose inserts move
    O(n^2) pointers in all but run at C speed. The pair counts are exact
    integers, so tau is the same float the pair-by-pair count gives.
    """
    _check_paired(x, y)
    n = len(x)
    pairs = sorted(zip(x, y))
    tied_x = _tied_pairs([p[0] for p in pairs])
    tied_xy = _tied_pairs(pairs)
    ys: list[float] = []
    discordant = 0
    for _, value in pairs:
        discordant += len(ys) - bisect_right(ys, value)
        insort(ys, value)
    tied_y = _tied_pairs(ys)
    total_pairs = n * (n - 1) // 2
    denom_x = total_pairs - tied_x
    denom_y = total_pairs - tied_y
    if denom_x == 0 or denom_y == 0:
        raise ConstantInputError("kendall tau undefined for a constant input")
    concordant = total_pairs - tied_x - tied_y + tied_xy - discordant
    tau = (concordant - discordant) / math.sqrt(denom_x * denom_y)
    return max(-1.0, min(1.0, tau))


def _tied_pairs(ordered: Sequence) -> int:
    """Pairs of equal items in a sorted sequence."""
    total = 0
    for _, run in groupby(ordered):
        t = len(list(run))
        total += t * (t - 1) // 2
    return total


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with tied values sharing the average of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks, start = [0.0] * len(values), 0
    for _, run in groupby(order, key=values.__getitem__):
        run = list(run)
        for i in run:
            ranks[i] = (2 * start + len(run) - 1) / 2.0 + 1.0
        start += len(run)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson over mid-ranks."""
    _check_paired(x, y)
    return pearson(midranks(x), midranks(y))


class CorrelationTest(NamedTuple):
    """Two-sided test of zero correlation."""

    kind: str
    r: float
    n: int
    statistic: float
    p_value: float
    significant: bool
    alpha: float
    exact: bool = False


def correlation_significance(
    r: float, n: int, kind: str, alpha: float = 0.05
) -> CorrelationTest:
    """Two-sided significance of a correlation coefficient against zero.

    pearson/spearman: t = r * sqrt((n-2) / (1-r^2)) with n-2 degrees of
    freedom. kendall: normal approximation
    z = 3*tau*sqrt(n*(n-1)) / sqrt(2*(2n+5)). |r| = 1 is reported as p = 0
    with the ``exact`` flag set rather than dividing by zero.
    """
    if kind not in CORRELATION_KINDS:
        raise ValueError(f"kind must be one of {', '.join(CORRELATION_KINDS)}, got {kind!r}")
    if n < 4:
        raise TooFewSamplesError(f"significance test requires n >= 4, got {n}")
    if abs(r) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r}")
    if abs(r) == 1.0:
        statistic = math.inf if r > 0 else -math.inf
        return CorrelationTest(kind, r, n, statistic, 0.0, 0.0 < alpha, alpha, exact=True)
    if kind == "kendall":
        z = 3.0 * r * math.sqrt(n * (n - 1.0)) / math.sqrt(2.0 * (2.0 * n + 5.0))
        p = normal_two_sided_p(z)
        return CorrelationTest(kind, r, n, z, p, p < alpha, alpha)
    t = r * math.sqrt((n - 2.0) / (1.0 - r * r))
    p = student_t_two_sided_p(t, n - 2.0)
    return CorrelationTest(kind, r, n, t, p, p < alpha, alpha)


def welch_test(
    a: Sequence[float],
    b: Sequence[float],
    alpha: float = 0.05,
    *,
    metric_name: str = "value",
    group_a_label: str = "a",
    group_b_label: str = "b",
) -> SplitComparison:
    """Two-sided Welch two-sample test (unequal variances).

    Degrees of freedom by Welch-Satterthwaite. Identical groups give t = 0,
    p = 1. Two constant groups with different means have no spread to test
    against: reported as p = 0 with the ``degenerate`` flag.
    """
    if len(a) < 2 or len(b) < 2:
        raise TooFewSamplesError(
            f"welch test requires n >= 2 per group, got {len(a)} and {len(b)}"
        )
    n_a, n_b = len(a), len(b)
    mean_a, k_a, _, spread_a = _squared_deviations(a)
    mean_b, k_b, _, spread_b = _squared_deviations(b)
    diff = mean_a - mean_b
    if not (spread_a or spread_b):
        if diff == 0.0:
            t_stat, p, degenerate = 0.0, 1.0, False
        else:
            t_stat = math.inf if diff > 0 else -math.inf
            p, degenerate = 0.0, True
    else:
        # Each variance term is over 2**(2k) of its own group. Over 2**j, j
        # even, the larger is in [1/4, 1): no square underflows but a
        # negligible one, and the root of 2**j is 2**(j/2).
        terms = ((spread_a / (n_a - 1) / n_a, 2 * k_a), (spread_b / (n_b - 1) / n_b, 2 * k_b))
        j = max(e + frexp(w)[1] for w, e in terms if w)
        j += j % 2
        w_a, w_b = (ldexp(w, e - j) for w, e in terms)
        se_sq = w_a + w_b
        t_stat = _in_range(diff / math.sqrt(se_sq), "welch's t statistic", -j // 2)
        df = se_sq * se_sq / (w_a * w_a / (n_a - 1) + w_b * w_b / (n_b - 1))
        p = student_t_two_sided_p(t_stat, df)
        degenerate = False
    return SplitComparison(
        metric_name=metric_name,
        group_a_label=group_a_label,
        group_b_label=group_b_label,
        n_a=n_a,
        n_b=n_b,
        mean_a=mean_a,
        mean_b=mean_b,
        t_stat=t_stat,
        p_value=p,
        significant=p < alpha,
        alpha=alpha,
        degenerate=degenerate,
    )
