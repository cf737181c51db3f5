"""Descriptive statistics, the regularity index, correlations and inference.

Regularity is the inverse coefficient of variation: mean divided by the
sample standard deviation (divisor n-1). A high value means the player's
per-game numbers cluster tightly around their mean. Regularity only makes
sense as a comparison between players with similar means, which is what
:func:`comparable_means` checks.

All functions are pure and operate on plain sequences of floats (or on
:class:`~boxmetrics.model.MetricSeries`, whose values they read).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class SeriesSummary:
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


def mean(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamplesError("mean of an empty sequence")
    return left_sum(values) / len(values)


def _squared_deviations(values: Sequence[float]) -> tuple[float, float]:
    """(mean, sum of squared deviations from the mean) of ``values``."""
    center = mean(values)
    return center, left_sum((v - center) ** 2 for v in values)


def sample_sd(values: Sequence[float]) -> float:
    """Standard deviation with divisor n-1 (requires n >= 2)."""
    if len(values) < 2:
        raise TooFewSamplesError("sample standard deviation requires n >= 2")
    return math.sqrt(_squared_deviations(values)[1] / (len(values) - 1))


def summarize(series: MetricSeries | Sequence[float]) -> SeriesSummary:
    """Summary statistics plus the regularity index for one series."""
    values = tuple(series.values if isinstance(series, MetricSeries) else series)
    if not values:
        raise TooFewSamplesError("cannot summarize an empty series")
    n = len(values)
    center, spread = _squared_deviations(values)
    # Equal values have no spread even when their mean rounds: 21 copies of
    # 222 * 835.765 give a computed sample sd near 6e-11.
    equal = all(v == values[0] for v in values)
    sd = None if n < 2 else 0.0 if equal else math.sqrt(spread / (n - 1))
    constant = equal or sd == 0.0
    return SeriesSummary(
        n=n,
        mean=center,
        sd_sample=sd,
        sd_population=0.0 if equal else math.sqrt(spread / n),
        regularity=None if constant else center / sd,
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
    mx = mean(x)
    my = mean(y)
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    ssx = left_sum(d * d for d in dx)
    ssy = left_sum(d * d for d in dy)
    if ssx == 0.0 or ssy == 0.0:
        raise ConstantInputError("pearson undefined for a constant input")
    r = left_sum(a * b for a, b in zip(dx, dy)) / math.sqrt(ssx * ssy)
    return max(-1.0, min(1.0, r))


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b (tie corrected), clamped into [-1, 1].

    Knight's (1966) O(n log n) count: sort the pairs by (x, y), then every
    discordant pair is one inversion of the y order, counted by a merge
    sort. The pair counts are exact integers, so tau is the same float the
    pair-by-pair count gives.
    """
    _check_paired(x, y)
    n = len(x)
    pairs = sorted(zip(x, y))
    tied_x = _tied_pairs([p[0] for p in pairs])
    tied_xy = _tied_pairs(pairs)
    ys, discordant = _sort_counting_inversions([p[1] for p in pairs])
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


def _sort_counting_inversions(values: list[float]) -> tuple[list[float], int]:
    """``values`` sorted, and the number of pairs i < j with values[i] > values[j]."""
    if len(values) < 2:
        return values, 0
    mid = len(values) // 2
    left, inversions_left = _sort_counting_inversions(values[:mid])
    right, inversions_right = _sort_counting_inversions(values[mid:])
    inversions = inversions_left + inversions_right
    merged: list[float] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            # right[j] is smaller than every left value not yet merged.
            inversions += len(left) - i
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged += left[i:]
    merged += right[j:]
    return merged, inversions


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with tied values sharing the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        shared = (start + stop) / 2.0 + 1.0
        for k in range(start, stop + 1):
            ranks[order[k]] = shared
        start = stop + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson over mid-ranks."""
    _check_paired(x, y)
    return pearson(midranks(x), midranks(y))


@dataclass(frozen=True)
class CorrelationTest:
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
    mean_a, spread_a = _squared_deviations(a)
    mean_b, spread_b = _squared_deviations(b)
    var_a = spread_a / (n_a - 1)
    var_b = spread_b / (n_b - 1)
    se_sq = var_a / n_a + var_b / n_b
    if se_sq == 0.0:
        diff = mean_a - mean_b
        if diff == 0.0:
            t_stat, p, degenerate = 0.0, 1.0, False
        else:
            t_stat = math.inf if diff > 0 else -math.inf
            p, degenerate = 0.0, True
    else:
        t_stat = (mean_a - mean_b) / math.sqrt(se_sq)
        df = se_sq * se_sq / (
            (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
        )
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
