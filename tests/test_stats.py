"""Regularity, comparability, correlations and the Welch test."""

from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxmetrics import (
    MetricSeries,
    comparable_means,
    correlation_significance,
    kendall_tau,
    pearson,
    spearman,
    summarize,
    welch_test,
)
from boxmetrics.stats import (
    ConstantInputError,
    LengthMismatchError,
    TooFewSamplesError,
    left_sum,
    midranks,
)
from boxmetrics.distributions import student_t_two_sided_p
from oracles import (
    direct_pearson,
    naive_kendall_tau,
    pair_count_kendall,
    positional_midranks,
    t_two_sided_p_one_df,
    t_two_sided_p_quadrature,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(st.floats() | st.integers(-(2**60), 2**60)))
@example([0.1, 0.2, 0.3])
@example([-0.0])
@example([1e16, 1.0, -1e16])
def test_left_sum_is_a_plain_left_to_right_loop(values):
    total = 0
    for value in values:
        total = total + value
    got = left_sum(values)
    assert type(got) is type(total)
    assert (got.hex() if isinstance(got, float) else got) == (
        total.hex() if isinstance(total, float) else total
    )


# --- summarize / regularity --------------------------------------------------

def test_regularity_reference_pairs():
    assert summarize([2, 2, 2, 2, 2, 3]).regularity == pytest.approx(5.307, abs=1e-3)
    assert summarize([10, 21, 19, 20, 9, 22]).regularity == pytest.approx(2.914, abs=1e-3)


def test_regularity_uses_sample_deviation():
    summary = summarize([2, 2, 2, 2, 2, 3])
    assert summary.sd_sample == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)
    assert summary.sd_population < summary.sd_sample
    assert summary.regularity == pytest.approx(summary.mean / summary.sd_sample, rel=1e-15)


def test_constant_series_flagged_not_divided():
    summary = summarize([7, 7, 7])
    assert summary.constant_series
    assert summary.regularity is None
    assert summary.mean == 7.0
    assert summary.sd_sample == 0.0


def test_single_value_series_is_degenerate():
    summary = summarize([4.2])
    assert summary.n == 1
    assert summary.constant_series
    assert summary.sd_sample is None
    assert summary.regularity is None


def test_summarize_accepts_metric_series():
    series = MetricSeries("p1", "points", (10.0, 21.0, 19.0, 20.0, 9.0, 22.0),
                          ("a", "b", "c", "d", "e", "f"))
    assert summarize(series).regularity == pytest.approx(2.914, abs=1e-3)


@given(
    values=st.lists(st.integers(1, 500).map(float), min_size=2, max_size=30),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
@example(values=[222.0] * 21, scale=835.765)
def test_regularity_scale_invariant(values, scale):
    base = summarize(values)
    scaled = summarize([scale * v for v in values])
    if base.constant_series:
        assert scaled.constant_series
    else:
        assert scaled.regularity == pytest.approx(base.regularity, rel=1e-12)


@given(values=st.lists(st.integers(-100, 100).map(float), min_size=2, max_size=25))
def test_population_sd_never_exceeds_sample_sd(values):
    summary = summarize(values)
    assert summary.sd_population <= summary.sd_sample + 1e-12


def test_regularity_not_translation_invariant():
    base = summarize([1.0, 2.0, 3.0])
    shifted = summarize([11.0, 12.0, 13.0])
    assert base.regularity == pytest.approx(2.0, rel=1e-12)
    assert shifted.regularity == pytest.approx(12.0, rel=1e-12)
    assert shifted.regularity != base.regularity


def test_comparable_means():
    small = summarize([2.166, 2.166])
    big = summarize([16.833, 16.833])
    assert not comparable_means(small, big, 0.25)
    assert comparable_means(small, small, 0.25)
    ten = summarize([10.0, 10.0])
    eleven = summarize([11.0, 11.0])
    assert comparable_means(ten, eleven, 0.25)


# --- correlations ------------------------------------------------------------

def test_pearson_exact_endpoints():
    assert pearson([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert pearson([1, 2, 3, 4], [-1, -2, -3, -4]) == -1.0


def test_pearson_frozen_example():
    # direct formula on paper: covariance 8, both sums of squares 10
    assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8, rel=1e-15)
    assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(
        direct_pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]), rel=1e-14
    )


def test_pearson_errors():
    with pytest.raises(ConstantInputError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(LengthMismatchError):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(TooFewSamplesError):
        pearson([1, 2], [1, 2])


@given(
    xs=st.lists(st.integers(-50, 50), min_size=4, max_size=20),
    a=st.floats(min_value=0.1, max_value=10.0),
    b=st.floats(min_value=-20.0, max_value=20.0),
)
def test_pearson_positive_affine_invariance(xs, a, b):
    ys = [((-1) ** i) * x + i for i, x in enumerate(xs)]  # deterministic partner
    try:
        base = pearson(xs, ys)
    except ConstantInputError:
        return
    transformed = pearson([a * x + b for x in xs], ys)
    assert transformed == pytest.approx(base, abs=1e-12)


def test_kendall_exact_endpoints():
    assert kendall_tau([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]) == 1.0
    assert kendall_tau([1, 2, 3, 4, 5], [50, 40, 30, 20, 10]) == -1.0


def test_kendall_frozen_examples():
    assert kendall_tau([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == 0.6
    # tie-corrected value checked by pair enumeration: 5 / sqrt(5 * 6)
    assert kendall_tau([1, 1, 2, 3], [1, 2, 3, 4]) == pytest.approx(
        5.0 / math.sqrt(30.0), rel=1e-15
    )


def test_kendall_constant_input():
    with pytest.raises(ConstantInputError):
        kendall_tau([3, 3, 3], [1, 2, 3])


# Few distinct values, so most pairs tie; -0.0 and 0.0 are equal.
few_values = st.integers(-6, 6) | st.sampled_from([-0.0, 0.0])


@st.composite
def lists_of_pairs(draw, values, fresh=st.just(0.0), max_size: int = 400):
    """3 to ``max_size`` (x, y) pairs. Each coordinate is one of a pool of at
    most 12 ``values``, so most pairs tie, or with a drawn probability
    ``fresh`` a new float. Coordinates come from a drawn seed: drawing each
    from a strategy takes most of a second for 400 pairs."""
    n = draw(st.integers(3, max_size))
    pool = draw(st.lists(values, min_size=1, max_size=12))
    share = draw(fresh)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def coordinate():
        return rng.uniform(-1e6, 1e6) if rng.random() < share else rng.choice(pool)

    return [(coordinate(), coordinate()) for _ in range(n)]


@given(pairs=lists_of_pairs(few_values))
def test_kendall_equals_pair_count_oracle(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    try:
        ours = kendall_tau(xs, ys)
    except ConstantInputError:
        return
    assert ours == pair_count_kendall(xs, ys)


heavy_ties = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 1e300, -1e300])


@settings(max_examples=150)
@given(
    pairs=lists_of_pairs(st.one_of(heavy_ties, finite_floats), st.sampled_from([0.0, 0.5, 1.0]))
)
def test_kendall_equals_quadratic_loop(pairs):
    # Knight's count by bisection and the O(n^2) loop give the same float.
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    try:
        expected = naive_kendall_tau(xs, ys)
    except ConstantInputError:
        with pytest.raises(ConstantInputError):
            kendall_tau(xs, ys)
        return
    assert kendall_tau(xs, ys) == expected


def test_midranks_average_positions():
    assert midranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert midranks([5, 5, 5]) == [2.0, 2.0, 2.0]


@given(xs=st.lists(st.integers(-30, 30), min_size=3, max_size=15))
def test_midranks_match_positional_oracle(xs):
    assert midranks(xs) == positional_midranks(xs)


def test_spearman_rank_invariance_and_reversal():
    x = [1.0, 2.5, 4.0, 8.0, 16.0]
    y = [v ** 3 for v in x]  # strictly increasing transform
    assert spearman(x, y) == 1.0
    assert spearman(x, list(reversed(x))) == -1.0


def test_spearman_tied_example_equals_rank_then_pearson():
    x = [1, 2, 2, 3, 4, 4]
    y = [3, 1, 4, 4, 2, 5]
    assert spearman(x, y) == pytest.approx(
        pearson(positional_midranks(x), positional_midranks(y)), abs=1e-12
    )


@given(
    xs=st.lists(st.integers(-20, 20), min_size=4, max_size=15),
    ys=st.lists(st.integers(-20, 20), min_size=4, max_size=15),
)
def test_correlations_bounded(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    for fn in (pearson, kendall_tau, spearman):
        try:
            value = fn(xs, ys)
        except ConstantInputError:
            continue
        assert -1.0 <= value <= 1.0


@given(xs=st.lists(st.integers(-20, 20), min_size=4, max_size=12, unique=True))
def test_rank_correlations_invariant_under_monotone_transform(xs):
    ys = [((-1) ** i) * x for i, x in enumerate(xs)]
    transformed = [x ** 3 for x in xs]
    try:
        assert kendall_tau(xs, ys) == kendall_tau(transformed, ys)
        assert spearman(xs, ys) == spearman(transformed, ys)
    except ConstantInputError:
        return


# --- significance ------------------------------------------------------------

def test_correlation_significance_null_is_one():
    test = correlation_significance(0.0, 25, "pearson")
    assert test.p_value == 1.0
    assert not test.significant


def test_correlation_significance_league_scale():
    test = correlation_significance(0.752, 221, "pearson", 0.05)
    assert test.significant
    assert test.p_value < 1e-6
    assert test.statistic == pytest.approx(16.8829, abs=1e-4)


def test_correlation_significance_desk_scale_matches_quadrature():
    test = correlation_significance(0.5, 10, "pearson")
    t = 0.5 * math.sqrt(8.0 / 0.75)
    assert test.statistic == pytest.approx(t, rel=1e-15)
    assert test.p_value == pytest.approx(t_two_sided_p_quadrature(t, 8.0), abs=1e-10)
    assert test.p_value == pytest.approx(0.14111328125, abs=1e-10)
    assert not test.significant


def test_correlation_significance_kendall_normal_approx():
    tau, n = 0.514, 221
    test = correlation_significance(tau, n, "kendall", 0.05)
    z = 3.0 * tau * math.sqrt(n * (n - 1.0)) / math.sqrt(2.0 * (2.0 * n + 5.0))
    assert test.statistic == pytest.approx(z, rel=1e-15)
    assert test.significant
    assert test.p_value == pytest.approx(math.erfc(abs(z) / math.sqrt(2.0)), rel=1e-12)


def test_correlation_significance_degenerate_and_errors():
    test = correlation_significance(1.0, 12, "spearman")
    assert test.p_value == 0.0 and test.exact and test.significant
    with pytest.raises(TooFewSamplesError):
        correlation_significance(0.5, 3, "pearson")
    with pytest.raises(ValueError):
        correlation_significance(1.2, 10, "pearson")
    with pytest.raises(ValueError):
        correlation_significance(0.5, 10, "cosine")


# --- welch -------------------------------------------------------------------

def test_welch_identical_groups():
    result = welch_test([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert result.t_stat == 0.0
    assert result.p_value == 1.0
    assert not result.significant


def test_welch_separated_groups():
    result = welch_test([1, 2, 3, 4], [11, 12, 13, 14], 0.05)
    assert result.t_stat == pytest.approx(-10.954451150103322, rel=1e-12)
    # df = 6 by Welch-Satterthwaite; cross-checked against quadrature
    assert result.p_value == pytest.approx(t_two_sided_p_quadrature(result.t_stat, 6.0), abs=1e-10)
    assert result.p_value == pytest.approx(3.4364028076e-05, rel=1e-6)
    assert result.significant


def test_welch_swap_symmetry():
    a = [0.4, 0.5, 0.55, 0.62, 0.47]
    b = [0.52, 0.61, 0.58, 0.66]
    forward = welch_test(a, b)
    backward = welch_test(b, a)
    assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)
    assert forward.t_stat == pytest.approx(-backward.t_stat, abs=1e-12)


@given(
    scale=st.floats(min_value=0.01, max_value=100.0),
    shift=st.floats(min_value=-50.0, max_value=50.0),
)
def test_welch_affine_invariance(scale, shift):
    a = [0.4, 0.5, 0.55, 0.62, 0.47, 0.51]
    b = [0.52, 0.61, 0.58, 0.66, 0.49]
    base = welch_test(a, b)
    moved = welch_test([scale * v + shift for v in a], [scale * v + shift for v in b])
    assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)


@pytest.mark.parametrize("scale", [3e78, 1e100, 1e-85])
def test_welch_test_at_any_scale_is_the_unscaled_one(scale):
    # At 3e78 each squared variance term fits a float but se_sq squared does
    # not; at 1e100 the squares overflow, and at 1e-85 they underflow to 0.
    a = [0.4, 0.5, 0.55, 0.62, 0.47, 0.51]
    b = [0.52, 0.61, 0.58, 0.66, 0.49]
    base = welch_test(a, b)
    scaled = welch_test([scale * v for v in a], [scale * v for v in b])
    assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-9)
    assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)


decimals = st.integers(-10**6, 10**6).map(lambda i: i / 1000)


def _pearson_or_error(x: list[float], y: list[float]) -> float | type:
    try:
        return pearson(x, y)
    except ConstantInputError as exc:
        return type(exc)


def _highest_scale(sample: list[float], summary) -> int:
    """The largest j for which the sum of ``sample`` * 2**j and, for a spread, the sum
    of its squared deviations fit a float."""
    n_bits = len(sample).bit_length()
    j = sys.float_info.max_exp - n_bits - max(math.frexp(v)[1] for v in sample)
    if summary.sd_population:
        j = min(j, (sys.float_info.max_exp - n_bits) // 2 - math.frexp(summary.sd_population)[1] - 1)
    return j


@settings(max_examples=200)
@given(pairs=st.lists(st.tuples(decimals, decimals), min_size=3, max_size=20),
       flat=st.sampled_from(["", "x", "y", "xy"]), j=st.integers(-1100, 1100))
@example(pairs=[(1.5, 2.0), (2.25, 2.5), (3.0, 4.0)], flat="", j=-1000)
@example(pairs=[(1.5, 2.0), (2.25, 2.5), (3.0, 4.0)], flat="x", j=1000)
def test_statistics_under_a_power_of_two_scale_are_exact(pairs, flat, j):
    # Multiplying by 2**j is exact wherever every value, mean and sd stays a
    # normal float, so j is raised to the lowest such power: about -1000 for
    # these values, where the squares of their deviations are subnormal. It
    # is lowered to where the sums still fit: about 2**500 for a spread, and
    # about 2**1000 for a constant sample, which has none.
    xs, ys = map(list, zip(*pairs))
    xs, ys = ([v[0]] * len(v) if name in flat else v for name, v in (("x", xs), ("y", ys)))
    summaries = [summarize(xs), summarize(ys)]
    kept = [*xs, *ys, *(s.mean for s in summaries), *(s.sd_sample for s in summaries)]
    j = max(j, sys.float_info.min_exp - min((math.frexp(v)[1] for v in kept if v), default=0))
    j = min(j, *(_highest_scale(v, s) for v, s in zip((xs, ys), summaries)))
    x2, y2 = ([math.ldexp(v, j) for v in sample] for sample in (xs, ys))
    for base, scaled in zip(summaries, (summarize(x2), summarize(y2))):
        assert scaled.mean == math.ldexp(base.mean, j)
        assert scaled.sd_sample == math.ldexp(base.sd_sample, j)
        assert scaled.sd_population == math.ldexp(base.sd_population, j)
        assert (scaled.regularity, scaled.constant_series) == (base.regularity, base.constant_series)
    assert _pearson_or_error(x2, y2) == _pearson_or_error(xs, ys)
    base, scaled = welch_test(xs, ys), welch_test(x2, y2)
    assert (scaled.t_stat, scaled.p_value, scaled.degenerate) == (
        base.t_stat, base.p_value, base.degenerate
    )


def test_equal_values_have_no_spread_at_any_scale():
    # The squares of values beyond 2**512 would overflow; equal values have
    # none, also where their mean rounds, as that of 21 copies of v does.
    v = 222 * 835.765
    assert summarize([2.0**600] * 2).constant_series
    assert summarize([v * 2.0**560] * 21).constant_series
    assert summarize([1e200]).sd_sample is None
    for a, b in (([1e200] * 2, [1e200] * 2), ([v] * 21, [v] * 3)):
        same = welch_test(a, b)
        assert (same.t_stat, same.p_value, same.degenerate) == (0.0, 1.0, False)
    for x in ([1e200] * 3, [v] * 21):
        with pytest.raises(ConstantInputError):
            pearson(x, list(range(len(x))))


@pytest.mark.parametrize(
    "a, b, t_stat",
    [
        # The square of the second group's variance term, 2.5e-201, underflows.
        ([1.0, 1.0], [1e-100, 2e-100], 2e100),
        # The second group's deviations are below 1e-162 of the first's values.
        ([1.0, 1.0], [1e-170, 2e-170], 2e170),
        ([2e300, 2e300], [5.0, 7.0], 2e300),
    ],
)
def test_welch_test_of_a_constant_group_beside_a_spread_of_any_magnitude(a, b, t_stat):
    # df is n_b - 1 = 1, so p is that of Student's t with one df.
    result = welch_test(a, b)
    assert result.t_stat == pytest.approx(t_stat, rel=1e-15)
    assert result.p_value == student_t_two_sided_p(result.t_stat, 1.0)
    assert result.p_value == pytest.approx(t_two_sided_p_one_df(t_stat), rel=1e-12, abs=0.0)
    assert not result.degenerate


def test_welch_errors_and_degenerate_cases():
    with pytest.raises(TooFewSamplesError):
        welch_test([1.0], [1.0, 2.0])
    same = welch_test([5.0, 5.0], [5.0, 5.0])
    assert same.p_value == 1.0 and not same.degenerate
    apart = welch_test([5.0, 5.0], [7.0, 7.0])
    assert apart.p_value == 0.0 and apart.degenerate and apart.significant


def test_welch_discriminates_planted_effect():
    rng = random.Random(5000)
    planted_a = [rng.gauss(0.49, 0.05) for _ in range(15)]
    planted_b = [rng.gauss(0.68, 0.05) for _ in range(15)]
    null_a = [rng.gauss(0.49, 0.05) for _ in range(15)]
    null_b = [rng.gauss(0.49, 0.05) for _ in range(15)]
    assert welch_test(planted_a, planted_b, 0.05).significant
    assert not welch_test(null_a, null_b, 0.05).significant
