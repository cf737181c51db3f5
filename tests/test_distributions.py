"""Accuracy of the self-contained t and normal CDFs."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from boxmetrics.distributions import (
    normal_two_sided_p,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)
from oracles import normal_cdf, student_t_cdf, t_two_sided_p_quadrature

DFS = (1.0, 2.0, 3.7, 8.0, 30.0, 219.0)
TS = (0.0, 0.37, -0.5, 1.632993161855452, -2.0, 3.0, -5.5, 10.0, -25.0)


@pytest.mark.parametrize("df", DFS)
@pytest.mark.parametrize("t", TS)
def test_t_cdf_matches_scipy(df, t):
    assert student_t_cdf(t, df) == pytest.approx(scipy_stats.t.cdf(t, df), abs=1e-12)


@pytest.mark.parametrize("df", DFS)
@pytest.mark.parametrize("t", (0.5, 1.63, 2.31, 4.0))
def test_t_two_sided_matches_quadrature(df, t):
    assert student_t_two_sided_p(t, df) == pytest.approx(
        t_two_sided_p_quadrature(t, df), abs=1e-10
    )


def test_t_two_sided_edges():
    assert student_t_two_sided_p(0.0, 8.0) == 1.0
    assert student_t_two_sided_p(math.inf, 8.0) == 0.0
    assert student_t_two_sided_p(1e6, 4.0) < 1e-20
    with pytest.raises(ValueError):
        student_t_two_sided_p(1.0, 0.0)


def test_incomplete_beta_bounds():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


@pytest.mark.parametrize("x", (0.05, 0.2, 0.5, 0.8, 0.95))
@pytest.mark.parametrize("a,b", ((0.5, 0.5), (2.0, 5.0), (40.0, 0.5), (109.5, 0.5)))
def test_incomplete_beta_matches_scipy(a, b, x):
    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
        scipy_stats.beta.cdf(x, a, b), abs=1e-12
    )


@given(t=st.floats(min_value=-40.0, max_value=40.0), df=st.floats(min_value=0.5, max_value=500.0))
def test_t_cdf_symmetry(t, df):
    assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("z", (-6.0, -1.96, -0.3, 0.0, 0.3, 1.96, 6.0))
def test_normal_cdf_matches_scipy(z):
    assert normal_cdf(z) == pytest.approx(scipy_stats.norm.cdf(z), abs=1e-14)
    assert normal_two_sided_p(z) == pytest.approx(
        2.0 * scipy_stats.norm.sf(abs(z)), abs=1e-14
    )


def test_normal_two_sided_edges():
    assert normal_two_sided_p(0.0) == 1.0
    assert normal_two_sided_p(math.inf) == 0.0
