"""Numerical CDFs for the inference layer.

Self-contained double-precision implementations: the regularized incomplete
beta function via the Lentz continued-fraction evaluation (drives Student's
t), and the normal two-sided tail via erfc. Accuracy is well inside 1e-10 over the
ranges used for significance testing; no lookup tables anywhere.
"""

from __future__ import annotations

import math
import sys

_MAX_ITERATIONS = 300
_EPSILON = 1e-16
_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme: one
    half-step per partial numerator, tested for convergence after each pair."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    # c starts infinite, so the first half-step leaves it at 1.0 and sets h = d.
    c, d, h = math.inf, 1.0, 1.0
    for step in range(2 * _MAX_ITERATIONS + 1):
        m = (step + 1) // 2
        m2 = 2 * m
        if step == 0:
            aa = -qab * x / qap
        elif step % 2:
            aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        else:
            aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if step and not step % 2 and abs(delta - 1.0) < _EPSILON:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the fraction on the side where it converges fast, mirror otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    Via I_x(df/2, 1/2) at x = df / (df + t^2); exact 1.0 at t = 0.
    """
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    if x >= sys.float_info.min:
        return regularized_incomplete_beta(df / 2.0, 0.5, x)
    # x is no normal float (t * t may overflow): I_x(a, 1/2) is its leading
    # term x**a / (a * B(a, 1/2)) to double precision, in logs on the scale of t.
    a = df / 2.0
    log_x = math.log(df) - 2.0 * math.log(abs(t))
    return math.exp(math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5) + a * log_x) / a


def normal_two_sided_p(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal; exact 1.0 at z = 0."""
    if math.isinf(z):
        return 0.0
    return math.erfc(abs(z) / math.sqrt(2.0))
