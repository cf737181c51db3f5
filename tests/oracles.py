"""Independent reference implementations used to check the engine.

Everything here is deliberately written as a direct transcription of the
defining formula (literal expressions, explicit pair enumeration, numeric
quadrature) and shares no code with the package under test.
"""

from __future__ import annotations

import math
from typing import Sequence


def naive_lines_for(dataset, player_id: str) -> list:
    """Scan every line of the season, then sort the player's by (date, game_id)."""
    mine = [line for line in dataset.lines if line.player_id == player_id]
    mine.sort(key=lambda ln: (dataset.games[ln.game_id].date, ln.game_id))
    return mine


def naive_player_ids(dataset) -> list[str]:
    return sorted({line.player_id for line in dataset.lines})


def naive_game_count(dataset, player_id: str) -> int:
    return len({ln.game_id for ln in dataset.lines if ln.player_id == player_id})


def naive_filter_min_games(dataset, min_games: int) -> tuple:
    """The lines a min-games filter keeps, counting each player's distinct games."""
    counts: dict[str, set[str]] = {}
    for line in dataset.lines:
        counts.setdefault(line.player_id, set()).add(line.game_id)
    return tuple(
        line for line in dataset.lines if len(counts[line.player_id]) >= min_games
    )


def formula_defensive(line) -> float:
    """rd + tf - fpc + 2*br, written out literally."""
    return line.rd + line.tf - line.fpc + 2 * line.br


def formula_offensive(line) -> float:
    """t2c + t1c + 1.5*t3c - t2f - 2*t1f - t3f + 2*ro + 2*a + 1.5*fpr - 2*bp."""
    return (
        line.t2c
        + line.t1c
        + 1.5 * line.t3c
        - line.t2f
        - 2 * line.t1f
        - line.t3f
        + 2 * line.ro
        + 2 * line.a
        + 1.5 * line.fpr
        - 2 * line.bp
    )


def formula_valoracion(line) -> float:
    points = 2 * line.t2c + 3 * line.t3c + line.t1c
    return (points + line.rd + line.ro + line.a + line.br + line.tf + line.fpr) - (
        line.t2f + line.t3f + line.t1f + line.bp + line.tr + line.fpc
    )


def pair_count_kendall(x: Sequence[float], y: Sequence[float]) -> float:
    """Tau-b by explicit enumeration and classification of every pair."""
    n = len(x)
    concordant = 0
    discordant = 0
    tied_x_pairs = 0
    tied_y_pairs = 0
    for i in range(n):
        for j in range(n):
            if j <= i:
                continue
            if x[i] == x[j] and y[i] == y[j]:
                tied_x_pairs += 1
                tied_y_pairs += 1
            elif x[i] == x[j]:
                tied_x_pairs += 1
            elif y[i] == y[j]:
                tied_y_pairs += 1
            elif (x[i] < x[j] and y[i] < y[j]) or (x[i] > x[j] and y[i] > y[j]):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt(
        (total - tied_x_pairs) * (total - tied_y_pairs)
    )


def positional_midranks(values: Sequence[float]) -> list[float]:
    """Average of 1-based sorted positions taken by each tied value, O(n^2)."""
    ordered = sorted(values)
    ranks = []
    for v in values:
        positions = [i + 1 for i, w in enumerate(ordered) if w == v]
        ranks.append(sum(positions) / len(positions))
    return ranks


def direct_pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(
        sum((b - my) ** 2 for b in y)
    )
    return num / den


def _t_pdf(u: float, df: float) -> float:
    log_c = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_c - ((df + 1.0) / 2.0) * math.log1p(u * u / df))


def _adaptive_simpson(f, a: float, b: float, tol: float, depth: int = 40) -> float:
    c = (a + b) / 2.0
    fa, fb, fc = f(a), f(b), f(c)

    def recurse(a, b, fa, fb, fc, whole, depth):
        c = (a + b) / 2.0
        left_mid = (a + c) / 2.0
        right_mid = (c + b) / 2.0
        fl, fr = f(left_mid), f(right_mid)
        left = (c - a) / 6.0 * (fa + 4.0 * fl + fc)
        right = (b - c) / 6.0 * (fc + 4.0 * fr + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, c, fa, fc, fl, left, depth - 1) + recurse(
            c, b, fc, fb, fr, right, depth - 1
        )

    whole = (b - a) / 6.0 * (fa + 4.0 * fc + fb)
    return recurse(a, b, fa, fb, fc, whole, depth)


def t_two_sided_p_quadrature(t: float, df: float, tol: float = 1e-13) -> float:
    """P(|T| >= |t|) by numeric integration of the density over [0, |t|]."""
    t = abs(t)
    if t == 0.0:
        return 1.0
    inner = _adaptive_simpson(lambda u: _t_pdf(u, df), 0.0, t, tol)
    return max(0.0, 1.0 - 2.0 * inner)
