"""Per-game performance indices and per-minute normalization.

The headline number is ``rend`` (rendimiento), the sum of a defensive and an
offensive index, each a weighted count combination taken straight from the
boxscore. The league's official valoracion is computed alongside as the
comparison baseline. Per-minute normalization divides any per-game value by
the minutes actually played; did-not-play lines are never divided, they are
excluded when a per-minute series is built.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, mul, truediv
from typing import Callable, Sequence

from .model import (
    DEFENSIVE_KEYS,
    OFFENSIVE_KEYS,
    BoxscoreLine,
    MetricSeries,
    UnknownPlayerError,
    WeightConfig,
    derived_points,
)
from .ingest import Dataset
from .stats import left_sum

logger = logging.getLogger(__name__)

# Metric keys understood by series builders, rankings and splits.
METRICS = ("points", "id", "io", "rend", "valoracion", "plus_minus")
_PER_MINUTE = "_per_minute"

_defensive_counts = attrgetter(*DEFENSIVE_KEYS)
_offensive_counts = attrgetter(*OFFENSIVE_KEYS)
_minutes = attrgetter("minutes")
_game_id = attrgetter("game_id")


class ZeroMinutesError(ValueError):
    """Per-minute value requested for a line with zero minutes."""


class EmptySeriesError(ValueError):
    """No qualifying games remain for a requested series."""


@dataclass(frozen=True)
class IndexValue:
    """All index values for one player line; ``rend_raw`` is exactly
    ``id_raw + io_raw``."""

    player_id: str
    game_id: str
    id_raw: float
    io_raw: float
    rend_raw: float
    valoracion_raw: float
    minutes: float


def defensive_index(line: BoxscoreLine, weights: WeightConfig) -> float:
    """Weighted sum over the defensive keys (rd, tf, fpc, br)."""
    return metric_function("id", weights)(line)


def offensive_index(line: BoxscoreLine, weights: WeightConfig) -> float:
    """Weighted sum over the offensive keys (shooting, ro, a, fpr, bp)."""
    return metric_function("io", weights)(line)


def rendimiento(line: BoxscoreLine, weights: WeightConfig) -> IndexValue:
    """Full index evaluation for one line."""
    id_raw = defensive_index(line, weights)
    io_raw = offensive_index(line, weights)
    return IndexValue(
        player_id=line.player_id,
        game_id=line.game_id,
        id_raw=id_raw,
        io_raw=io_raw,
        rend_raw=id_raw + io_raw,
        valoracion_raw=valoracion_acb(line),
        minutes=line.minutes,
    )


def valoracion_acb(line: BoxscoreLine) -> float:
    """League valoracion: credits minus debits, all unit-weighted.

    (points + rd + ro + a + br + tf + fpr) - (t2f + t3f + t1f + bp + tr + fpc).
    Blocks received (tr) subtract here even though they carry no weight in
    the defensive/offensive indices.
    """
    credits = derived_points(line) + line.rd + line.ro + line.a + line.br + line.tf + line.fpr
    debits = line.t2f + line.t3f + line.t1f + line.bp + line.tr + line.fpc
    return float(credits - debits)


def per_minute(value: float, minutes: float) -> float:
    """``value / minutes``; zero-minute lines must be excluded, not divided."""
    if minutes <= 0:
        raise ZeroMinutesError(f"cannot normalize by {minutes} minutes")
    return value / minutes


def metric_function(metric: str, weights: WeightConfig) -> Callable[[BoxscoreLine], float | None]:
    """The raw per-game value of ``metric`` as a function of one line.

    Resolve it once per series and apply it to every line. The id/io sums
    multiply each coefficient by its count and add the products in the order
    of ``DEFENSIVE_KEYS``/``OFFENSIVE_KEYS``. The function returns None for
    plus_minus when the source did not report it.
    """
    defensive, offensive = weights.defensive, weights.offensive
    if metric == "points":
        return lambda line: float(derived_points(line))
    if metric == "id":
        return lambda line: left_sum(map(mul, defensive, _defensive_counts(line)))
    if metric == "io":
        return lambda line: left_sum(map(mul, offensive, _offensive_counts(line)))
    if metric == "rend":
        return lambda line: (
            left_sum(map(mul, defensive, _defensive_counts(line)))
            + left_sum(map(mul, offensive, _offensive_counts(line)))
        )
    if metric == "valoracion":
        return valoracion_acb
    if metric == "plus_minus":
        return lambda line: None if line.plus_minus is None else float(line.plus_minus)
    raise ValueError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")


def metric_value(line: BoxscoreLine, metric: str, weights: WeightConfig) -> float | None:
    """Raw per-game value of ``metric`` for one line.

    Returns None for plus_minus when the source did not report it.
    """
    return metric_function(metric, weights)(line)


def series_values(
    lines: Sequence[BoxscoreLine],
    metric: str,
    weights: WeightConfig,
    per_minute_values: bool = False,
) -> tuple[list[float], Sequence[BoxscoreLine]]:
    """Values of ``metric`` over ``lines`` and the lines they come from;
    :func:`_excluded` says which lines are left out."""
    values, keep = _excluded(
        lines, list(map(metric_function(metric, weights), lines)), metric, per_minute_values
    )
    return list(values), _kept(lines, keep)


def _excluded(
    lines: Sequence[BoxscoreLine],
    values: Sequence[float | None],
    metric: str,
    per_minute_values: bool,
) -> tuple[array, list[bool] | None]:
    """The series of ``values``, the per-game values of ``metric`` over
    ``lines``, as floats in an ``array('d')``, and which lines it keeps
    (None: all of them).

    This is the one place lines are left out of a series: lines with no
    reported plus_minus from a plus_minus series, and zero-minute (DNP)
    lines from a per-minute series, whose values are divided by minutes.
    """
    if per_minute_values and metric == "plus_minus":
        raise ValueError("plus_minus has no per-minute form")
    if metric == "plus_minus":
        keep = [value is not None for value in values]
    elif per_minute_values:
        keep = [line.minutes != 0.0 for line in lines]
    else:
        return array("d", values), None
    values = compress(values, keep)
    if per_minute_values:
        # Every kept line has minutes > 0, so this is per_minute() per line.
        values = map(truediv, values, compress(map(_minutes, lines), keep))
    return array("d", values), None if all(keep) else keep


def _kept(column: Sequence, keep: list[bool] | None) -> Sequence:
    """The entries of a per-line ``column`` on the lines a series keeps."""
    return column if keep is None else list(compress(column, keep))


def _series(
    dataset: Dataset,
    player_id: str,
    metric: str,
    weights: WeightConfig,
    per_minute_values: bool,
) -> tuple[array, list[bool] | None]:
    """One player's series as :func:`_excluded` gives it. The per-game series
    is built on its first request and kept in ``dataset``, so a line is
    evaluated once per metric and weights; a per-minute series divides it.
    Callers only read what comes back."""

    def build(lines: tuple[BoxscoreLine, ...]) -> tuple[array, list[bool] | None]:
        return _excluded(lines, list(map(metric_function(metric, weights), lines)), metric, False)

    per_game = dataset._column((metric, weights.defensive, weights.offensive), player_id, build)
    if not per_minute_values:
        return per_game
    # A per-game series keeps every line but for plus_minus, which has no
    # per-minute form, so its values line up with the player's lines.
    return _excluded(dataset._by_player[player_id], per_game[0], metric, True)


def parse_metric_name(name: str, per_minute: bool = False) -> tuple[str, bool]:
    """Split a combined metric name into (base metric, per_minute flag).

    Accepts the base keys plus the ``*_per_minute`` forms; ``per_minute``
    asks for the per-minute form of either. plus_minus has no per-minute
    variant.
    """
    base = name.removesuffix(_PER_MINUTE)
    suffixed = base != name
    if base not in METRICS or (suffixed and base == "plus_minus"):
        raise ValueError(f"unknown metric {name!r}")
    if per_minute and base == "plus_minus":
        raise ValueError("plus_minus has no per-minute form")
    return base, per_minute or suffixed


def combined_metric_name(metric: str, per_minute: bool) -> str:
    """The name :func:`parse_metric_name` splits into ``(metric, per_minute)``."""
    return metric + _PER_MINUTE if per_minute else metric


def player_series(
    dataset: Dataset,
    player_id: str,
    metric: str,
    weights: WeightConfig | None = None,
    *,
    per_minute_values: bool = False,
) -> MetricSeries:
    """Per-game series of ``metric`` for one player, in chronological order.

    Zero-minute lines are excluded from per-minute series (the exclusion
    count is logged); lines with no reported plus_minus are excluded from
    plus_minus series. Raises UnknownPlayerError for absent players and
    EmptySeriesError when no qualifying games remain.
    """
    weights = weights or WeightConfig.defaults()
    lines = dataset._by_player.get(player_id)
    if not lines:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    values, keep = _series(dataset, player_id, metric, weights, per_minute_values)
    if len(values) < len(lines):
        logger.debug(
            "player %s metric %s: excluded %d of %d lines (DNP or missing value)",
            player_id,
            metric,
            len(lines) - len(values),
            len(lines),
        )
    if not values:
        raise EmptySeriesError(
            f"player {player_id!r} has no qualifying games for metric {metric!r}"
        )
    return MetricSeries(
        player_id=player_id,
        metric_name=combined_metric_name(metric, per_minute_values),
        values=tuple(values),
        game_ids=tuple(map(_game_id, _kept(lines, keep))),
    )


def player_mean(
    dataset: Dataset,
    player_id: str,
    metric: str,
    weights: WeightConfig | None = None,
    *,
    per_minute_values: bool = False,
) -> float:
    """Mean of the per-game series (per-game values averaged, not totals)."""
    series = player_series(
        dataset, player_id, metric, weights, per_minute_values=per_minute_values
    )
    return left_sum(series.values) / len(series.values)
