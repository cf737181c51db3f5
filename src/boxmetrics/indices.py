"""Per-game performance indices and per-minute normalization.

The headline number is ``rend`` (rendimiento), the sum of a defensive and an
offensive index, each a weighted count combination taken straight from the
boxscore. The league's official valoracion is computed alongside as the
comparison baseline. Per-minute normalization divides any per-game value by
the minutes actually played; did-not-play lines are never divided, they are
excluded when a per-minute series is built.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import compress, repeat
from math import isfinite
from operator import add, mul, truediv
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .model import (
    DEFENSIVE_KEYS,
    OFFENSIVE_KEYS,
    BoxscoreLine,
    MetricSeries,
    UnknownPlayerError,
    WeightConfig,
)
from .ingest import _FIELDS, Dataset, _pick, _take

# Metric keys understood by series builders, rankings and splits.
METRICS = ("points", "id", "io", "rend", "valoracion", "plus_minus")
_PER_MINUTE = "_per_minute"

# (coefficient, count) terms of the integer metrics: the points, and the
# valoracion's credits (points + rd + ro + a + br + tf + fpr) minus its debits.
_POINTS = ((2, "t2c"), (3, "t3c"), (1, "t1c"))
_VALORACION = (
    *_POINTS,
    *((1, key) for key in ("rd", "ro", "a", "br", "tf", "fpr")),
    *((-1, key) for key in ("t2f", "t3f", "t1f", "bp", "tr", "fpc")),
)


class ZeroMinutesError(ValueError):
    """Per-minute value requested for a line with zero minutes."""


class EmptySeriesError(ValueError):
    """No qualifying games remain for a requested series."""


class IndexValue(NamedTuple):
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
    return metric_value(line, "id", weights)


def offensive_index(line: BoxscoreLine, weights: WeightConfig) -> float:
    """Weighted sum over the offensive keys (shooting, ro, a, fpr, bp)."""
    return metric_value(line, "io", weights)


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
    return metric_value(line, "valoracion", None)


def per_minute(value: float, minutes: float) -> float:
    """``value / minutes``; zero-minute lines must be excluded, not divided."""
    if minutes <= 0:
        raise ZeroMinutesError(f"cannot normalize by {minutes} minutes")
    return value / minutes


def _fold(terms: Iterable[tuple[float, str]], columns: Mapping[str, Sequence[int]]) -> Iterable:
    """The sum of ``coefficient * columns[key]`` over the (coefficient, key)
    ``terms``, for every line at once: the products are added in the order of
    ``terms``, starting from int 0, as :func:`~boxmetrics.stats.left_sum` adds
    one line's products."""
    total = repeat(0)
    for coefficient, key in terms:
        total = map(add, total, map(mul, repeat(coefficient), columns[key]))
    return total


def _kernel(
    metric: str, weights: WeightConfig | None, columns: Mapping[str, Sequence]
) -> Iterable[float | None]:
    """The raw per-game values of ``metric`` for every line of ``columns``, one
    column per line field by name, in their order; None for a plus_minus the
    source did not report. This is the one home of every metric's formula."""
    if metric == "plus_minus":
        return [None if value is None else float(value) for value in columns["plus_minus"]]
    if metric in ("points", "valoracion"):
        # Integer sums, exact in any order, then one float per line.
        return map(float, _fold(_POINTS if metric == "points" else _VALORACION, columns))
    if metric == "id":
        return _fold(zip(weights.defensive, DEFENSIVE_KEYS), columns)
    if metric == "io":
        return _fold(zip(weights.offensive, OFFENSIVE_KEYS), columns)
    if metric == "rend":
        return map(
            add,
            _fold(zip(weights.defensive, DEFENSIVE_KEYS), columns),
            _fold(zip(weights.offensive, OFFENSIVE_KEYS), columns),
        )
    raise ValueError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")


def metric_value(line: BoxscoreLine, metric: str, weights: WeightConfig | None) -> float | None:
    """Raw per-game value of ``metric`` for one line; None for plus_minus
    when the source did not report it. Only id, io and rend read ``weights``.

    It is the season columns' kernel applied to one line, so it gives the
    same bits. The id/io sums multiply each coefficient by its count and add
    the products in the order of ``DEFENSIVE_KEYS``/``OFFENSIVE_KEYS``.
    """
    return next(iter(_kernel(metric, weights, dict(zip(_FIELDS, zip(line))))))


def _excluded(
    values: Iterable[float | None],
    minutes: Sequence[float],
    metric: str,
    per_minute_values: bool,
) -> tuple[array, list[bool]]:
    """The series of ``values``, the per-game values of ``metric`` on lines
    that played ``minutes``, as floats in an ``array('d')``, and which lines
    it keeps.

    This is the one place lines are left out of a series: lines with no
    reported plus_minus from a plus_minus series, and zero-minute (DNP)
    lines from a per-minute series, whose values are divided by minutes.
    """
    if metric == "plus_minus":
        keep = [value is not None for value in values]
    elif per_minute_values:
        keep = [value != 0.0 for value in minutes]
    else:
        values = array("d", values)
        return values, [True] * len(values)
    values = compress(values, keep)
    if per_minute_values:
        # Every kept line has minutes > 0, so this is per_minute() per line.
        values = map(truediv, values, compress(minutes, keep))
    return array("d", values), keep


def _key(metric: str, weights: WeightConfig) -> tuple:
    """The season column key of ``metric`` under ``weights``, which only id,
    io and rend read."""
    if metric in ("id", "io", "rend"):
        return metric, weights.defensive, weights.offensive
    return (metric,)


def _column(dataset: Dataset, key: tuple, build: Callable, player_id: str | None = None):
    """The one reader and writer of ``dataset._columns``: season-wide
    columns in the dataset's index order, each keyed by everything it
    depends on, so that a player's values are one slice of it. The lines
    never change, so a column never goes stale.

    Without ``player_id``, the column under ``key``, ``build(dataset._order)``
    on the first request and kept. With one, that player's slice of it once
    it is built; before that, ``build`` over that player's rows alone, kept
    nowhere, so a request about one player evaluates one player, not the
    season. A player with no lines is an UnknownPlayerError. Callers only
    read what comes back."""
    column = dataset._columns.get(key)
    if player_id is None:
        if column is None:
            column = dataset._columns[key] = build(dataset._order)
        return column
    if player_id not in dataset._by_player:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    start, stop = dataset._by_player[player_id]
    return build(dataset._order[start:stop]) if column is None else column[start:stop]


def _field(dataset: Dataset, name: str, player_id: str | None = None) -> Sequence:
    """Line field ``name`` in index order, through :func:`_column`: the season's or a player's."""
    return _column(dataset, (name,), partial(_pick, dataset._store[name]), player_id)


def _finite(metric: str, weights: WeightConfig, columns: Mapping[str, Sequence]) -> Sequence | None:
    """:func:`_kernel` on ``columns`` as an ``array('d')`` (a list for
    plus_minus), or None if a value is beyond the float range or not finite."""
    try:
        values = _kernel(metric, weights, columns)
        if metric != "plus_minus":
            values = array("d", values)
    except OverflowError:
        return None
    return values if all(map(isfinite, filter(None, values))) else None


def _values(dataset: Dataset, metric: str, weights: WeightConfig, rows: Sequence[int]) -> Sequence:
    """The per-game values of ``metric`` for the lines at ``rows`` of the
    store, in that order, checked once per column by :func:`_finite`. The
    whole season is evaluated in store order and picked once; fewer lines
    are picked first. A value that is not finite is a ValueError naming the
    metric and the first such line's player and game."""
    store = dataset._store
    season = len(rows) == len(dataset._order)
    values = _finite(metric, weights, store if season else _take(store, rows))
    if values is None:
        bad = next(row for row in rows if _finite(metric, weights, _take(store, (row,))) is None)
        raise ValueError(
            f"{metric} of player {store['player_id'][bad]!r} in game "
            f"{store['game_id'][bad]!r} is not a finite number"
        )
    return _pick(values, rows) if season else values


def _season_column(dataset: Dataset, metric: str, weights: WeightConfig) -> Sequence:
    """The per-game values of ``metric`` under ``weights`` for every line of
    ``dataset``, in its index order, built once and kept, so a line is
    evaluated once per metric and weights. A table asks for it, and so for
    the minutes its per-minute series divide by, before it reads its
    players' series."""
    _field(dataset, "minutes")
    return _column(dataset, _key(metric, weights), partial(_values, dataset, metric, weights))


def _series(
    dataset: Dataset, player_id: str, metric: str, weights: WeightConfig, per_minute_values: bool
) -> tuple[array, list[bool]]:
    """One player's series as :func:`_excluded` gives it, from the columns
    :func:`_column` gives for that player."""
    values = _column(
        dataset, _key(metric, weights), partial(_values, dataset, metric, weights), player_id
    )
    return _excluded(values, _field(dataset, "minutes", player_id), metric, per_minute_values)


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

    ``metric`` and ``per_minute_values`` are read as :func:`parse_metric_name`
    reads a name and its flag. Zero-minute lines are excluded from per-minute
    series, and lines with no reported plus_minus from plus_minus series.
    Raises UnknownPlayerError for absent players and EmptySeriesError when no
    qualifying games remain.
    """
    weights = weights or WeightConfig.defaults()
    metric, per_minute_values = parse_metric_name(metric, per_minute_values)
    values, keep = _series(dataset, player_id, metric, weights, per_minute_values)
    if not values:
        raise EmptySeriesError(
            f"player {player_id!r} has no qualifying games for metric {metric!r}"
        )
    return MetricSeries(
        player_id=player_id,
        metric_name=combined_metric_name(metric, per_minute_values),
        values=tuple(values),
        game_ids=tuple(compress(_field(dataset, "game_id", player_id), keep)),
    )
