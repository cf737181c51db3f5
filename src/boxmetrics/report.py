"""Ranking tables, rank deltas, regularity tables and rendering.

Tables render deterministically to CSV (RFC-4180, full precision), JSON (one
object with "meta" and "rows", full precision) and aligned text (display
values rounded half-away-from-zero). Every table header embeds the weight
fingerprint, alpha, min_games and the close-game threshold so a report is
reproducible from its own metadata.
"""

from __future__ import annotations

import json
import math
from functools import cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .indices import _season_column, _series, combined_metric_name, parse_metric_name
from .ingest import Dataset, _csv_text, _qualified, cell_text
from .model import DEFAULT_CLOSE_THRESHOLD, WeightConfig
from .splits import InsufficientSplitError, _sides, plus_minus_summary, split_compare
from .stats import (
    COMPARABILITY_TOLERANCE,
    SeriesSummary,
    comparable_means,
    correlation_significance,
    kendall_tau,
    mean,
    pearson,
    spearman,
    summarize,
)

Cell = float | int | str | None


class EmptyAfterFilterError(ValueError):
    """No players remain after the min-games filter."""


class PlayerSetMismatchError(ValueError):
    """Rank delta requested for tables over different player sets."""


class RankedTable(NamedTuple):
    """Players ordered by a metric, ranks 1..n, deterministic tie-break.

    Each row holds one cell per column: rank, player_id, player_name, value,
    any further columns, then the notes as printed (``"tie"``,
    ``"constant,incomparable-mean"`` or ``""``).
    """

    title: str
    metric_name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    meta: Mapping[str, Cell]
    display_decimals: int = 2

    def rank_of(self, player_id: str) -> int:
        for row in self.rows:
            if row[1] == player_id:
                return row[0]
        raise KeyError(player_id)

    def player_ids(self) -> set[str]:
        return {row[1] for row in self.rows}


# The first columns of every ranked table.
_RANKED_COLUMNS = ("rank", "player_id", "player_name", "value")


class Table(NamedTuple):
    """Generic renderable table (deltas, splits, overviews, correlations)."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    meta: Mapping[str, Cell]
    display_decimals: int = 2


def base_meta(
    weights: WeightConfig,
    alpha: float,
    min_games: int,
    close_threshold: int,
    **extra: Cell,
) -> dict[str, Cell]:
    meta: dict[str, Cell] = {
        "weights_fingerprint": weights.fingerprint(),
        "alpha": alpha,
        "min_games": min_games,
        "close_threshold": close_threshold,
    }
    meta.update(extra)
    return meta


def rank_values(
    metric_name: str,
    entries: Sequence[tuple[str, str, float]],
    *,
    title: str | None = None,
    meta: Mapping[str, Cell] | None = None,
    display_decimals: int = 2,
    aux: Mapping[str, Sequence[Cell]] | None = None,
) -> RankedTable:
    """Rank precomputed (player_id, player_name, value) triples.

    Descending by value; exact ties are ordered by ascending player_name
    (then id) and flagged with a "tie" note. ``aux`` maps extra column names
    to per-entry values aligned with ``entries``.
    """
    if not entries:
        raise EmptyAfterFilterError("nothing to rank")
    aux = aux or {}
    indexed = sorted(
        range(len(entries)), key=lambda i: (-entries[i][2], entries[i][1], entries[i][0])
    )
    value_counts: dict[float, int] = {}
    for _, _, value in entries:
        value_counts[value] = value_counts.get(value, 0) + 1
    rows = tuple(
        (rank, *entries[i], *(column[i] for column in aux.values()),
         "tie" if value_counts[entries[i][2]] > 1 else "")
        for rank, i in enumerate(indexed, start=1)
    )
    return RankedTable(
        title=title or f"ranking by {metric_name}",
        metric_name=metric_name,
        columns=(*_RANKED_COLUMNS, *aux, "notes"),
        rows=rows,
        meta=dict(meta or {}),
        display_decimals=display_decimals,
    )


def _player_names(dataset: Dataset, min_games: int) -> dict[str, str]:
    """The name of each player with at least ``min_games`` games, in id order."""
    names, order, by_player = dataset._store["player_name"], dataset._order, dataset._by_player
    return {pid: names[order[by_player[pid][0]]] for pid in _qualified(dataset, min_games)}


def _by_name(dataset: Dataset, min_games: int) -> list[tuple[str, str]]:
    """(player_id, name) of each player with ``min_games`` games or more, by name, then id."""
    names = _player_names(dataset, min_games)
    if not names:
        raise EmptyAfterFilterError("no players after filter")
    return sorted(names.items(), key=lambda item: (item[1], item[0]))


def _series_by_player(
    dataset: Dataset, players: Iterable[str], metric: str, weights: WeightConfig, per_minute: bool
) -> Iterator[tuple[str, Sequence[float]]]:
    """(player_id, per-game values) for each of ``players``, skipping
    players with no qualifying games."""
    _season_column(dataset, metric, weights)
    for player_id in players:
        values = _series(dataset, player_id, metric, weights, per_minute)[0]
        if values:
            yield player_id, values


def rank_players(
    dataset: Dataset,
    metric_name: str,
    weights: WeightConfig | None = None,
    *,
    per_minute: bool = False,
    min_games: int = 1,
    alpha: float = 0.05,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> RankedTable:
    """Rank players by the mean of their per-game metric.

    With ``per_minute`` each game's value is divided by that game's minutes
    before averaging; zero-minute games are excluded. Players with no
    qualifying games are dropped.
    """
    weights = weights or WeightConfig.defaults()
    metric, use_per_minute = parse_metric_name(metric_name, per_minute)
    effective_name = combined_metric_name(metric, use_per_minute)
    names = _player_names(dataset, min_games)
    entries: list[tuple[str, str, float]] = []
    game_counts: list[Cell] = []
    for player_id, values in _series_by_player(dataset, names, metric, weights, use_per_minute):
        entries.append((player_id, names[player_id], mean(values)))
        game_counts.append(len(values))
    if not entries:
        raise EmptyAfterFilterError(
            f"no players with qualifying games for {metric_name!r} at min_games={min_games}"
        )
    return rank_values(
        effective_name,
        entries,
        title=f"ranking by mean {effective_name}",
        meta=base_meta(
            weights,
            alpha,
            min_games,
            close_threshold,
            metric=effective_name,
            per_minute=use_per_minute,
        ),
        aux={"games": game_counts},
    )


def rank_delta(table_a: RankedTable, table_b: RankedTable) -> Table:
    """Per-player rank movement between two rankings.

    delta = rank_a - rank_b, so positive means the player improved from a
    to b. Rows are sorted by player_id for stable element-wise comparison.
    """
    if table_a.player_ids() != table_b.player_ids():
        only_a = sorted(table_a.player_ids() - table_b.player_ids())
        only_b = sorted(table_b.player_ids() - table_a.player_ids())
        raise PlayerSetMismatchError(
            f"tables rank different players (only in a: {only_a}, only in b: {only_b})"
        )
    names = {row[1]: row[2] for row in table_a.rows}
    # Built from the last row up, so a player's first row wins, as in rank_of.
    ranks_a, ranks_b = (
        {row[1]: row[0] for row in reversed(table.rows)} for table in (table_a, table_b)
    )
    rows = []
    for player_id in sorted(names):
        rank_a, rank_b = ranks_a[player_id], ranks_b[player_id]
        rows.append((player_id, names[player_id], rank_a, rank_b, rank_a - rank_b))
    meta = dict(table_b.meta)
    meta["metric_a"] = table_a.metric_name
    meta["metric_b"] = table_b.metric_name
    return Table(
        title=f"rank delta: {table_a.metric_name} -> {table_b.metric_name}",
        columns=("player_id", "player_name", "rank_a", "rank_b", "delta"),
        rows=tuple(rows),
        meta=meta,
    )


def regularity_table(
    dataset: Dataset,
    metric_name: str,
    weights: WeightConfig | None = None,
    *,
    per_minute: bool = False,
    min_games: int = 2,
    alpha: float = 0.05,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> RankedTable:
    """Rank players by regularity (mean / sample sd) of a per-game metric.

    Columns carry the mean, its rank, the sample sd and the regularity rank.
    Constant-series players cannot be ranked by regularity and are placed
    last with a "constant" note. Players whose mean is not comparable to the
    table's median mean get an "incomparable-mean" warning note, since
    regularity should only decide between players with similar means.
    """
    weights = weights or WeightConfig.defaults()
    metric, use_per_minute = parse_metric_name(metric_name, per_minute)
    effective_name = combined_metric_name(metric, use_per_minute)
    min_games = max(min_games, 2)
    names = _player_names(dataset, min_games)
    summaries: dict[str, SeriesSummary] = {
        player_id: summarize(values)
        for player_id, values in _series_by_player(dataset, names, metric, weights, use_per_minute)
        if len(values) >= 2
    }
    if not summaries:
        raise EmptyAfterFilterError(
            f"no players with >= 2 qualifying games for {metric_name!r}"
        )

    ordered_means = sorted(s.mean for s in summaries.values())
    median_mean = ordered_means[(len(ordered_means) - 1) // 2]
    median_summary = SeriesSummary(1, median_mean, None, 0.0, None, True)

    regular = [pid for pid, s in summaries.items() if not s.constant_series]
    constant = [pid for pid, s in summaries.items() if s.constant_series]
    regular.sort(key=lambda pid: (-summaries[pid].regularity, names[pid], pid))
    constant.sort(key=lambda pid: (names[pid], pid))
    by_mean = sorted(summaries, key=lambda pid: (-summaries[pid].mean, names[pid], pid))
    mean_rank = {pid: i + 1 for i, pid in enumerate(by_mean)}

    rows = []
    for rank, player_id in enumerate(regular + constant, start=1):
        summary = summaries[player_id]
        notes = ["constant"] if summary.constant_series else []
        if not comparable_means(summary, median_summary):
            notes.append("incomparable-mean")
        rows.append((
            rank, player_id, names[player_id], summary.regularity, summary.mean,
            mean_rank[player_id], summary.sd_sample, summary.n, ",".join(notes),
        ))
    return RankedTable(
        title=f"regularity of {effective_name}",
        metric_name=f"{effective_name}:regularity",
        columns=(*_RANKED_COLUMNS, "mean", "mean_rank", "sd", "games", "notes"),
        rows=tuple(rows),
        meta=base_meta(
            weights,
            alpha,
            min_games,
            close_threshold,
            metric=effective_name,
            per_minute=use_per_minute,
            comparability_tolerance=COMPARABILITY_TOLERANCE,
        ),
        display_decimals=3,
    )


def plus_minus_overview(
    dataset: Dataset,
    *,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
    alpha: float = 0.05,
    min_games: int = 1,
    weights: WeightConfig | None = None,
) -> Table:
    """Mean plus_minus per player: total, close games, wins, losses."""
    weights = weights or WeightConfig.defaults()
    players = _by_name(dataset, min_games)
    _season_column(dataset, "plus_minus", weights)
    for kind in ("close_game", "win_loss"):
        _sides(dataset, kind, close_threshold)
    rows = []
    for player_id, name in players:
        summary = plus_minus_summary(player_id, dataset, close_threshold=close_threshold)
        cells: list[Cell] = [player_id, name, summary.overall.mean]
        for stat in summary.by_label:
            cells.append(stat.mean)
        rows.append(tuple(cells))
    return Table(
        title="mean plus/minus by game context",
        columns=("player_id", "player_name", "total", "close", "win", "loss"),
        rows=tuple(rows),
        meta=base_meta(weights, alpha, min_games, close_threshold),
    )


# The cells of a win/loss row between the player's and "sig".
_win_loss_cells = attrgetter("n_a", "mean_a", "n_b", "mean_b", "p_value")


def win_loss_table(
    dataset: Dataset,
    metric_name: str,
    weights: WeightConfig | None = None,
    *,
    alpha: float = 0.05,
    min_games: int = 1,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> Table:
    """Per-player win/loss comparison of a metric, significant rows starred.

    Players whose split has fewer than two games on either side are listed
    with an "insufficient" note and no test result.
    """
    weights = weights or WeightConfig.defaults()
    players = _by_name(dataset, min_games)
    _season_column(dataset, parse_metric_name(metric_name)[0], weights)
    _sides(dataset, "win_loss", close_threshold)
    rows = []
    for player_id, name in players:
        try:
            comparison = split_compare(
                player_id, metric_name, "win_loss", dataset, weights, alpha,
                close_threshold=close_threshold,
            )[0]
        except InsufficientSplitError:
            rows.append((player_id, name, None, None, None, None, None, "insufficient"))
            continue
        sig = "*" if comparison.significant else ""
        rows.append((player_id, name, *_win_loss_cells(comparison), sig))
    return Table(
        title=f"{metric_name} in losses vs wins",
        columns=(
            "player_id", "player_name", "n_loss", "mean_loss", "n_win", "mean_win", "p_value", "sig"
        ),
        rows=tuple(rows),
        meta=base_meta(weights, alpha, min_games, close_threshold, metric=metric_name),
        display_decimals=3,
    )


# The columns of a split table but "sig", each with the comparison field it shows.
_SPLIT_COLUMNS = {
    "metric": "metric_name",
    "side_a": "group_a_label",
    "n_a": "n_a",
    "mean_a": "mean_a",
    "side_b": "group_b_label",
    "n_b": "n_b",
    "mean_b": "mean_b",
    "t_stat": "t_stat",
    "p_value": "p_value",
}
_split_cells = attrgetter(*_SPLIT_COLUMNS.values())


def split_table(
    dataset: Dataset,
    player_id: str,
    metric_name: str,
    split_kind: str,
    weights: WeightConfig,
    *,
    alpha: float,
    close_threshold: int,
    competition: str | None,
) -> Table:
    """One player's comparisons of a metric across the sides of a split, as
    :func:`split_compare` makes them, significant rows starred."""
    comparisons = split_compare(
        player_id,
        metric_name,
        split_kind,
        dataset,
        weights,
        alpha,
        close_threshold=close_threshold,
        competition=competition,
    )
    return Table(
        title=f"{metric_name} split by {split_kind} for {player_id}",
        columns=(*_SPLIT_COLUMNS, "sig"),
        rows=tuple((*_split_cells(c), "*" if c.significant else "") for c in comparisons),
        meta={
            "player": player_id,
            "alpha": alpha,
            "close_threshold": close_threshold,
            "weights_fingerprint": weights.fingerprint(),
        },
        display_decimals=3,
    )


def correlation_table(
    dataset: Dataset,
    metric_pairs: Sequence[tuple[str, str]],
    weights: WeightConfig | None = None,
    *,
    alpha: float = 0.05,
    min_games: int = 10,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> Table:
    """Pearson/Kendall/Spearman between per-player means of metric pairs."""
    weights = weights or WeightConfig.defaults()
    player_ids = _qualified(dataset, min_games)
    if len(player_ids) < 4:
        raise EmptyAfterFilterError(
            f"need at least 4 players after min_games={min_games}, got {len(player_ids)}"
        )
    rows = []
    for metric_x, metric_y in metric_pairs:
        means = []
        for name in (metric_x, metric_y):
            metric, use_per_minute = parse_metric_name(name)
            series = _series_by_player(dataset, player_ids, metric, weights, use_per_minute)
            means.append({player_id: mean(values) for player_id, values in series})
        means_x, means_y = means
        both = [player_id for player_id in means_x if player_id in means_y]
        xs = [means_x[player_id] for player_id in both]
        ys = [means_y[player_id] for player_id in both]
        if len(xs) < 4:
            raise EmptyAfterFilterError(
                f"fewer than 4 players with qualifying games for {metric_x}/{metric_y}"
            )
        cells: list[Cell] = [f"{metric_x} vs {metric_y}", len(xs)]
        for kind, fn in (("pearson", pearson), ("kendall", kendall_tau), ("spearman", spearman)):
            r = fn(xs, ys)
            test = correlation_significance(r, len(xs), kind, alpha)
            cells.append(r)
            cells.append("*" if test.significant else "")
        rows.append(tuple(cells))
    return Table(
        title="correlations between per-player means",
        columns=("pair", "n", "pearson", "sig_p", "kendall", "sig_k", "spearman", "sig_s"),
        rows=tuple(rows),
        meta=base_meta(weights, alpha, min_games, close_threshold),
        display_decimals=3,
    )


# --- rendering -------------------------------------------------------------

def format_display(value: Cell, decimals: int) -> str:
    """Text-format cell: finite floats rounded half-away-from-zero to
    ``decimals``, any other value as its full-precision cell text."""
    if isinstance(value, float) and math.isfinite(value):
        return _half_up(decimals)(value)
    return cell_text(value)


@cache
def _half_up(decimals: int) -> Callable[[float], str]:
    """A float's repr rounded half-away-from-zero to ``decimals``, as text.
    ``decimal`` is imported on the first text table, not with the module."""
    from decimal import MAX_PREC, ROUND_HALF_UP, Context, Decimal

    quantum = Decimal(1).scaleb(-decimals)
    # The default context's 28 digits cannot hold 1e26 to two decimals.
    quantize = Context(prec=MAX_PREC, rounding=ROUND_HALF_UP).quantize
    return lambda value: str(quantize(Decimal(repr(value)), quantum))


# Control characters and the Unicode line and paragraph separators, escaped
# as repr() escapes them, so that each row of a text table is one line.
_CONTROLS = (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)
_ESCAPES = {code: repr(chr(code))[1:-1] for code in _CONTROLS}


def _escaped(text: str) -> str:
    return text if text.isprintable() else text.translate(_ESCAPES)


def _json_cells(cells: Mapping[str, Cell]) -> dict[str, Cell]:
    """``cells`` with each non-finite float as null: strict JSON has no
    Infinity or NaN (a table's flags, such as ``degenerate``, say why)."""
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in cells.items()
    }


def render(table: RankedTable | Table, fmt: str = "text") -> bytes:
    """Render a table to UTF-8 bytes in csv, json or aligned-text format.

    Output is deterministic: identical tables render byte-identically. CSV
    is RFC-4180 with full-precision values and no metadata block; JSON and
    text carry the table metadata. A non-finite value is written as null in
    JSON and as ``inf``/``-inf``/``nan`` in CSV and text.
    """
    columns, grid = table.columns, table.rows
    if fmt == "csv":
        return _csv_text(columns, grid).encode("utf-8")
    if fmt == "json":
        doc = {
            "meta": {"title": table.title, **_json_cells(table.meta)},
            "rows": [_json_cells(dict(zip(columns, row))) for row in grid],
        }
        text = json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if fmt == "text":
        decimals = table.display_decimals
        header_lines = [f"# {_escaped(table.title)}"]
        if table.meta:
            parts = [f"{key}={_escaped(cell_text(value))}" for key, value in table.meta.items()]
            header_lines.append("# " + "  ".join(parts))
        formatted = [
            tuple(_escaped(format_display(cell, decimals)) for cell in row) for row in grid
        ]
        widths = [len(name) for name in columns]
        for row in formatted:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        right = [
            any(isinstance(row[i], (int, float)) and not isinstance(row[i], bool) for row in grid)
            for i in range(len(columns))
        ]
        def line(cells: Sequence[str]) -> str:
            return "  ".join(
                cell.rjust(widths[i]) if right[i] else cell.ljust(widths[i])
                for i, cell in enumerate(cells)
            ).rstrip()
        body = [line(columns)] + [line(row) for row in formatted]
        return ("\n".join(header_lines + body) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}; expected csv, json or text")
