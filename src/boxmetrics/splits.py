"""Context splits: partition a player's games and compare metric means.

Answers the "when does this player produce?" questions: wins vs losses,
close games, home vs away, starting vs coming off the bench, and one
competition vs the rest. Each comparison feeds two per-game series into the
Welch test and reports the means with a significance verdict.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import NamedTuple, Sequence

from .indices import _series, parse_metric_name
from .ingest import Dataset, _pick
from .model import (
    DEFAULT_CLOSE_THRESHOLD,
    SPLIT_KINDS,
    BoxscoreLine,
    GameMeta,
    SplitComparison,
    TiedScoreError,
    UnknownPlayerError,
    WeightConfig,
    _Checked,
)
from .stats import mean, welch_test

_SIDES = {
    "win_loss": ("loss", "win"),
    "close_game": ("close", "normal"),
    "home_away": ("home", "away"),
    "starter_bench": ("starter", "bench"),
}
# Any weights will do for a plus_minus series, which reads none of them.
_NO_WEIGHTS = WeightConfig.defaults()


class InsufficientSplitError(ValueError):
    """One side of a requested split has fewer than two qualifying games."""


class _LabelFields(NamedTuple):
    kind: str
    side: str


class SplitLabel(_Checked, _LabelFields):
    """One side of a context split, e.g. (win_loss, win)."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.kind not in SPLIT_KINDS:
            raise ValueError(f"unknown split kind {self.kind!r}")
        if self.kind != "competition" and self.side not in _SIDES[self.kind]:
            raise ValueError(f"side {self.side!r} is not valid for kind {self.kind!r}")
        if self.kind == "competition" and not self.side:
            raise ValueError("competition split needs a competition name as side")

    def __str__(self) -> str:
        return self.side if self.kind != "competition" else f"competition={self.side}"


def _side(
    kind: str,
    team: str,
    starter: bool,
    game: GameMeta,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> str:
    """The side of a ``kind`` split that a line of ``team``, in the starting
    five or not, falls on in ``game``: win/loss, close/normal, home/away,
    starter/bench, or the game's competition. The one rule for every side."""
    if kind == "win_loss":
        margin = game.margin(team)
        if margin == 0:
            raise TiedScoreError(
                f"game {game.game_id!r} ended tied; ties are rejected at ingestion"
            )
        return "win" if margin > 0 else "loss"
    if kind == "close_game":
        return "close" if is_close_game(game, close_threshold) else "normal"
    if kind == "home_away":
        return "home" if team == game.home_team else "away"
    if kind == "starter_bench":
        return "starter" if starter else "bench"
    return game.competition


def game_outcome(line: BoxscoreLine, game: GameMeta) -> str:
    """"win" or "loss" from the line's team perspective."""
    return _side("win_loss", line.team, line.starter, game)


def is_close_game(game: GameMeta, threshold: int = DEFAULT_CLOSE_THRESHOLD) -> bool:
    """Final margin at most ``threshold`` points, boundary included."""
    return abs(game.home_score - game.away_score) <= threshold


def side_of(
    kind: str,
    line: BoxscoreLine,
    game: GameMeta,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> str:
    """The side of a ``kind`` split this (line, game) falls on: win/loss,
    close/normal, home/away, starter/bench, or the game's competition."""
    return _side(kind, line.team, line.starter, game, close_threshold)


class LabelStat(NamedTuple):
    """Mean plus_minus over one label's games; mean is None when empty."""

    label: str
    n: int
    mean: float | None
    dnp_included: int = 0


class PlusMinusSummary(NamedTuple):
    player_id: str
    overall: LabelStat
    by_label: tuple[LabelStat, ...]


def _decided(dataset: Dataset, kind: str, close_threshold: int, rows: Sequence[int]) -> list[str]:
    """The side of a ``kind`` split each of the lines at ``rows`` falls on."""
    store = dataset._store
    teams, starters, game_ids = (
        map(store[field].__getitem__, rows) for field in ("team", "starter", "game_id")
    )
    games = map(dataset.games.__getitem__, game_ids)
    return list(map(_side, repeat(kind), teams, starters, games, repeat(close_threshold)))


def _sides(dataset: Dataset, kind: str, close_threshold: int) -> list[str]:
    """The side of a ``kind`` split each line of the season falls on, in the
    dataset's index order; decided on the first request per dataset. A table
    asks for it before it reads its players' sides."""
    key = ("sides", kind, close_threshold)
    sides = dataset._columns.get(key)
    if sides is None:
        sides = dataset._columns[key] = _decided(dataset, kind, close_threshold, dataset._order)
    return sides


def _player_sides(
    dataset: Dataset, player_id: str, kind: str, close_threshold: int
) -> list[str]:
    """One player's slice of :func:`_sides` once a table has built it; before
    that, the sides of that player's lines alone, decided and not kept."""
    start, stop = dataset._by_player[player_id]
    sides = dataset._columns.get(("sides", kind, close_threshold))
    if sides is None:
        return _decided(dataset, kind, close_threshold, dataset._order[start:stop])
    return sides[start:stop]


def _pm_stat(label: str, values: Sequence[float], dnp: Sequence[bool]) -> LabelStat:
    if not values:
        return LabelStat(label=label, n=0, mean=None)
    return LabelStat(label=label, n=len(values), mean=mean(values), dnp_included=sum(dnp))


def plus_minus_summary(
    player_id: str,
    dataset: Dataset,
    labels: tuple[SplitLabel, ...] | None = None,
    *,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> PlusMinusSummary:
    """Mean plus_minus overall and per requested label.

    Default labels are close games, wins and losses, mirroring the classic
    total / close / won / lost presentation. Games without a reported
    plus_minus are skipped as missing observations; zero-minute games with a
    reported value are counted and flagged via ``dnp_included``.
    """
    if labels is None:
        labels = (
            SplitLabel("close_game", "close"),
            SplitLabel("win_loss", "win"),
            SplitLabel("win_loss", "loss"),
        )
    if player_id not in dataset._by_player:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    start, stop = dataset._by_player[player_id]
    values, keep = _series(dataset, player_id, "plus_minus", _NO_WEIGHTS, False)
    minutes = _pick(dataset._store["minutes"], dataset._order[start:stop])
    dnp = [value == 0.0 for value in compress(minutes, keep)]
    stats = []
    for label in labels:
        sides = compress(_player_sides(dataset, player_id, label.kind, close_threshold), keep)
        on_side = [side == label.side for side in sides]
        stats.append(
            _pm_stat(str(label), list(compress(values, on_side)), list(compress(dnp, on_side)))
        )
    return PlusMinusSummary(
        player_id=player_id, overall=_pm_stat("total", values, dnp), by_label=tuple(stats)
    )


def split_compare(
    player_id: str,
    metric_name: str,
    split_kind: str,
    dataset: Dataset,
    weights: WeightConfig | None = None,
    alpha: float = 0.05,
    *,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
    competition: str | None = None,
) -> list[SplitComparison]:
    """Compare a metric's per-game means across the two sides of a split.

    ``metric_name`` takes the combined form (e.g. ``rend_per_minute`` or
    ``plus_minus``). For the competition kind, a named competition is
    compared against all other games pooled; with ``competition=None`` every
    competition present in the player's games is compared in turn and sides
    with fewer than two games are skipped. For all other kinds a too-small
    side raises InsufficientSplitError.
    """
    if split_kind not in SPLIT_KINDS:
        raise ValueError(f"unknown split kind {split_kind!r}")
    weights = weights or WeightConfig.defaults()
    metric, use_per_minute = parse_metric_name(metric_name)
    if player_id not in dataset._by_player:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    sides = _player_sides(dataset, player_id, split_kind, close_threshold)
    values, keep = _series(dataset, player_id, metric, weights, use_per_minute)
    if split_kind != "competition":
        side_pairs = [_SIDES[split_kind]]
    elif competition is not None:
        side_pairs = [(competition, "rest")]
    else:
        side_pairs = [(name, "rest") for name in sorted(set(sides))]
    sides = list(compress(sides, keep))
    strict = split_kind != "competition" or competition is not None
    results = []
    for side_a, side_b in side_pairs:
        values_a = [value for value, side in zip(values, sides) if side == side_a]
        values_b = [value for value, side in zip(values, sides) if side != side_a]
        if len(values_a) < 2 or len(values_b) < 2:
            if strict:
                raise InsufficientSplitError(
                    f"player {player_id!r}, split {split_kind!r}: sides have "
                    f"{len(values_a)} ({side_a}) and {len(values_b)} ({side_b}) "
                    "qualifying games; need at least 2 each"
                )
            continue
        results.append(
            welch_test(
                values_a,
                values_b,
                alpha,
                metric_name=metric_name,
                group_a_label=side_a,
                group_b_label=side_b,
            )
        )
    return results
