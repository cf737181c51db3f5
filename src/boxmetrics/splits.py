"""Context splits: partition a player's games and compare metric means.

Answers the "when does this player produce?" questions: wins vs losses,
close games, home vs away, starting vs coming off the bench, and one
competition vs the rest. Each comparison feeds two per-game series into the
Welch test and reports the means with a significance verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .indices import parse_metric_name, series_values
from .ingest import Dataset
from .model import (
    BoxscoreLine,
    GameMeta,
    SplitComparison,
    TiedScoreError,
    UnknownPlayerError,
    WeightConfig,
)
from .stats import mean, welch_test

DEFAULT_CLOSE_THRESHOLD = 5

SPLIT_KINDS = ("win_loss", "close_game", "home_away", "starter_bench", "competition")

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


@dataclass(frozen=True)
class SplitLabel:
    """One side of a context split, e.g. (win_loss, win)."""

    kind: str
    side: str

    def __post_init__(self) -> None:
        if self.kind not in SPLIT_KINDS:
            raise ValueError(f"unknown split kind {self.kind!r}")
        if self.kind != "competition" and self.side not in _SIDES[self.kind]:
            raise ValueError(f"side {self.side!r} is not valid for kind {self.kind!r}")
        if self.kind == "competition" and not self.side:
            raise ValueError("competition split needs a competition name as side")

    def __str__(self) -> str:
        return self.side if self.kind != "competition" else f"competition={self.side}"


def game_outcome(line: BoxscoreLine, game: GameMeta) -> str:
    """"win" or "loss" from the line's team perspective."""
    margin = game.margin(line.team)
    if margin == 0:
        raise TiedScoreError(
            f"game {game.game_id!r} ended tied; ties are rejected at ingestion"
        )
    return "win" if margin > 0 else "loss"


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
    if kind == "win_loss":
        return game_outcome(line, game)
    if kind == "close_game":
        return "close" if is_close_game(game, close_threshold) else "normal"
    if kind == "home_away":
        return "home" if line.team == game.home_team else "away"
    if kind == "starter_bench":
        return "starter" if line.starter else "bench"
    return game.competition


@dataclass(frozen=True)
class LabelStat:
    """Mean plus_minus over one label's games; mean is None when empty."""

    label: str
    n: int
    mean: float | None
    dnp_included: int = 0


@dataclass(frozen=True)
class PlusMinusSummary:
    player_id: str
    overall: LabelStat
    by_label: tuple[LabelStat, ...]


def _pm_stat(label: str, lines: Sequence[BoxscoreLine]) -> LabelStat:
    values, kept = series_values(lines, "plus_minus", _NO_WEIGHTS)
    if not values:
        return LabelStat(label=label, n=0, mean=None)
    dnp = sum(1 for line in kept if line.dnp)
    return LabelStat(label=label, n=len(values), mean=mean(values), dnp_included=dnp)


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
    lines = dataset.lines_for(player_id)
    if not lines:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    games = dataset.games
    overall = _pm_stat("total", lines)
    stats = tuple(
        _pm_stat(
            str(label),
            [
                line
                for line in lines
                if side_of(label.kind, line, games[line.game_id], close_threshold) == label.side
            ],
        )
        for label in labels
    )
    return PlusMinusSummary(player_id=player_id, overall=overall, by_label=stats)


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
    lines = dataset.lines_for(player_id)
    if not lines:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    games = dataset.games
    sides = [side_of(split_kind, line, games[line.game_id], close_threshold) for line in lines]
    if split_kind != "competition":
        side_pairs = [_SIDES[split_kind]]
    elif competition is not None:
        side_pairs = [(competition, "rest")]
    else:
        side_pairs = [(name, "rest") for name in sorted(set(sides))]
    strict = split_kind != "competition" or competition is not None
    results = []
    for side_a, side_b in side_pairs:
        inside = [line for line, side in zip(lines, sides) if side == side_a]
        outside = [line for line, side in zip(lines, sides) if side != side_a]
        values_a = series_values(inside, metric, weights, use_per_minute)[0]
        values_b = series_values(outside, metric, weights, use_per_minute)[0]
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
