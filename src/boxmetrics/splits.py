"""Context splits: partition a player's games and compare metric means.

Answers the "when does this player produce?" questions: wins vs losses,
close games, home vs away, starting vs coming off the bench, and one
competition vs the rest. Each comparison feeds two per-game series into the
Welch test and reports the means with a significance verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .stats import welch_test

DEFAULT_CLOSE_THRESHOLD = 5

SPLIT_KINDS = ("win_loss", "close_game", "home_away", "starter_bench", "competition")

_SIDES = {
    "win_loss": ("loss", "win"),
    "close_game": ("close", "normal"),
    "home_away": ("home", "away"),
    "starter_bench": ("starter", "bench"),
}


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


def matches_label(
    line: BoxscoreLine,
    game: GameMeta,
    label: SplitLabel,
    *,
    close_threshold: int = DEFAULT_CLOSE_THRESHOLD,
) -> bool:
    """Whether this (line, game) belongs to the label's side of its split."""
    if label.kind == "win_loss":
        return game_outcome(line, game) == ("win" if label.side == "win" else "loss")
    if label.kind == "close_game":
        return is_close_game(game, close_threshold) == (label.side == "close")
    if label.kind == "home_away":
        return (line.team == game.home_team) == (label.side == "home")
    if label.kind == "starter_bench":
        return line.starter == (label.side == "starter")
    return game.competition == label.side


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


def _pm_stat(
    label: str, pairs: list[tuple[BoxscoreLine, GameMeta]]
) -> LabelStat:
    observed = [(ln, g) for ln, g in pairs if ln.plus_minus is not None]
    if not observed:
        return LabelStat(label=label, n=0, mean=None)
    values = [float(ln.plus_minus) for ln, _ in observed]
    dnp = sum(1 for ln, _ in observed if ln.dnp)
    return LabelStat(label=label, n=len(values), mean=sum(values) / len(values), dnp_included=dnp)


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
    pairs = [(line, dataset.games[line.game_id]) for line in lines]
    overall = _pm_stat("total", pairs)
    stats = tuple(
        _pm_stat(
            str(label),
            [(ln, g) for ln, g in pairs if matches_label(ln, g, label, close_threshold=close_threshold)],
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
    pairs = [(line, dataset.games[line.game_id]) for line in lines]

    def compare(side_a: str, side_b: str, pairs_a, pairs_b, *, strict: bool):
        values_a = series_values([ln for ln, g in pairs_a], metric, weights, use_per_minute)[0]
        values_b = series_values([ln for ln, g in pairs_b], metric, weights, use_per_minute)[0]
        if len(values_a) < 2 or len(values_b) < 2:
            if strict:
                raise InsufficientSplitError(
                    f"player {player_id!r}, split {split_kind!r}: sides have "
                    f"{len(values_a)} ({side_a}) and {len(values_b)} ({side_b}) "
                    "qualifying games; need at least 2 each"
                )
            return None
        return welch_test(
            values_a,
            values_b,
            alpha,
            metric_name=metric_name,
            group_a_label=side_a,
            group_b_label=side_b,
        )

    if split_kind == "competition":
        names = (
            [competition]
            if competition is not None
            else sorted({g.competition for _, g in pairs})
        )
        results = []
        for name in names:
            inside = [(ln, g) for ln, g in pairs if g.competition == name]
            outside = [(ln, g) for ln, g in pairs if g.competition != name]
            comparison = compare(
                name, "rest", inside, outside, strict=competition is not None
            )
            if comparison is not None:
                results.append(comparison)
        return results

    side_a, side_b = _SIDES[split_kind]
    label_a = SplitLabel(split_kind, side_a)
    pairs_a: list[tuple[BoxscoreLine, GameMeta]] = []
    pairs_b: list[tuple[BoxscoreLine, GameMeta]] = []
    for pair in pairs:
        if matches_label(pair[0], pair[1], label_a, close_threshold=close_threshold):
            pairs_a.append(pair)
        else:
            pairs_b.append(pair)
    comparison = compare(side_a, side_b, pairs_a, pairs_b, strict=True)
    return [comparison]
