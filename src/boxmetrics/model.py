"""Domain types shared across the engine.

Every type here is an immutable value object: player lines, game metadata,
weight configurations and the series/comparison carriers used by the
statistics layer. Values validate their own invariants at construction, so
any instance that exists is well formed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import date as _date
from typing import Mapping, NamedTuple

# Statistic keys grouped by the side of the game they describe. Order is
# fixed: it drives index evaluation, serialization and fingerprints.
DEFENSIVE_KEYS = ("rd", "tf", "fpc", "br")
OFFENSIVE_KEYS = ("t2c", "t1c", "t3c", "t2f", "t1f", "t3f", "ro", "a", "fpr", "bp")
STAT_KEYS = DEFENSIVE_KEYS + OFFENSIVE_KEYS

# Default coefficients. Positive actions add, negative ones subtract; the
# double weight on steals, offensive rebounds, assists and turnovers and the
# 1.5 on threes and fouls received reward/penalize possession-changing
# actions more heavily than plain scoring.
DEFAULT_WEIGHTS: Mapping[str, float] = {
    "rd": 1.0,
    "tf": 1.0,
    "fpc": -1.0,
    "br": 2.0,
    "t2c": 1.0,
    "t1c": 1.0,
    "t3c": 1.5,
    "t2f": -1.0,
    "t1f": -2.0,
    "t3f": -1.0,
    "ro": 2.0,
    "a": 2.0,
    "fpr": 1.5,
    "bp": -2.0,
}


class UnknownTeamError(ValueError):
    """A team name does not participate in the given game."""


class UnknownPlayerError(ValueError):
    """A player id has no lines in the dataset."""


class TiedScoreError(ValueError):
    """A game with a tied final score reached an outcome computation."""


class _LineFields(NamedTuple):
    """The fields of :class:`BoxscoreLine`, in order, with their defaults."""

    player_id: str
    player_name: str
    team: str
    game_id: str
    minutes: float
    t2c: int = 0
    t2f: int = 0
    t3c: int = 0
    t3f: int = 0
    t1c: int = 0
    t1f: int = 0
    rd: int = 0
    ro: int = 0
    a: int = 0
    br: int = 0
    bp: int = 0
    tf: int = 0
    tr: int = 0
    fpc: int = 0
    fpr: int = 0
    plus_minus: int | None = 0
    starter: bool = False


class BoxscoreLine(_LineFields):
    """One player's statistical line for one game.

    All shot/rebound/assist/foul fields are nonnegative integer counts.
    ``minutes`` is decimal minutes (23.5 means 23 minutes 30 seconds).
    ``plus_minus`` is the team scoring margin while the player was on court;
    ``None`` means the source did not report it. ``tr`` (blocks received)
    only feeds the league valoracion and carries no weight in the
    defensive/offensive indices. Points are always derived, never stored.

    A line is an immutable tuple of its fields in the order above, so the
    metric kernels read its counts at C speed; it equals only another
    ``BoxscoreLine``, never a plain tuple.
    """

    __slots__ = ()

    _COUNT_FIELDS = STAT_KEYS + ("tr",)

    def __new__(cls, *args, **kwargs):
        line = _new_fields(cls, *args, **kwargs)
        minutes = line.minutes
        if type(minutes) is float:
            return line
        # Minutes that float() accepts (say, an int) are stored as that float;
        # __init__ reports any other value.
        try:
            minutes = float(minutes)
        except (TypeError, ValueError, OverflowError):
            return line
        return _new_fields(cls, *line[:4], minutes, *line[5:])

    def __init__(self, *args, **kwargs) -> None:
        # This is the one place a line's values are checked; the parsers only
        # decode cells. A valid line passes in a few bulk tests; any other
        # goes to _check_each_field, which names the first bad field.
        minutes = self.minutes
        counts = self[5:20]  # t2c .. fpr
        if not (
            self.player_id
            and self.team
            and self.game_id
            and type(minutes) is float
            and 0.0 <= minutes < math.inf
            and {*map(type, counts)} == _INT_ONLY
            and min(counts) >= 0
            and (self.plus_minus is None or type(self.plus_minus) is int)
            and type(self.starter) is bool
        ):
            self._check_each_field()

    def _check_each_field(self) -> None:
        """Raise for the first bad field in declaration order."""
        for name in ("player_id", "team", "game_id"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be a non-empty string")
        try:
            minutes = float(self.minutes)
        except OverflowError:
            raise ValueError(f"minutes must be finite, got {self.minutes!r}") from None
        if not math.isfinite(minutes):
            raise ValueError(f"minutes must be finite, got {minutes}")
        if minutes < 0:
            raise ValueError(f"minutes must be >= 0, got {minutes}")
        for name in self._COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer count, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.plus_minus is not None and (
            isinstance(self.plus_minus, bool) or not isinstance(self.plus_minus, int)
        ):
            raise ValueError(f"plus_minus must be an integer or absent, got {self.plus_minus!r}")
        if not isinstance(self.starter, bool):
            raise ValueError(f"starter must be a boolean, got {self.starter!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # A plain tuple would otherwise compare its fields with ours.
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable) -> "BoxscoreLine":
        # _replace builds through _make: check its result like any other line.
        return cls(*iterable)

    @property
    def dnp(self) -> bool:
        """True for did-not-play lines (zero minutes)."""
        return self.minutes == 0.0


_new_fields = _LineFields.__new__
_INT_ONLY = {int}


def derived_points(line: BoxscoreLine) -> int:
    """Points scored: 2*t2c + 3*t3c + t1c, exact integer arithmetic."""
    return 2 * line.t2c + 3 * line.t3c + line.t1c


@dataclass(frozen=True)
class GameMeta:
    """Game identity and final-score context."""

    game_id: str
    date: _date
    competition: str
    home_team: str
    away_team: str
    home_score: int
    away_score: int

    def __post_init__(self) -> None:
        if not self.game_id:
            raise ValueError("game_id must be a non-empty string")
        if not isinstance(self.date, _date):
            raise ValueError(f"date must be a date, got {self.date!r}")
        if self.home_team == self.away_team:
            raise ValueError(f"home_team and away_team must differ, got {self.home_team!r}")
        for name in ("home_score", "away_score"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")

    def margin(self, team: str) -> int:
        """Final margin from ``team``'s perspective (own minus opponent score)."""
        if team == self.home_team:
            return self.home_score - self.away_score
        if team == self.away_team:
            return self.away_score - self.home_score
        raise UnknownTeamError(f"team {team!r} did not play in game {self.game_id!r}")


@dataclass(frozen=True)
class WeightConfig:
    """Coefficients for the defensive/offensive indices, one per statistic.

    The mapping must cover all fourteen statistic keys exactly once; the
    defensive/offensive partition is fixed by ``DEFENSIVE_KEYS`` and
    ``OFFENSIVE_KEYS``. Weights are free to be reconfigured: they are a
    judgement call, not a fit, so experimenting with them is expected.
    """

    weights: Mapping[str, float]
    # The coefficients of DEFENSIVE_KEYS and OFFENSIVE_KEYS, in that order.
    defensive: tuple[float, ...] = field(init=False, repr=False, compare=False)
    offensive: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        normalized = {str(k).lower(): v for k, v in self.weights.items()}
        unknown = sorted(set(normalized) - set(STAT_KEYS))
        if unknown:
            raise ValueError(f"unknown statistic keys: {', '.join(unknown)}")
        missing = [k for k in STAT_KEYS if k not in normalized]
        if missing:
            raise ValueError(f"missing statistic keys: {', '.join(missing)}")
        weights = {k: float(normalized[k]) for k in STAT_KEYS}
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "defensive", tuple(weights[k] for k in DEFENSIVE_KEYS))
        object.__setattr__(self, "offensive", tuple(weights[k] for k in OFFENSIVE_KEYS))

    def __getitem__(self, key: str) -> float:
        return self.weights[key]

    @classmethod
    def defaults(cls) -> "WeightConfig":
        return cls(DEFAULT_WEIGHTS)

    @classmethod
    def with_overrides(cls, overrides: Mapping[str, float]) -> "WeightConfig":
        """Default weights with ``overrides`` applied; keys may be any case."""
        lowered = {str(key).lower(): value for key, value in overrides.items()}
        return cls({**DEFAULT_WEIGHTS, **lowered})

    @classmethod
    def from_json(cls, text: str) -> "WeightConfig":
        """Parse a flat JSON object; omitted keys keep their default value."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("weight configuration must be a JSON object")
        return cls.with_overrides(data)

    def to_json(self) -> str:
        return json.dumps(self.weights, sort_keys=True)

    def fingerprint(self) -> str:
        """Stable 12-hex-digit digest of the coefficient map."""
        canonical = json.dumps({k: repr(v) for k, v in sorted(self.weights.items())})
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def scaled(self, factor: float) -> "WeightConfig":
        return WeightConfig({k: v * factor for k, v in self.weights.items()})


@dataclass(frozen=True)
class MetricSeries:
    """A named per-game value series for one player, in game order."""

    player_id: str
    metric_name: str
    values: tuple[float, ...]
    game_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        object.__setattr__(self, "game_ids", tuple(self.game_ids))
        if len(self.values) != len(self.game_ids):
            raise ValueError(
                f"values ({len(self.values)}) and game_ids ({len(self.game_ids)}) "
                "must have equal length"
            )
        if not self.values:
            raise ValueError("a metric series must contain at least one value")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SplitComparison:
    """Two-group mean comparison with its significance verdict.

    ``degenerate`` marks comparisons where the test statistic is not finite
    (both groups constant with unequal means); the p-value is reported as 0.
    """

    metric_name: str
    group_a_label: str
    group_b_label: str
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float
    t_stat: float
    p_value: float
    significant: bool
    alpha: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must be in [0, 1], got {self.p_value}")
        if self.significant != (self.p_value < self.alpha):
            raise ValueError("significant flag must equal p_value < alpha")


