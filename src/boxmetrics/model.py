"""Domain types shared across the engine.

Every type here is an immutable value object: player lines, game metadata,
weight configurations and the series/comparison carriers used by the
statistics layer. Values validate their own invariants at construction, so
any instance that exists is well formed.
"""

from __future__ import annotations

import json
import math
from datetime import date as _date
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

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

# Split kinds and the largest margin of a close game; ``splits`` re-exports them.
# They live here so that the CLI's options need no analysis layer imported.
SPLIT_KINDS = ("win_loss", "close_game", "home_away", "starter_bench", "competition")
DEFAULT_CLOSE_THRESHOLD = 5


class UnknownTeamError(ValueError):
    """A team name does not participate in the given game."""


class UnknownPlayerError(ValueError):
    """A player id has no lines in the dataset."""


class TiedScoreError(ValueError):
    """A game with a tied final score reached an outcome computation."""


class _Checked:
    """Base of a record whose constructor checks its fields. ``_replace``
    builds through ``_make``, so its result is checked too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _frozen(self, name: str, *value: object) -> NoReturn:
    """``__setattr__`` and ``__delattr__`` of an immutable plain class."""
    raise AttributeError(f"cannot assign to field {name!r}")


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


class BoxscoreLine(_Checked, _LineFields):
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

    def __new__(cls, *args, **kwargs):
        line = _new_fields(cls, *args, **kwargs)
        minutes = line.minutes
        # Int minutes are stored as their float; __init__ reports any value
        # that is no float, an int too large for one included.
        if type(minutes) is not int or abs(minutes) >= _FLOAT_OVERFLOW:
            return line
        return _new_fields(cls, *line[:4], float(minutes), *line[5:])

    def __init__(self, *args, **kwargs) -> None:
        # A line is checked as a block of one row, by the same rules the
        # parsers run on whole columns.
        columns = list(zip(self))
        check_types(columns)
        check_fields(columns)
        check_encodable(columns[:4], self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # A plain tuple would otherwise compare its fields with ours.
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__

    @property
    def dnp(self) -> bool:
        """True for did-not-play lines (zero minutes)."""
        return self.minutes == 0.0


_new_fields = _LineFields.__new__
# Each count's position in a line, in the order its checks run.
_COUNT_INDEX = tuple((name, _LineFields._fields.index(name)) for name in STAT_KEYS + ("tr",))
_INT, _INT_OR_NONE, _BOOL, _FLOAT, _STR = {int}, {int, type(None)}, {bool}, {float}, {str}
_NUMBER = {int, float}
# The least int that float() cannot convert: every metric turns a count
# into a float.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def check_types(columns: Sequence[Sequence]) -> None:
    """Raise ValueError for the first value of a wrong type in ``columns``, one
    per line field: minutes that are no int or float (exact types, so a bool
    is none), a count that is no int (a bool is none), a plus_minus that is
    neither an int nor None, a starter that is no bool."""
    minutes, plus_minus, starter = columns[4], *columns[20:22]
    if (
        _NUMBER.issuperset(map(type, minutes))
        and {*map(type, chain(*columns[5:20]))} == _INT
        and _INT_OR_NONE.issuperset(map(type, plus_minus))
        and {*map(type, starter)} == _BOOL
    ):
        return
    for value in minutes:
        if type(value) not in _NUMBER:
            raise ValueError(f"field 'minutes' must be a number, got {value!r}")
    for name, index in _COUNT_INDEX:
        for value in columns[index]:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer count, got {value!r}")
    for value in plus_minus:
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"plus_minus must be an integer or absent, got {value!r}")
    for value in starter:
        if not isinstance(value, bool):
            raise ValueError(f"starter must be a boolean, got {value!r}")


def check_fields(columns: Sequence[Sequence]) -> None:
    """Raise ValueError for the first value outside its domain in ``columns``,
    one per line field, whose counts are ints (see :func:`check_types`) or
    ``bytes``, which hold only valid counts: an id that is no non-empty
    string, a name that is no string, minutes that are no finite float >= 0,
    a negative count, a count too large for a float."""
    player_ids, names, teams, game_ids, minutes = columns[:5]
    counts = [column for column in columns[5:20] if type(column) is not bytes]
    # min() can miss a NaN that is not first; the sum is NaN or inf then.
    if (
        {*map(type, chain(*columns[:4]))} == _STR
        and all(player_ids) and all(teams) and all(game_ids) and {*map(type, minutes)} == _FLOAT
        and min(minutes) >= 0.0 and sum(minutes) < math.inf
        and min(chain(*counts), default=0) >= 0
        and max(chain(*counts), default=0) < _FLOAT_OVERFLOW
    ):
        return
    for name, column in (("player_id", player_ids), ("team", teams), ("game_id", game_ids)):
        if not all(isinstance(value, str) and value for value in column):
            raise ValueError(f"{name} must be a non-empty string")
    for value in names:
        if not isinstance(value, str):
            raise ValueError(f"player_name must be a string, got {value!r}")
    for value in minutes:
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"minutes must be finite, got {value!r}") from None
        if not math.isfinite(number):
            raise ValueError(f"minutes must be finite, got {number}")
        if number < 0:
            raise ValueError(f"minutes must be >= 0, got {number}")
    for name, index in _COUNT_INDEX:
        if min(columns[index]) < 0:
            raise ValueError(f"{name} must be >= 0, got {min(columns[index])}")
        if max(columns[index]) >= _FLOAT_OVERFLOW:
            raise ValueError(f"{name} must fit in a float, got {max(columns[index])}")


def check_encodable(columns: Iterable[Sequence[str]], fields: Sequence[str]) -> None:
    """Raise ValueError for the first text in ``columns``, one per name in
    ``fields``, that no report could write: one UTF-8 cannot encode."""
    for texts, field in zip(columns, fields):
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start]
            raise ValueError(f"field {field!r} holds {bad!r}, which UTF-8 cannot encode") from None


def derived_points(line: BoxscoreLine) -> int:
    """Points scored: 2*t2c + 3*t3c + t1c, exact integer arithmetic."""
    return 2 * line.t2c + 3 * line.t3c + line.t1c


class _GameFields(NamedTuple):
    game_id: str
    date: _date
    competition: str
    home_team: str
    away_team: str
    home_score: int
    away_score: int


class GameMeta(_Checked, _GameFields):
    """Game identity and final-score context."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if not (isinstance(self.game_id, str) and self.game_id):
            raise ValueError("game_id must be a non-empty string")
        for name in ("competition", "home_team", "away_team"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not isinstance(self.date, _date):
            raise ValueError(f"date must be a date, got {self.date!r}")
        if self.home_team == self.away_team:
            raise ValueError(f"home_team and away_team must differ, got {self.home_team!r}")
        for name in ("home_score", "away_score"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        # Each field as a column of one text; only the ids and names can fail.
        check_encodable(zip(map(str, self)), self._fields)

    def margin(self, team: str) -> int:
        """Final margin from ``team``'s perspective (own minus opponent score)."""
        if team == self.home_team:
            return self.home_score - self.away_score
        if team == self.away_team:
            return self.away_score - self.home_score
        raise UnknownTeamError(f"team {team!r} did not play in game {self.game_id!r}")


def _finite_weight(key: str, value: object) -> float:
    """``value`` as a float; ValueError naming ``key`` unless it is a finite
    real number (a bool or a string is none)."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"weight {key!r}: could not convert {value!r} to a finite number")


class WeightConfig:
    """Coefficients for the defensive/offensive indices, one per statistic.

    The mapping must cover all fourteen statistic keys exactly once; the
    defensive/offensive partition is fixed by ``DEFENSIVE_KEYS`` and
    ``OFFENSIVE_KEYS``. Weights are free to be reconfigured: they are a
    judgement call, not a fit, so experimenting with them is expected.
    ``defensive`` and ``offensive`` hold the coefficients of those keys, in
    that order. A config is immutable, compares by ``weights`` only and,
    holding a dict, is unhashable.
    """

    def __init__(self, weights: Mapping[str, float]) -> None:
        normalized = {str(k).lower(): v for k, v in weights.items()}
        unknown = sorted(set(normalized) - set(STAT_KEYS))
        if unknown:
            raise ValueError(f"unknown statistic keys: {', '.join(unknown)}")
        missing = [k for k in STAT_KEYS if k not in normalized]
        if missing:
            raise ValueError(f"missing statistic keys: {', '.join(missing)}")
        weights = {k: _finite_weight(k, normalized[k]) for k in STAT_KEYS}
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "defensive", tuple(weights[k] for k in DEFENSIVE_KEYS))
        object.__setattr__(self, "offensive", tuple(weights[k] for k in OFFENSIVE_KEYS))

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.weights == other.weights
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}(weights={self.weights!r})"

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
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("weight configuration must be a JSON object")
        return cls.with_overrides(data)

    def to_json(self) -> str:
        return json.dumps(self.weights, sort_keys=True)

    def fingerprint(self) -> str:
        """Stable 12-hex-digit digest of the coefficient map."""
        # The interpreter's own SHA-256, as ``random`` takes its SHA-512: the
        # OpenSSL-backed module maps libcrypto, 3.5 MB of a command's peak.
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # CPython 3.10-3.11
            except ImportError:
                from hashlib import sha256

        canonical = json.dumps({k: repr(v) for k, v in sorted(self.weights.items())})
        return sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def scaled(self, factor: float) -> "WeightConfig":
        return WeightConfig({k: v * factor for k, v in self.weights.items()})


class _SeriesFields(NamedTuple):
    player_id: str
    metric_name: str
    values: tuple[float, ...]
    game_ids: tuple[str, ...]


class MetricSeries(_Checked, _SeriesFields):
    """A named per-game value series for one player, in game order; its
    ``len()`` is the number of games."""

    __slots__ = ()

    def __new__(cls, player_id: str, metric_name: str, values, game_ids) -> "MetricSeries":
        values, game_ids = tuple(map(float, values)), tuple(game_ids)
        if len(values) != len(game_ids):
            raise ValueError(
                f"values ({len(values)}) and game_ids ({len(game_ids)}) must have equal length"
            )
        if not values:
            raise ValueError("a metric series must contain at least one value")
        return _SeriesFields.__new__(cls, player_id, metric_name, values, game_ids)

    def __len__(self) -> int:
        return len(self.values)


class _ComparisonFields(NamedTuple):
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


class SplitComparison(_Checked, _ComparisonFields):
    """Two-group mean comparison with its significance verdict.

    ``degenerate`` marks comparisons where the test statistic is not finite
    (both groups constant with unequal means); the p-value is reported as 0.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must be in [0, 1], got {self.p_value}")
        if self.significant != (self.p_value < self.alpha):
            raise ValueError("significant flag must equal p_value < alpha")


