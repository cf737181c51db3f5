"""Season dataset ingestion: CSV and JSON parsing with full validation.

Two-file relational layout: a games table and a lines table. Every line must
reference a known game and a team that actually played in it, and a player
can appear at most once per game. Validation is total: either a fully
checked :class:`Dataset` comes back, or a typed error naming the offending
row/field is raised and nothing is returned.

A tied final score is rejected when a season is parsed: every parsed game
has a winner. A :class:`~boxmetrics.model.GameMeta` built in memory may
still hold a tie, and asking for that game's outcome then raises
:class:`~boxmetrics.model.TiedScoreError`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property, partial
from operator import attrgetter, itemgetter
from typing import IO, Iterable, Mapping, NoReturn

from .model import BoxscoreLine, GameMeta, derived_points

GAMES_HEADER = (
    "game_id",
    "date",
    "competition",
    "home_team",
    "away_team",
    "home_score",
    "away_score",
)
LINES_HEADER = (
    "game_id",
    "player_id",
    "player_name",
    "team",
    "minutes",
    "t2c",
    "t2f",
    "t3c",
    "t3f",
    "t1c",
    "t1f",
    "rd",
    "ro",
    "a",
    "br",
    "bp",
    "tf",
    "tr",
    "fpc",
    "fpr",
    "plus_minus",
    "starter",
)
# An optional trailing "points" column is accepted and checked against the
# derived value, never stored.
OPTIONAL_LINES_COLUMN = "points"
_COUNT_COLUMNS = LINES_HEADER[5:20]  # t2c .. fpr
_GAME_FIELDS = frozenset(GAMES_HEADER)
_LINE_FIELDS = frozenset(LINES_HEADER)
_LINE_FIELDS_WITH_POINTS = _LINE_FIELDS | {OPTIONAL_LINES_COLUMN}
_game_cells = itemgetter(*GAMES_HEADER)
_line_cells = itemgetter(*LINES_HEADER)
_game_fields = attrgetter(*GAMES_HEADER)
_line_fields = attrgetter(*LINES_HEADER)


class IngestError(ValueError):
    """Base class for all dataset validation failures."""


class MissingColumnError(IngestError):
    """A required column/field is absent or the header does not match."""


class BadValueError(IngestError):
    """A cell holds a value outside its domain (type, sign, reference)."""


class DanglingGameRefError(IngestError):
    """A line references a game_id absent from the games table."""


class DuplicateGameError(IngestError):
    """The same game_id appears twice in the games table."""


class DuplicateLineError(IngestError):
    """The same (player_id, game_id) pair appears twice."""


class PointsMismatchError(IngestError):
    """A source points column disagrees with 2*t2c + 3*t3c + t1c."""


@dataclass(frozen=True)
class Provenance:
    """Where a dataset came from; never part of dataset equality."""

    source: str
    format: str


@dataclass(frozen=True)
class Dataset:
    """A validated season: games keyed by id plus all player lines."""

    games: Mapping[str, GameMeta]
    lines: tuple[BoxscoreLine, ...]
    provenance: Provenance = field(
        compare=False, default=Provenance("<memory>", "memory")
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "games", dict(self.games))
        object.__setattr__(self, "lines", tuple(self.lines))
        seen: set[tuple[str, str]] = set()
        for line in self.lines:
            try:
                _check_references(self.games, seen, line.player_id, line.team, line.game_id)
            except IngestError as exc:
                raise _located(f"line for player {line.player_id!r}", exc) from None

    @classmethod
    def _from_checked(
        cls,
        games: dict[str, GameMeta],
        lines: tuple[BoxscoreLine, ...],
        provenance: Provenance,
    ) -> "Dataset":
        """A dataset whose lines already passed :func:`_check_references`
        against ``games``, so ``__post_init__`` need not check them again."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "games", games)
        object.__setattr__(dataset, "lines", lines)
        object.__setattr__(dataset, "provenance", provenance)
        return dataset

    @cached_property
    def _by_player(self) -> dict[str, tuple[BoxscoreLine, ...]]:
        """Each player's lines in chronological (date, game_id) order.

        Built once, on first use; it holds references to the lines, not copies.
        """
        grouped: dict[str, list[BoxscoreLine]] = {}
        for line in self.lines:
            grouped.setdefault(line.player_id, []).append(line)
        order = {gid: (game.date, gid) for gid, game in self.games.items()}
        return {
            player_id: tuple(sorted(mine, key=lambda ln: order[ln.game_id]))
            for player_id, mine in grouped.items()
        }

    def player_ids(self) -> list[str]:
        return sorted(self._by_player)

    def lines_for(self, player_id: str) -> list[BoxscoreLine]:
        """All lines for a player in chronological (date, game_id) order.

        The list is the caller's own: changing it leaves the dataset as is.
        """
        return list(self._by_player.get(player_id, ()))

    def game_count(self, player_id: str) -> int:
        # A player has at most one line per game (see _check_references).
        return len(self._by_player.get(player_id, ()))


def _as_text(stream: IO | str) -> io.TextIOBase:
    if isinstance(stream, str):
        return io.StringIO(stream)
    if isinstance(stream, io.TextIOBase):
        return stream
    first = stream.read()
    if isinstance(first, bytes):
        return io.StringIO(first.decode("utf-8"))
    return io.StringIO(first)


def _located(where: str, exc: ValueError) -> IngestError:
    """``exc`` with ``where`` put in front of its message. A plain
    ``ValueError`` (a model type rejecting a value) becomes a
    :class:`BadValueError`; ingest errors keep their class."""
    cls = type(exc) if isinstance(exc, IngestError) else BadValueError
    return cls(f"{where}: {exc}")


def _check_references(
    games: Mapping[str, GameMeta],
    seen: set[tuple[str, str]],
    player_id: str,
    team: str,
    game_id: str,
) -> None:
    """The checks that tie a line to its season: its game exists, its team
    played in it, and its player has no other line for that game. ``seen``
    holds the (player_id, game_id) pairs of the lines checked before it."""
    game = games.get(game_id)
    if game is None:
        raise DanglingGameRefError(f"unknown game_id {game_id!r}")
    if team != game.home_team and team != game.away_team:
        raise BadValueError(f"team {team!r} did not play in game {game_id!r}")
    key = (player_id, game_id)
    if key in seen:
        raise DuplicateLineError(f"duplicate (player_id, game_id) = {key!r}")
    seen.add(key)


def _parse_int(raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise BadValueError(f"column {column!r} must be an integer, got {raw!r}") from None


def _parse_games(rows: Iterable, cells_of, where: str, start: int) -> dict[str, GameMeta]:
    """Games keyed by id from ``rows``, each decoded by ``cells_of`` with its
    date still raw; a tie or a repeated game_id is rejected. An error names
    ``where`` and the row's number counted from ``start``."""
    games: dict[str, GameMeta] = {}
    for idx, row in enumerate(rows, start=start):
        try:
            game_id, raw_date, competition, home_team, away_team, home, away = cells_of(row)
            try:
                parsed_date = date.fromisoformat(str(raw_date))
            except ValueError:
                raise BadValueError(f"column 'date' must be ISO-8601, got {raw_date!r}") from None
            game = GameMeta(game_id, parsed_date, competition, home_team, away_team, home, away)
            if game.home_score == game.away_score:
                raise BadValueError(f"tied final score {home}-{away} is not a valid result")
            if game_id in games:
                raise DuplicateGameError(f"duplicate game_id {game_id!r}")
        except ValueError as exc:
            raise _located(f"{where} {idx}", exc) from None
        games[game_id] = game
    return games


def _parse_lines(
    games: dict[str, GameMeta], rows: Iterable, cells_of, where: str, start: int,
    provenance: Provenance,
) -> Dataset:
    """The season of ``games`` and ``rows``, each decoded by ``cells_of`` into
    (line fields, points or None). An error names ``where`` and the row's
    number counted from ``start``."""
    lines: list[BoxscoreLine] = []
    seen: set[tuple[str, str]] = set()
    for idx, row in enumerate(rows, start=start):
        try:
            fields, points = cells_of(row)
            _check_references(games, seen, fields[0], fields[2], fields[3])
            line = BoxscoreLine(*fields)
            if points is not None:
                if points < 0:
                    raise BadValueError(f"column 'points' must be >= 0, got {points}")
                if points != derived_points(line):
                    raise PointsMismatchError(
                        f"points column says {points} but counts derive {derived_points(line)}"
                    )
        except ValueError as exc:
            raise _located(f"{where} {idx}", exc) from None
        lines.append(line)
    return Dataset._from_checked(games, tuple(lines), provenance)


def _csv_rows(stream: IO | str, header: tuple[str, ...], what: str) -> tuple[Iterable, bool]:
    """The rows after a CSV table's header, which must be exactly ``header``,
    and whether the lines table carries the optional points column."""
    rows = csv.reader(_as_text(stream))
    try:
        actual = tuple(next(rows))
    except StopIteration:
        raise MissingColumnError(f"{what} file is empty; expected a header row")
    if actual == header:
        return rows, False
    if what == "lines" and actual == header + (OPTIONAL_LINES_COLUMN,):
        return rows, True
    missing = [c for c in header if c not in actual]
    if missing:
        raise MissingColumnError(f"{what} header: missing column(s) {', '.join(missing)}")
    raise BadValueError(
        f"{what} header: expected exactly {','.join(header)}"
        f"{' (optionally + points)' if what == 'lines' else ''}, got {','.join(actual)}"
    )


def _csv_game(row: list[str]) -> tuple:
    if len(row) != len(GAMES_HEADER):
        raise BadValueError(f"expected {len(GAMES_HEADER)} fields, got {len(row)}")
    return (*row[:5], _parse_int(row[5], "home_score"), _parse_int(row[6], "away_score"))


def _csv_line(has_points: bool, row: list[str]) -> tuple[tuple, int | None]:
    expected_len = len(LINES_HEADER) + has_points
    if len(row) != expected_len:
        raise BadValueError(f"expected {expected_len} fields, got {len(row)}")
    game_id, player_id, player_name, team, raw_minutes = row[:5]
    raw_counts = row[5:20]
    try:
        counts = list(map(int, raw_counts))
    except ValueError:
        counts = [_parse_int(raw, c) for raw, c in zip(raw_counts, _COUNT_COLUMNS)]
    try:
        minutes = float(raw_minutes)
    except ValueError:
        raise BadValueError(
            f"column 'minutes' must be decimal minutes, got {raw_minutes!r}"
        ) from None
    raw_pm, raw_starter = row[20:22]
    plus_minus = None if raw_pm == "" else _parse_int(raw_pm, "plus_minus")
    if raw_starter not in ("true", "false"):
        raise BadValueError(
            f"column 'starter' must be 'true' or 'false', got {raw_starter!r}"
        )
    points = _parse_int(row[22], "points") if has_points else None
    # LINES_HEADER lists the counts in BoxscoreLine's field order.
    starter = raw_starter == "true"
    return (player_id, player_name, team, game_id, minutes, *counts, plus_minus, starter), points


def parse_csv(games_stream: IO | str, lines_stream: IO | str, *, source: str = "<stream>") -> Dataset:
    """Parse and validate the two-file CSV layout into a dataset.

    Headers must match :data:`GAMES_HEADER` / :data:`LINES_HEADER` exactly
    (the lines table may carry one extra trailing ``points`` column, which is
    verified against the derived value). Decimal separator is ``.`` and the
    encoding is UTF-8 regardless of locale.
    """
    games_rows, _ = _csv_rows(games_stream, GAMES_HEADER, "games")
    games = _parse_games(games_rows, _csv_game, "games row", 2)
    lines_rows, has_points = _csv_rows(lines_stream, LINES_HEADER, "lines")
    return _parse_lines(
        games, lines_rows, partial(_csv_line, has_points), "lines row", 2,
        Provenance(source, "csv"),
    )


def _reject_fields(entry: dict, header: tuple[str, ...], allowed: frozenset[str]) -> NoReturn:
    """Raise for a JSON object whose fields are not ``header`` (plus any
    others in ``allowed``), naming the missing or unknown ones."""
    missing = [c for c in header if c not in entry]
    if missing:
        raise MissingColumnError(f"missing field(s) {', '.join(missing)}")
    unknown = sorted(set(entry) - allowed)
    raise BadValueError(f"unknown field(s) {', '.join(unknown)}")


def _json_game(entry: object) -> tuple:
    if not isinstance(entry, dict):
        raise BadValueError("must be an object")
    if entry.keys() != _GAME_FIELDS:
        _reject_fields(entry, GAMES_HEADER, _GAME_FIELDS)
    game_id, raw_date, competition, home_team, away_team, home, away = _game_cells(entry)
    return str(game_id), raw_date, str(competition), str(home_team), str(away_team), home, away


def _json_line(entry: object) -> tuple[tuple, int | None]:
    if not isinstance(entry, dict):
        raise BadValueError("must be an object")
    keys = entry.keys()
    if keys == _LINE_FIELDS:
        points = None
    elif keys == _LINE_FIELDS_WITH_POINTS:
        points = entry[OPTIONAL_LINES_COLUMN]
        if isinstance(points, bool) or not isinstance(points, int):
            raise BadValueError(f"field 'points' must be an integer, got {points!r}")
    else:
        _reject_fields(entry, LINES_HEADER, _LINE_FIELDS_WITH_POINTS)
    (game_id, player_id, player_name, team, minutes,
     *counts, plus_minus, starter) = _line_cells(entry)
    if isinstance(minutes, bool) or not isinstance(minutes, (int, float)):
        raise BadValueError(f"field 'minutes' must be a number, got {minutes!r}")
    # Ids go through str() as in the games table, so "game_id": 1
    # names the game whose "game_id" is 1.
    texts = str(player_id), str(player_name), str(team), str(game_id)
    return (*texts, minutes, *counts, plus_minus, starter), points


def parse_json(stream: IO | str, *, source: str = "<stream>") -> Dataset:
    """Parse a single JSON document mirroring the CSV layout one-to-one.

    Shape: ``{"games": [...], "lines": [...]}`` with the CSV column names as
    object fields. ``plus_minus`` may be ``null``; ``starter`` is a boolean.
    """
    try:
        doc = json.load(_as_text(stream))
    except json.JSONDecodeError as exc:
        raise BadValueError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict) or set(doc) != {"games", "lines"}:
        raise MissingColumnError("top-level JSON must be an object with 'games' and 'lines'")
    if not isinstance(doc["games"], list) or not isinstance(doc["lines"], list):
        raise BadValueError("'games' and 'lines' must be arrays")
    games = _parse_games(doc["games"], _json_game, "games entry", 1)
    return _parse_lines(
        games, doc["lines"], _json_line, "lines entry", 1, Provenance(source, "json")
    )


def cell_text(value: object) -> str:
    """One value as full-precision cell text: None as the empty cell, a
    boolean as true/false, a float by its repr, a date in ISO-8601, anything
    else by str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def _csv_text(header: tuple[str, ...], fields_of, records: Iterable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for record in records:
        writer.writerow([cell_text(value) for value in fields_of(record)])
    return buf.getvalue()


def serialize_csv(dataset: Dataset) -> tuple[str, str]:
    """Canonical CSV text for (games, lines), preserving dataset order."""
    return (
        _csv_text(GAMES_HEADER, _game_fields, dataset.games.values()),
        _csv_text(LINES_HEADER, _line_fields, dataset.lines),
    )


def serialize_json(dataset: Dataset) -> str:
    """Canonical JSON text mirroring the CSV schema, preserving order."""
    doc = {
        "games": [dict(zip(GAMES_HEADER, _game_fields(g))) for g in dataset.games.values()],
        "lines": [dict(zip(LINES_HEADER, _line_fields(line))) for line in dataset.lines],
    }
    # The game dates are the only values JSON has no type for.
    return json.dumps(doc, indent=2, ensure_ascii=False, default=cell_text) + "\n"


def load_dataset(
    games_path: str | None = None,
    lines_path: str | None = None,
    json_path: str | None = None,
) -> Dataset:
    """Load a dataset from file paths (two CSVs, or one JSON document)."""
    if json_path is not None:
        with open(json_path, "r", encoding="utf-8") as handle:
            return parse_json(handle, source=json_path)
    if games_path is None or lines_path is None:
        raise ValueError("either json_path or both games_path and lines_path are required")
    with open(games_path, "r", encoding="utf-8", newline="") as games_handle:
        with open(lines_path, "r", encoding="utf-8", newline="") as lines_handle:
            return parse_csv(games_handle, lines_handle, source=f"{games_path}+{lines_path}")


def filter_min_games(dataset: Dataset, min_games: int) -> Dataset:
    """Keep only lines of players appearing in at least ``min_games`` games.

    The games table is left untouched; the threshold is inclusive. Applying
    the filter twice is the same as applying it once. When no player falls
    below the threshold the same dataset object comes back.
    """
    if min_games < 1:
        raise ValueError(f"min_games must be >= 1, got {min_games}")
    dropped = {
        player_id
        for player_id, mine in dataset._by_player.items()
        if len(mine) < min_games
    }
    if not dropped:
        return dataset
    # A subset of checked lines against the same games needs no new check.
    kept = tuple(line for line in dataset.lines if line.player_id not in dropped)
    return Dataset._from_checked(dict(dataset.games), kept, dataset.provenance)
