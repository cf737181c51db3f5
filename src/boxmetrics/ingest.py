"""Season dataset ingestion: CSV and JSON parsing with full validation.

Two-file relational layout: a games table and a lines table. Every line must
reference a known game and a team that actually played in it, and a player
can appear at most once per game. Validation is total: either a fully
checked :class:`Dataset` comes back, or a typed error naming the offending
row/field is raised and nothing is returned.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from typing import IO, Iterable, Mapping

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
            game = self.games.get(line.game_id)
            if game is None:
                raise DanglingGameRefError(
                    f"line for player {line.player_id!r} references unknown "
                    f"game_id {line.game_id!r}"
                )
            if line.team not in (game.home_team, game.away_team):
                raise BadValueError(
                    f"line for player {line.player_id!r} in game {line.game_id!r}: "
                    f"team {line.team!r} did not play in that game"
                )
            key = (line.player_id, line.game_id)
            if key in seen:
                raise DuplicateLineError(
                    f"duplicate line for player {line.player_id!r} in game "
                    f"{line.game_id!r}"
                )
            seen.add(key)

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
        # A player has at most one line per game (checked in __post_init__).
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


def _parse_int(raw: str, column: str, where: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise BadValueError(f"{where}: column {column!r} must be an integer, got {raw!r}")


def _parse_count(raw: str, column: str, where: str) -> int:
    value = _parse_int(raw, column, where)
    if value < 0:
        raise BadValueError(f"{where}: column {column!r} must be >= 0, got {value}")
    return value


def _parse_minutes(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadValueError(f"{where}: column 'minutes' must be decimal minutes, got {raw!r}")
    if value < 0:
        raise BadValueError(f"{where}: column 'minutes' must be >= 0, got {value}")
    return value


def _check_header(actual: Iterable[str], expected: tuple[str, ...], what: str) -> bool:
    """Validate an exact, ordered header. Returns True when the optional
    points column is present on the lines table."""
    actual = tuple(actual)
    if actual == expected:
        return False
    if what == "lines" and actual == expected + (OPTIONAL_LINES_COLUMN,):
        return True
    missing = [c for c in expected if c not in actual]
    if missing:
        raise MissingColumnError(f"{what} header: missing column(s) {', '.join(missing)}")
    raise BadValueError(
        f"{what} header: expected exactly {','.join(expected)}"
        f"{' (optionally + points)' if what == 'lines' else ''}, got {','.join(actual)}"
    )


def _build_game(values: Mapping[str, object], where: str) -> GameMeta:
    raw_date = values["date"]
    try:
        parsed_date = date.fromisoformat(str(raw_date))
    except ValueError:
        raise BadValueError(f"{where}: column 'date' must be ISO-8601, got {raw_date!r}")
    if isinstance(values["home_score"], str):
        home = _parse_count(values["home_score"], "home_score", where)
        away = _parse_count(values["away_score"], "away_score", where)
    else:
        home = _json_count(values["home_score"], "home_score", where)
        away = _json_count(values["away_score"], "away_score", where)
    if home == away:
        raise BadValueError(f"{where}: tied final score {home}-{away} is not a valid result")
    try:
        return GameMeta(
            game_id=str(values["game_id"]),
            date=parsed_date,
            competition=str(values["competition"]),
            home_team=str(values["home_team"]),
            away_team=str(values["away_team"]),
            home_score=home,
            away_score=away,
        )
    except ValueError as exc:
        raise BadValueError(f"{where}: {exc}")


def _build_line(
    values: Mapping[str, object],
    counts: Mapping[str, int],
    minutes: float,
    plus_minus: int | None,
    starter: bool,
    points: int | None,
    where: str,
) -> BoxscoreLine:
    try:
        line = BoxscoreLine(
            player_id=str(values["player_id"]),
            player_name=str(values["player_name"]),
            team=str(values["team"]),
            game_id=str(values["game_id"]),
            minutes=minutes,
            plus_minus=plus_minus,
            starter=starter,
            **counts,
        )
    except ValueError as exc:
        raise BadValueError(f"{where}: {exc}")
    if points is not None and points != derived_points(line):
        raise PointsMismatchError(
            f"{where}: points column says {points} but counts derive "
            f"{derived_points(line)}"
        )
    return line


def parse_csv(games_stream: IO | str, lines_stream: IO | str, *, source: str = "<stream>") -> Dataset:
    """Parse and validate the two-file CSV layout into a dataset.

    Headers must match :data:`GAMES_HEADER` / :data:`LINES_HEADER` exactly
    (the lines table may carry one extra trailing ``points`` column, which is
    verified against the derived value). Decimal separator is ``.`` and the
    encoding is UTF-8 regardless of locale.
    """
    games: dict[str, GameMeta] = {}
    games_rows = csv.reader(_as_text(games_stream))
    try:
        header = next(games_rows)
    except StopIteration:
        raise MissingColumnError("games file is empty; expected a header row")
    _check_header(header, GAMES_HEADER, "games")
    for idx, row in enumerate(games_rows, start=2):
        where = f"games row {idx}"
        if len(row) != len(GAMES_HEADER):
            raise BadValueError(f"{where}: expected {len(GAMES_HEADER)} fields, got {len(row)}")
        values = dict(zip(GAMES_HEADER, row))
        game = _build_game(values, where)
        if game.game_id in games:
            raise DuplicateGameError(f"{where}: duplicate game_id {game.game_id!r}")
        games[game.game_id] = game

    lines: list[BoxscoreLine] = []
    seen: set[tuple[str, str]] = set()
    lines_rows = csv.reader(_as_text(lines_stream))
    try:
        header = next(lines_rows)
    except StopIteration:
        raise MissingColumnError("lines file is empty; expected a header row")
    has_points = _check_header(header, LINES_HEADER, "lines")
    expected_len = len(LINES_HEADER) + (1 if has_points else 0)
    count_columns = LINES_HEADER[5:20]  # t2c .. fpr
    for idx, row in enumerate(lines_rows, start=2):
        where = f"lines row {idx}"
        if len(row) != expected_len:
            raise BadValueError(f"{where}: expected {expected_len} fields, got {len(row)}")
        values = dict(zip(LINES_HEADER, row))
        counts = {c: _parse_count(values[c], c, where) for c in count_columns}
        minutes = _parse_minutes(values["minutes"], where)
        raw_pm = values["plus_minus"]
        plus_minus = None if raw_pm == "" else _parse_int(raw_pm, "plus_minus", where)
        raw_starter = values["starter"]
        if raw_starter not in ("true", "false"):
            raise BadValueError(
                f"{where}: column 'starter' must be 'true' or 'false', got {raw_starter!r}"
            )
        starter = raw_starter == "true"
        points = _parse_count(row[-1], "points", where) if has_points else None
        if values["game_id"] not in games:
            raise DanglingGameRefError(
                f"{where}: unknown game_id {values['game_id']!r}"
            )
        line = _build_line(values, counts, minutes, plus_minus, starter, points, where)
        game = games[line.game_id]
        if line.team not in (game.home_team, game.away_team):
            raise BadValueError(
                f"{where}: team {line.team!r} did not play in game {line.game_id!r}"
            )
        key = (line.player_id, line.game_id)
        if key in seen:
            raise DuplicateLineError(
                f"{where}: duplicate (player_id, game_id) = {key!r}"
            )
        seen.add(key)
        lines.append(line)

    return Dataset(games=games, lines=tuple(lines), provenance=Provenance(source, "csv"))


def _json_count(value: object, column: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadValueError(f"{where}: field {column!r} must be an integer, got {value!r}")
    if value < 0:
        raise BadValueError(f"{where}: field {column!r} must be >= 0, got {value}")
    return value


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

    games: dict[str, GameMeta] = {}
    for idx, entry in enumerate(doc["games"], start=1):
        where = f"games entry {idx}"
        if not isinstance(entry, dict):
            raise BadValueError(f"{where}: must be an object")
        missing = [c for c in GAMES_HEADER if c not in entry]
        if missing:
            raise MissingColumnError(f"{where}: missing field(s) {', '.join(missing)}")
        unknown = sorted(set(entry) - set(GAMES_HEADER))
        if unknown:
            raise BadValueError(f"{where}: unknown field(s) {', '.join(unknown)}")
        game = _build_game(entry, where)
        if game.game_id in games:
            raise DuplicateGameError(f"{where}: duplicate game_id {game.game_id!r}")
        games[game.game_id] = game

    lines: list[BoxscoreLine] = []
    seen: set[tuple[str, str]] = set()
    count_columns = LINES_HEADER[5:20]
    allowed = set(LINES_HEADER) | {OPTIONAL_LINES_COLUMN}
    for idx, entry in enumerate(doc["lines"], start=1):
        where = f"lines entry {idx}"
        if not isinstance(entry, dict):
            raise BadValueError(f"{where}: must be an object")
        missing = [c for c in LINES_HEADER if c not in entry]
        if missing:
            raise MissingColumnError(f"{where}: missing field(s) {', '.join(missing)}")
        unknown = sorted(set(entry) - allowed)
        if unknown:
            raise BadValueError(f"{where}: unknown field(s) {', '.join(unknown)}")
        counts = {c: _json_count(entry[c], c, where) for c in count_columns}
        raw_minutes = entry["minutes"]
        if isinstance(raw_minutes, bool) or not isinstance(raw_minutes, (int, float)):
            raise BadValueError(f"{where}: field 'minutes' must be a number, got {raw_minutes!r}")
        minutes = _parse_minutes(str(raw_minutes), where)
        raw_pm = entry["plus_minus"]
        if raw_pm is None:
            plus_minus = None
        elif isinstance(raw_pm, bool) or not isinstance(raw_pm, int):
            raise BadValueError(f"{where}: field 'plus_minus' must be an integer or null")
        else:
            plus_minus = raw_pm
        if not isinstance(entry["starter"], bool):
            raise BadValueError(f"{where}: field 'starter' must be a boolean")
        points = (
            _json_count(entry[OPTIONAL_LINES_COLUMN], "points", where)
            if OPTIONAL_LINES_COLUMN in entry
            else None
        )
        if entry["game_id"] not in games:
            raise DanglingGameRefError(f"{where}: unknown game_id {entry['game_id']!r}")
        line = _build_line(entry, counts, minutes, plus_minus, entry["starter"], points, where)
        game = games[line.game_id]
        if line.team not in (game.home_team, game.away_team):
            raise BadValueError(
                f"{where}: team {line.team!r} did not play in game {line.game_id!r}"
            )
        key = (line.player_id, line.game_id)
        if key in seen:
            raise DuplicateLineError(f"{where}: duplicate (player_id, game_id) = {key!r}")
        seen.add(key)
        lines.append(line)

    return Dataset(games=games, lines=tuple(lines), provenance=Provenance(source, "json"))


def _format_minutes(minutes: float) -> str:
    return repr(minutes)


def _game_row(game: GameMeta) -> list[str]:
    return [
        game.game_id,
        game.date.isoformat(),
        game.competition,
        game.home_team,
        game.away_team,
        str(game.home_score),
        str(game.away_score),
    ]


def _line_row(line: BoxscoreLine) -> list[str]:
    return [
        line.game_id,
        line.player_id,
        line.player_name,
        line.team,
        _format_minutes(line.minutes),
        str(line.t2c),
        str(line.t2f),
        str(line.t3c),
        str(line.t3f),
        str(line.t1c),
        str(line.t1f),
        str(line.rd),
        str(line.ro),
        str(line.a),
        str(line.br),
        str(line.bp),
        str(line.tf),
        str(line.tr),
        str(line.fpc),
        str(line.fpr),
        "" if line.plus_minus is None else str(line.plus_minus),
        "true" if line.starter else "false",
    ]


def serialize_csv(dataset: Dataset) -> tuple[str, str]:
    """Canonical CSV text for (games, lines), preserving dataset order."""
    games_buf = io.StringIO()
    writer = csv.writer(games_buf)
    writer.writerow(GAMES_HEADER)
    for game in dataset.games.values():
        writer.writerow(_game_row(game))
    lines_buf = io.StringIO()
    writer = csv.writer(lines_buf)
    writer.writerow(LINES_HEADER)
    for line in dataset.lines:
        writer.writerow(_line_row(line))
    return games_buf.getvalue(), lines_buf.getvalue()


def serialize_json(dataset: Dataset) -> str:
    """Canonical JSON text mirroring the CSV schema, preserving order."""
    doc = {
        "games": [dict(zip(GAMES_HEADER, _game_row(g))) for g in dataset.games.values()],
        "lines": [],
    }
    for game_obj, game in zip(doc["games"], dataset.games.values()):
        game_obj["home_score"] = game.home_score
        game_obj["away_score"] = game.away_score
    for line in dataset.lines:
        entry: dict[str, object] = dict(zip(LINES_HEADER, _line_row(line)))
        entry["minutes"] = line.minutes
        for column in LINES_HEADER[5:20]:
            entry[column] = getattr(line, column)
        entry["plus_minus"] = line.plus_minus
        entry["starter"] = line.starter
        doc["lines"].append(entry)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


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
    kept = tuple(line for line in dataset.lines if line.player_id not in dropped)
    return Dataset(games=dataset.games, lines=kept, provenance=dataset.provenance)
