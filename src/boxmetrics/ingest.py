"""Season dataset ingestion: CSV and JSON parsing with full validation.

Two-file relational layout: a games table and a lines table. Every line must
reference a known game and a team that actually played in it, and a player
can appear at most once per game. Validation is total: either a fully
checked :class:`Dataset` comes back, or a typed error naming the offending
row/field is raised and nothing is returned. :func:`_read_lines` reads the
lines of every source (CSV, JSON, or in memory, each line built as a
:class:`~boxmetrics.model.BoxscoreLine`): its decoder turns a block of rows
into columns, and one block check runs on them. A block that fails is read
again one row at a time; the first row that fails is the error, before any
row the CSV reader itself cannot read. Each rule has one home: value types
in :func:`~boxmetrics.model.check_types` (the CSV decoder makes the types
itself), value domains in :func:`~boxmetrics.model.check_fields`, text in
:func:`~boxmetrics.model.check_encodable`, references in
:func:`_check_references`, the points column in :func:`_block_lines`, and
one line per (player_id, game_id) key in :func:`_check_unique`, once the
rows are stored.

:func:`load_dataset` may read a large lines file on two cores (see
``boxmetrics._halves``); the season, or its error, is the one a single
reader gives.

A tied final score is rejected when a season is parsed: every parsed game
has a winner. A :class:`~boxmetrics.model.GameMeta` built in memory may
still hold a tie, and asking for that game's outcome then raises
:class:`~boxmetrics.model.TiedScoreError`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from array import array
from collections import Counter
from contextlib import suppress
from datetime import date
from functools import cached_property, partial
from itertools import compress, islice, repeat
from operator import attrgetter, eq, itemgetter
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .model import BoxscoreLine, GameMeta, _frozen, check_encodable, check_fields, check_types

# What the readers take: a text or binary stream, or the whole text as str or bytes.
_Text = IO | str | bytes

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
_ROW_FIELDS = LINES_HEADER + (OPTIONAL_LINES_COLUMN,)
_ROW_SHAPES = {len(LINES_HEADER): LINES_HEADER, len(_ROW_FIELDS): _ROW_FIELDS}
_GAME_FIELDS = frozenset(GAMES_HEADER)
_LINE_FIELDS = frozenset(LINES_HEADER)
_LINE_FIELDS_WITH_POINTS = _LINE_FIELDS | {OPTIONAL_LINES_COLUMN}
_game_cells = itemgetter(*GAMES_HEADER)
_game_fields = attrgetter(*GAMES_HEADER)
# Rows per block of the lines table: enough that a block's checks run at C
# speed, few enough that its decoded columns stay small next to the season.
_BLOCK_ROWS = 1024


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


class Provenance(NamedTuple):
    """Where a dataset came from; never part of dataset equality."""

    source: str
    format: str


class Dataset:
    """A validated season: games keyed by id plus all player lines.

    A dataset is immutable and, holding a dict, unhashable; two datasets are
    equal when their games and lines are, wherever they came from. It holds
    its lines as one column per line field (see :func:`_new_store`). The tuple
    of :class:`~boxmetrics.model.BoxscoreLine` records, ``lines``, is built
    from those columns on first use and kept.
    """

    def __init__(
        self, games: Mapping[str, GameMeta], lines: Iterable[BoxscoreLine],
        provenance: Provenance = Provenance("<memory>", "memory"),
    ) -> None:
        vars(self).update(games=dict(games), provenance=provenance)
        self.__post_init__(lines)

    __setattr__ = __delattr__ = _frozen

    @cached_property
    def lines(self) -> tuple[BoxscoreLine, ...]:
        """The lines as records, built on first use; no command asks for them."""
        return _lines(self._store)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.games, self.lines) == (other.games, other.lines)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(games={self.games!r}, lines={self.lines!r}, "
            f"provenance={self.provenance!r})"
        )

    def __post_init__(self, lines: Iterable[BoxscoreLine]) -> None:
        for key, game in self.games.items():
            try:
                # A game that is no GameMeta is built as one, by position.
                game = self.games[key] = game if isinstance(game, GameMeta) else GameMeta._make(game)
            except (TypeError, ValueError) as exc:
                raise BadValueError(f"game filed under {key!r}: {exc}") from None
            if key != game.game_id:
                raise BadValueError(f"game filed under {key!r} has game_id {game.game_id!r}")
        store, order = _read_lines(self.games, iter(lines), _memory_columns, "line", 1)
        vars(self).update(_store=store, _order=order)

    @classmethod
    def _from_checked(
        cls, games: dict[str, GameMeta], store: dict, order: array, provenance: Provenance
    ) -> "Dataset":
        """A dataset of checked lines, ``store``, and its :func:`_sorted_rows`."""
        dataset = object.__new__(cls)
        vars(dataset).update(games=games, _store=store, _order=order, provenance=provenance)
        return dataset

    @cached_property
    def _by_player(self) -> dict[str, tuple[int, int]]:
        """Each player's (start, stop) positions in :attr:`_order`, in player
        id order. Built once, on first use."""
        counts = Counter(self._store["player_id"])
        by_player, start = {}, 0
        for player_id in sorted(counts):
            by_player[player_id] = start, start + counts[player_id]
            start += counts[player_id]
        return by_player

    @cached_property
    def _columns(self) -> dict[tuple, object]:
        """Season-wide columns in :attr:`_order`, derived from the store;
        :func:`boxmetrics.indices._column` alone reads and fills them."""
        return {}

    def player_ids(self) -> list[str]:
        return list(self._by_player)

    def lines_for(self, player_id: str) -> list[BoxscoreLine]:
        """All lines for a player in chronological (date, game_id) order.

        The list is the caller's own: changing it leaves the dataset as is.
        """
        start, stop = self._by_player.get(player_id, (0, 0))
        return list(_lines(_take(self._store, self._order[start:stop])))


_FIELDS = BoxscoreLine._fields


def _new_store() -> dict[str, list | array]:
    """Empty season columns, one per line field in record order: ids and
    names as lists of str, minutes as doubles, each count as one byte per
    line (a list of int once a count does not fit), plus_minus as a list,
    where None stays None, and starter as one byte per line."""
    return {
        **{name: [] for name in _FIELDS[:4]},
        "minutes": array("d"),
        **{name: array("B") for name in _FIELDS[5:20]},
        "plus_minus": [],
        "starter": array("B"),
    }


def _extend(store: dict, columns: Iterable[Sequence]) -> None:
    """Append ``columns``, checked values of every line field in record
    order, to ``store``."""
    for name, values in zip(_FIELDS, columns):
        column = store[name]
        if type(column) is not array:
            column += values
        elif column.typecode == "d":
            column += array("d", values)
        else:
            try:
                # bytes() converts at C speed, and rejects a value over 255.
                column.frombytes(bytes(values))
            except ValueError:
                # A count that does not fit: the column holds ints from now on.
                store[name] = [*column, *values]


def _sorted_rows(games: Mapping[str, GameMeta], store: dict) -> array:
    """Every row of ``store`` in (player_id, date, game_id) order: each
    player's lines form one run, chronological, and the lines of one
    (player_id, game_id) key are neighbours, in row order."""
    chronological = sorted(games, key=lambda gid: (games[gid].date, gid))
    rank = dict(zip(chronological, range(len(chronological))))
    ranks = list(map(rank.__getitem__, store["game_id"]))
    order = sorted(range(len(ranks)), key=ranks.__getitem__)
    # A stable sort, so each player's rows stay chronological and in row order.
    order.sort(key=store["player_id"].__getitem__)
    return array("I", order)


def _check_unique(store: dict, order: Sequence[int], where: str, start: int) -> None:
    """Reject the first row of ``store`` whose (player_id, game_id) key an
    earlier row holds, named by ``where`` and its number counted from
    ``start``. In ``order``, :func:`_sorted_rows` of ``store``, the rows of
    one key are neighbours."""
    player_ids, game_ids = store["player_id"], store["game_id"]
    in_order = list(map(game_ids.__getitem__, order))
    # Neighbours in one game: a repeat, or two players' runs meeting.
    pairs = compress(zip(order, order[1:]), map(eq, in_order, in_order[1:]))
    repeats = [b for a, b in pairs if player_ids[a] == player_ids[b]]
    if repeats:
        row = min(repeats)
        key = player_ids[row], game_ids[row]
        raise DuplicateLineError(f"{where} {start + row}: duplicate (player_id, game_id) = {key!r}")


def _pick(column: Sequence, rows: Sequence[int]) -> Sequence:
    """The values of ``column`` at ``rows``, in that order, in a column of the
    same type."""
    values = map(column.__getitem__, rows)
    return array(column.typecode, values) if type(column) is array else list(values)


def _take(store: dict, rows: Sequence[int]) -> dict:
    """The lines of ``store`` at ``rows``, in that order, as a store."""
    return {name: _pick(column, rows) for name, column in store.items()}


def _line_values(store: dict, fields: Sequence[str]) -> Iterator[tuple]:
    """Each line's values of ``fields``, the last of which is starter, in
    row order."""
    return zip(*map(store.__getitem__, fields[:-1]), map(bool, store["starter"]))


def _lines(store: dict) -> tuple[BoxscoreLine, ...]:
    """The records of the lines in ``store``, whose values passed their checks."""
    return tuple(map(tuple.__new__, repeat(BoxscoreLine), _line_values(store, _FIELDS)))


def _as_text(stream: _Text) -> io.TextIOBase:
    """``stream`` as a text stream; bytes are decoded as UTF-8. Text is read
    as a file opened with ``newline=""`` is, so a row may end in ``\n``,
    ``\r\n`` or a lone ``\r``."""
    if isinstance(stream, io.TextIOBase):
        return stream
    data = stream if isinstance(stream, (str, bytes)) else stream.read()
    return io.StringIO(data.decode("utf-8") if isinstance(data, bytes) else data, newline="")


def _located(where: str, exc: ValueError) -> IngestError:
    """``exc`` with ``where`` put in front of its message. A plain
    ``ValueError`` (a model type rejecting a value) becomes a
    :class:`BadValueError`; ingest errors keep their class."""
    cls = type(exc) if isinstance(exc, IngestError) else BadValueError
    return cls(f"{where}: {exc}")


def _pairs(games: Mapping[str, GameMeta]) -> set[tuple[str, str]]:
    """Each (game_id, team) of a team that played in one of ``games``."""
    return {(gid, team) for gid, game in games.items() for team in (game.home_team, game.away_team)}


def _check_references(
    games: Mapping[str, GameMeta],
    pairs: set[tuple[str, str]],
    teams: Sequence[str],
    game_ids: Sequence[str],
) -> None:
    """Each line of these columns must name one of ``games`` and a team that
    played in it (one of ``pairs``); the error names the first bad one."""
    if pairs.issuperset(zip(game_ids, teams)):
        return
    for team, game_id in zip(teams, game_ids):
        if game_id not in games:
            raise DanglingGameRefError(f"unknown game_id {game_id!r}")
        if (game_id, team) not in pairs:
            raise BadValueError(f"team {team!r} did not play in game {game_id!r}")


def _cells(convert, column: Sequence[str], name: str, kind: str) -> list:
    """``convert`` mapped over the cells of a CSV ``column``. The first cell it
    rejects, by ValueError or (for a lookup) KeyError, is named in a
    BadValueError that says it must be ``kind``."""
    try:
        return list(map(convert, column))
    except (ValueError, KeyError):
        for raw in column:
            try:
                convert(raw)
            except (ValueError, KeyError):
                raise BadValueError(f"column {name!r} must be {kind}, got {raw!r}") from None
        raise


# Canonical decimal text of every int a boxscore cell holds in practice,
# team scores included. A lookup here is one hash probe, where int() first
# makes an ASCII copy of the text; any other text goes through int().
_INT_TEXT = {str(n): n for n in range(-200, 256)}
_PLUS_MINUS_TEXT = {**_INT_TEXT, "": None}


def _int_cells(
    column: Sequence[str], name: str, table=_INT_TEXT, convert=int, build=list
) -> Sequence[int]:
    """The integer cells of a CSV ``column``, each looked up in ``table``, as
    ``build`` holds them: a list, or bytes, which hold 0..255. A column with a
    cell the table lacks, or one ``build`` cannot hold, is converted by
    ``convert`` through :func:`_cells` instead, into a list, so it accepts and
    rejects what ``convert`` does."""
    try:
        return build(map(table.__getitem__, column))
    except (KeyError, ValueError):
        return _cells(convert, column, name, "an integer")


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


def _read_lines(
    games: dict[str, GameMeta], rows: Iterator, columns_of, where: str, start: int, read_halves=None
) -> tuple[dict, array]:
    """A new store of the lines of ``rows``, as :func:`_parse_lines` reads
    them (``read_halves``, when given, reads them on two cores, or only its
    first half where it returns False), and the store's :func:`_sorted_rows`,
    over which :func:`_check_unique` ran."""
    store = _new_store()
    args = games, store, rows, columns_of, where, start
    if read_halves is None or not read_halves(*args):
        _parse_lines(*args)
    order = _sorted_rows(games, store)
    _check_unique(store, order, where, start)
    return store, order


def _parse_lines(
    games: dict[str, GameMeta], store: dict, rows: Iterator, columns_of, where: str, start: int
) -> None:
    """Append the lines of ``rows`` to ``store``, read :data:`_BLOCK_ROWS` rows
    at a time, every check but :func:`_check_unique` run. A block that fails
    is read again a row at a time, and the first row that fails is the error,
    named by ``where`` and the row's number counted from ``start``, unless
    :func:`_check_unique` rejects a row stored before it. A row the reader
    cannot read fails after the rows before it."""
    pairs, failure = _pairs(games), None
    while failure is None:
        block = []
        try:
            # extend keeps the rows read before the reader fails.
            block += islice(rows, _BLOCK_ROWS)
        except IngestError as exc:
            failure = exc
        if not block:
            break
        try:
            _block_lines(games, pairs, columns_of(block), store)
        except ValueError:
            for idx, row in enumerate(block, start=start + len(store["game_id"])):
                try:
                    _block_lines(games, pairs, columns_of([row]), store)
                except ValueError as exc:
                    failure = _located(f"{where} {idx}", exc)
                    break
        # Freed before the next block is read, so two never coexist.
        del block
    if failure is not None:
        _check_unique(store, _sorted_rows(games, store), where, start)
        raise failure


def _block_lines(games: dict, pairs: set, decoded: tuple[list, list | None], store: dict) -> None:
    """Append a block ``decoded`` into line-field columns and the points
    column or None to ``store``, once every check passes. A line whose points
    are None has no points to check. The error names the first bad row of a
    block of one."""
    columns, points = decoded
    check_encodable(columns[:4], _FIELDS)
    # Each id text is held once, however many lines repeat it.
    columns[:4] = [list(map(sys.intern, column)) for column in columns[:4]]
    _check_references(games, pairs, columns[2], columns[3])
    check_fields(columns)
    if points is not None:
        # columns[5:10:2] is t2c, t3c, t1c
        derived = [2 * a + 3 * b + c for a, b, c in zip(*columns[5:10:2])]
        if points != derived and (
            bad := next(((p, d) for p, d in zip(points, derived) if p not in (None, d)), None)
        ):
            got, want = bad
            if got < 0:
                raise BadValueError(f"column 'points' must be >= 0, got {got}")
            raise PointsMismatchError(f"points column says {got} but counts derive {want}")
    _extend(store, columns)


def _read_rows(reader: Iterable[list[str]], what: str) -> Iterator[list[str]]:
    """The rows of ``reader``. A row it cannot read (a field over the csv
    module's size limit, or a NUL on Python 3.10) is an error naming it."""
    read = 0
    try:
        for read, row in enumerate(reader, start=1):
            yield row
    except csv.Error as exc:
        raise BadValueError(f"{what} row {read + 1}: {exc}") from None


def _csv_rows(stream: _Text, header: tuple[str, ...], what: str) -> tuple[Iterator, bool]:
    """The rows after a CSV table's header, which must be exactly ``header``,
    and whether the lines table carries the optional points column."""
    rows = _read_rows(csv.reader(_as_text(stream)), what)
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
    home, away = (_int_cells([row[i]], GAMES_HEADER[i])[0] for i in (5, 6))
    return (*row[:5], home, away)


_STARTER = {"true": True, "false": False}


def _csv_columns(has_points: bool, block: list[list[str]]) -> tuple[list, list | None]:
    """A block of rows as line-field columns and the points column or None.
    The error names the first bad cell of a block of one row."""
    width = len(LINES_HEADER) + has_points
    if {*map(len, block)} != {width}:
        raise BadValueError(f"expected {width} fields, got {len(block[0])}")
    game_id, player_id, name, team, minutes, *cells = zip(*block)
    # LINES_HEADER lists the counts in BoxscoreLine's field order. A count
    # column of texts of 0..255 is decoded straight to bytes, in one C pass.
    counts = [
        _int_cells(column, c, build=bytes) for column, c in zip(cells, _COUNT_COLUMNS)
    ]
    columns = [
        player_id, name, team, game_id,
        _cells(float, minutes, "minutes", "decimal minutes"),
        *counts,
        _int_cells(
            cells[15], "plus_minus", _PLUS_MINUS_TEXT, lambda raw: int(raw) if raw else None
        ),
        _cells(_STARTER.__getitem__, cells[16], "starter", "'true' or 'false'"),
    ]
    return columns, _int_cells(cells[17], "points") if has_points else None


def parse_csv(games_stream: _Text, lines_stream: _Text, *, source: str = "<stream>") -> Dataset:
    """Parse and validate the two-file CSV layout into a dataset.

    Headers must match :data:`GAMES_HEADER` / :data:`LINES_HEADER` exactly
    (the lines table may carry one extra trailing ``points`` column, which is
    verified against the derived value). Decimal separator is ``.`` and the
    encoding is UTF-8 regardless of locale. The parse runs in this process.
    """
    return _parse_csv(games_stream, lines_stream, Provenance(source, "csv"))


def _parse_csv(
    games_stream: _Text, lines_stream: _Text, provenance: Provenance, read_halves=None
) -> Dataset:
    """:func:`parse_csv`, its lines read by ``read_halves`` when given."""
    games_rows, _ = _csv_rows(games_stream, GAMES_HEADER, "games")
    games = _parse_games(games_rows, _csv_game, "games row", 2)
    lines_rows, has_points = _csv_rows(lines_stream, LINES_HEADER, "lines")
    columns_of = partial(_csv_columns, has_points)
    checked = _read_lines(games, lines_rows, columns_of, "lines row", 2, read_halves)
    return Dataset._from_checked(games, *checked, provenance)


def _reject_fields(entry: dict, header: tuple[str, ...], allowed: frozenset[str]) -> NoReturn:
    """Raise for a JSON object whose fields are not ``header`` (plus any
    others in ``allowed``), naming the missing or unknown ones."""
    missing = [c for c in header if c not in entry]
    if missing:
        raise MissingColumnError(f"missing field(s) {', '.join(missing)}")
    unknown = sorted(set(entry) - allowed)
    raise BadValueError(f"unknown field(s) {', '.join(unknown)}")


class _Row(tuple):
    """The values of a JSON object whose fields are :data:`_ROW_FIELDS`, with or
    without points, in that order; it prints as that object."""

    __slots__ = ()

    def __repr__(self) -> str:
        return repr(dict(zip(_ROW_FIELDS, self)))


def _json_row(entry: dict) -> dict | _Row:
    """The decoder's ``object_hook``: a lines-shaped object as a :class:`_Row`."""
    if _ROW_SHAPES.get(len(entry)) == tuple(entry):
        return tuple.__new__(_Row, entry.values())
    return entry


def _json_texts(column: Sequence, field: str) -> list[str]:
    """A JSON id or name column as text, numbers (exact types: no bool) by their
    str(). Any other value is rejected."""
    if not {str, int, float}.issuperset(map(type, column)):
        bad = next(value for value in column if type(value) not in (str, int, float))
        raise BadValueError(f"field {field!r} must be a string or a number, got {bad!r}")
    return list(map(str, column))


def _json_game(entry: object) -> list:
    if type(entry) is _Row:
        entry = dict(zip(_ROW_FIELDS, entry))
    if not isinstance(entry, dict):
        raise BadValueError("must be an object")
    if entry.keys() != _GAME_FIELDS:
        _reject_fields(entry, GAMES_HEADER, _GAME_FIELDS)
    cells = list(_game_cells(entry))
    for i in (0, 2, 3, 4):  # game_id, competition, home_team, away_team
        cells[i:i + 1] = _json_texts(cells[i:i + 1], GAMES_HEADER[i])
    return cells


def _json_line(entry: object) -> tuple:
    """A lines entry as its values in :data:`_ROW_FIELDS` order, or the error."""
    if type(entry) is _Row:
        return entry
    if not isinstance(entry, dict):
        raise BadValueError("must be an object")
    if entry.keys() not in (_LINE_FIELDS, _LINE_FIELDS_WITH_POINTS):
        _reject_fields(entry, LINES_HEADER, _LINE_FIELDS_WITH_POINTS)
    return tuple(entry[field] for field in _ROW_FIELDS if field in entry)


def _json_columns(block: list) -> tuple[list, list | None]:
    """:func:`_csv_columns` for JSON entries, each a :class:`_Row` or an object
    with the line fields, or those and points. The points column holds None
    for an entry without points, and is None when no entry has points."""
    if {*map(type, block)} != {_Row}:
        block = list(map(_json_line, block))
    cells = list(zip(*block))
    points = [row[-1] if len(row) > len(LINES_HEADER) else None for row in block]
    given = [value for row, value in zip(block, points) if len(row) > len(LINES_HEADER)]
    minutes = cells[4]
    # Exact types, so no bool passes as a number.
    if {*map(type, given)} - {int}:
        bad = next(value for value in given if type(value) is not int)
        raise BadValueError(f"field 'points' must be an integer, got {bad!r}")
    check_types(cells)
    with suppress(OverflowError):
        # A too large int stays as it is, for check_fields to report.
        minutes = list(map(float, minutes))
    for i in range(5, 20):
        with suppress(ValueError):
            # A count column that fits in bytes, as the CSV decoder makes it,
            # needs no scan in check_fields; any other stays, to be reported.
            cells[i] = bytes(cells[i])
    # Ids go through str() as in the games table, so "game_id": 1
    # names the game whose "game_id" is 1.
    game_id, player_id, name, team = (
        _json_texts(column, field) for field, column in zip(LINES_HEADER[:4], cells)
    )
    columns = [player_id, name, team, game_id, minutes, *cells[5:22]]
    return columns, points if given else None


def _memory_columns(block: list) -> tuple[list, None]:
    """:func:`_csv_columns` for lines given in memory; a line that is no
    :class:`~boxmetrics.model.BoxscoreLine` is built as one, by position."""
    try:
        lines = [line if isinstance(line, BoxscoreLine) else BoxscoreLine._make(line) for line in block]
    except TypeError as exc:  # not the values of 5 to 22 fields
        raise ValueError(f"cannot build a BoxscoreLine: {exc}") from None
    return list(zip(*lines)), None


def parse_json(stream: _Text, *, source: str = "<stream>") -> Dataset:
    """Parse a single JSON document mirroring the CSV layout one-to-one.

    Shape: ``{"games": [...], "lines": [...]}`` with the CSV column names as
    object fields. ``plus_minus`` may be ``null``; ``starter`` is a boolean.
    """
    text = stream if isinstance(stream, (str, bytes)) else stream.read()
    if isinstance(text, bytes):
        # Decoded at once, then given the newlines a text-mode read gives, so
        # that JSON errors in a CRLF document name the same positions. A
        # text-mode read, which translates as it decodes, takes several times
        # as long.
        text = text.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text, object_hook=_json_row)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise BadValueError(f"invalid JSON: {exc}")
    # Freed before the lines are built.
    del text
    if not isinstance(doc, dict) or set(doc) != {"games", "lines"}:
        raise MissingColumnError("top-level JSON must be an object with 'games' and 'lines'")
    if not isinstance(doc["games"], list) or not isinstance(doc["lines"], list):
        raise BadValueError("'games' and 'lines' must be arrays")
    games = _parse_games(doc["games"], _json_game, "games entry", 1)
    checked = _read_lines(games, iter(doc["lines"]), _json_columns, "lines entry", 1)
    return Dataset._from_checked(games, *checked, Provenance(source, "json"))


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


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """RFC-4180 text of ``header`` and ``rows``, each value by :func:`cell_text`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell_text(value) for value in row])
    return buf.getvalue()


def serialize_csv(dataset: Dataset) -> tuple[str, str]:
    """Canonical CSV text for (games, lines), preserving dataset order."""
    return (
        _csv_text(GAMES_HEADER, map(_game_fields, dataset.games.values())),
        _csv_text(LINES_HEADER, _line_values(dataset._store, LINES_HEADER)),
    )


def serialize_json(dataset: Dataset) -> str:
    """Canonical JSON text mirroring the CSV schema, preserving order."""
    doc = {
        "games": [dict(zip(GAMES_HEADER, _game_fields(g))) for g in dataset.games.values()],
        "lines": [
            dict(zip(LINES_HEADER, values))
            for values in _line_values(dataset._store, LINES_HEADER)
        ],
    }
    # The game dates are the only values JSON has no type for.
    return json.dumps(doc, indent=2, ensure_ascii=False, default=cell_text) + "\n"


# A lines file at least this large is read on two cores where it can be (see
# _halves.reader). On a 491 KB file, two cores gained a command no wall time
# and cost it 17-24 ms more CPU.
_TWO_CORES_BYTES = 1 << 20


def load_dataset(
    games_path: str | None = None,
    lines_path: str | None = None,
    json_path: str | None = None,
) -> Dataset:
    """Load a dataset from file paths (two CSVs, or one JSON document).

    A lines CSV of at least 1 MiB is read on two cores when this process may
    run on two CPUs and runs no other thread; the dataset, or the error, is
    the one :func:`parse_csv` gives for the same files.
    """
    if json_path is not None:
        with open(json_path, "rb") as handle:
            return parse_json(handle, source=json_path)
    if games_path is None or lines_path is None:
        raise ValueError("either json_path or both games_path and lines_path are required")
    provenance = Provenance(f"{games_path}+{lines_path}", "csv")
    with open(games_path, "r", encoding="utf-8", newline="") as games_handle:
        with open(lines_path, "r", encoding="utf-8", newline="") as lines_handle:
            read_halves = None
            if os.path.getsize(lines_path) >= _TWO_CORES_BYTES:
                # Only a file this large compiles the code that reads it on two cores.
                from ._halves import reader

                read_halves = reader(lines_path)
            return _parse_csv(games_handle, lines_handle, provenance, read_halves)


def _qualified(dataset: Dataset, min_games: int) -> list[str]:
    """The ids, sorted, of the players with at least ``min_games`` games."""
    if min_games < 1:
        raise ValueError(f"min_games must be >= 1, got {min_games}")
    by_player = dataset._by_player
    return [pid for pid, (start, stop) in by_player.items() if stop - start >= min_games]


def filter_min_games(dataset: Dataset, min_games: int) -> Dataset:
    """Keep only lines of players appearing in at least ``min_games`` games.

    The games table is left untouched; the threshold is inclusive. Applying
    the filter twice is the same as applying it once. When no player falls
    below the threshold the same dataset object comes back.
    """
    kept = set(_qualified(dataset, min_games))
    if len(kept) == len(dataset._by_player):
        return dataset
    # A subset of checked lines against the same games needs no new check.
    player_ids = dataset._store["player_id"]
    rows = list(compress(range(len(player_ids)), map(kept.__contains__, player_ids)))
    store = _take(dataset._store, rows)
    order = _sorted_rows(dataset.games, store)
    return Dataset._from_checked(dict(dataset.games), store, order, dataset.provenance)
