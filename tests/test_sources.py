"""One season, or one fault in it, read from every source: the same dataset or
the same error, whatever the source.

A season of ``conftest.random_seasons`` is spelled three ways:
- CSV text, read by ``parse_csv`` from a ``str``, ``bytes`` and a text stream,
  and by ``load_dataset`` from files, on one core and on two;
- a JSON document, read by ``parse_json`` from a ``str``, ``bytes`` and a
  binary stream;
- values in memory, given to ``Dataset(games, records)`` and
  ``Dataset(games, tuples)``.

At most one value of one game or line is faulty. Every source that can spell
the fault must give the naive parsers' dataset, or the same error class and
message once the location prefix is stripped, naming the same game or line.
Where one family of sources may part from the others, ``_DIVERGENCES`` says
how, citing the README sentence that allows it.

Tier-1 runs a few examples; ``BOXMETRICS_SOURCE_EXAMPLES=200`` runs more (see
README "Tests").
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxmetrics import BoxscoreLine, Dataset, GameMeta, _halves, derived_points, ingest
from boxmetrics.ingest import (
    GAMES_HEADER,
    LINES_HEADER,
    BadValueError,
    cell_text,
    load_dataset,
    parse_csv,
    parse_json,
)
from conftest import random_seasons
from oracles import naive_parse_csv, naive_parse_json

# Examples per fault kind.
_EXAMPLES = int(os.environ.get("BOXMETRICS_SOURCE_EXAMPLES", "5"))

_CSV, _JSON, _MEMORY = "csv", "json", "memory"
_COUNTS = LINES_HEADER[5:20]
_SCORES = ("home_score", "away_score")
_LINE_TEXTS = ("game_id", "player_id", "player_name", "team")
_GAME_TEXTS = ("game_id", "competition", "home_team", "away_team")
_SURROGATES = ("\ud800x", "a\udfff", "\udc80")
_NOT_TEXT = (None, True, [1, 2], {"a": 1})
_HUGE = 10**400  # no float holds it
# The value of the game's home side: a tie, or a game of one team.
_HOME = object()

# kind -> (table, the fields it goes in, its CSV cell texts, its JSON and
# in-memory values). The i-th CSV text and the i-th value are one fault; a
# family without values cannot spell it, and no record holds points or a
# date's text.
_FAULTS = {
    "count_negative": ("lines", _COUNTS, ("-1", "-7"), (-1, -7)),
    "count_too_large": ("lines", _COUNTS, (str(_HUGE),), (_HUGE,)),
    "count_not_integer": ("lines", _COUNTS, ("x", "2.5", "true", ""), (True, 2.5, "3", None)),
    "minutes_negative": ("lines", ("minutes",), ("-1.5", "-0.25"), (-1.5, -0.25)),
    "minutes_non_finite": (
        "lines", ("minutes",), ("nan", "inf", "-inf"), (math.nan, math.inf, -math.inf)
    ),
    "minutes_too_large": ("lines", ("minutes",), (str(_HUGE), str(-_HUGE)), (_HUGE, -_HUGE)),
    "minutes_not_number": (
        "lines", ("minutes",), ("abc", "", "1,5"), (True, False, "25", "12", None)
    ),
    "plus_minus_bad": ("lines", ("plus_minus",), ("1.5", "x"), (1.5, "3", True)),
    "starter_bad": ("lines", ("starter",), ("TRUE", "yes", "1", ""), ("true", 1, None)),
    "empty_player_id": ("lines", ("player_id",), ("",), ("",)),
    "empty_reference": ("lines", ("team", "game_id"), ("",), ("",)),
    "dangling_game": ("lines", ("game_id",), ("G999",), ("G999",)),
    "wrong_team": ("lines", ("team",), ("XXX",), ("XXX",)),
    "text_not_utf8": ("lines", _LINE_TEXTS, _SURROGATES, _SURROGATES),
    "text_not_string": ("lines", _LINE_TEXTS, (), _NOT_TEXT),
    "text_number": ("lines", _LINE_TEXTS, (), (7, 2.5)),
    "points_mismatch": ("lines", ("points",), (1, 5), (1, 5)),  # added to the true points
    "points_negative": ("lines", ("points",), ("-1",), (-1,)),
    "tied": ("games", ("away_score",), (_HOME,), (_HOME,)),
    "same_teams": ("games", ("away_team",), (_HOME,), (_HOME,)),
    "negative_score": ("games", _SCORES, ("-80",), (-80,)),
    "score_not_integer": ("games", _SCORES, ("x", "8.5", ""), (True, 80.0, "80", None)),
    "bad_date": ("games", ("date",), ("2014-13-01",), ("2014-13-01",)),
    "game_text_not_utf8": ("games", _GAME_TEXTS, _SURROGATES, _SURROGATES),
    "game_text_not_string": ("games", _GAME_TEXTS, (), _NOT_TEXT),
    "game_text_number": ("games", _GAME_TEXTS, (), (7, 2.5)),
}


def _names_the_fault(outcome: tuple, fault: dict) -> bool:
    """A BadValueError naming the fault's game or line and its field."""
    return outcome[:3] == (BadValueError, fault["table"], fault["at"]) and (
        fault["field"] in outcome[3]
    )


def _is_a_dataset(outcome: tuple, fault: dict) -> bool:
    return outcome[0] is Dataset


# Where one family may part from the others: (the kinds, the family, what it
# gives instead, the README text that allows it, quoted in pieces).
_DIVERGENCES = (
    (
        ("text_number", "text_not_string", "game_text_number", "game_text_not_string"),
        _MEMORY, _names_the_fault,
        ("A number is read as its `str()`, in the games and the lines alike",
         "A `BoxscoreLine` needs its ids to be non-empty `str`, its name a `str`",
         "A `GameMeta` needs its `game_id` to be a non-empty `str` and its `competition`, "
         "`home_team` and `away_team` to be `str`"),
    ),
    (("tied",), _MEMORY, _is_a_dataset, ("a `GameMeta` built in memory may still hold a tie",)),
    (
        ("count_not_integer", "minutes_not_number", "plus_minus_bad", "starter_bad",
         "score_not_integer"),
        _CSV, _names_the_fault,
        ("A CSV cell is text, so a cell that its column cannot hold is named as the CSV "
         "decoder reads it",),
    ),
    (
        ("minutes_too_large",), _CSV, _names_the_fault,
        ("The digits of `10**400` in a CSV minutes cell read as `inf`.",),
    ),
    (
        ("empty_reference",), _MEMORY, _names_the_fault,
        ("A parser reports an empty `team` or `game_id` as the reference it breaks",
         "a `BoxscoreLine` rejects it itself"),
    ),
)
_PARTING = {kind: (family, check) for kinds, family, check, _ in _DIVERGENCES for kind in kinds}


# A family that cannot spell the fault.
_UNSPELLED = object()


@st.composite
def faulty_seasons(draw, kind: str | None) -> tuple:
    """(season, its games and lines as dicts of values, each line with its
    points, the fault of ``kind`` or None). A fault holds its kind, table,
    position and field, and the value each family spells there."""
    seasons = random_seasons()
    if kind is not None and _FAULTS[kind][0] == "lines":
        seasons = seasons.filter(lambda drawn: drawn[0].lines)
    season, _ = draw(seasons)
    games = [game._asdict() for game in season.games.values()]
    lines = [{**line._asdict(), "points": derived_points(line)} for line in season.lines]
    if draw(st.booleans()):
        # Integral minutes as ints, in JSON and in memory alike.
        for line in lines:
            if line["minutes"].is_integer():
                line["minutes"] = int(line["minutes"])
    if kind is None:
        return season, games, lines, None
    table, fields, texts, values = _FAULTS[kind]
    rows = games if table == "games" else lines
    at, field = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(fields))
    i = draw(st.integers(0, max(len(texts), len(values)) - 1))
    fault = dict(kind=kind, table=table, at=at, field=field)
    for family, choices in ((_CSV, texts), (_JSON, values), (_MEMORY, values)):
        value = choices[i % len(choices)] if choices else _UNSPELLED
        if value is _HOME:
            value = rows[at][field.replace("away", "home")]
        elif kind == "points_mismatch":
            value += rows[at]["points"]
        fault[family] = value
    if field in ("points", "date"):
        fault[_MEMORY] = _UNSPELLED
    return season, games, lines, fault


def _spelled(rows: list[dict], fault: dict | None, table: str, family: str) -> list[dict]:
    """``rows`` with ``fault`` put in, as ``family`` spells it."""
    if fault is None or fault["table"] != table:
        return rows
    rows = list(rows)
    rows[fault["at"]] = {**rows[fault["at"]], fault["field"]: fault[family]}
    return rows


def _csv_table(header: tuple, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([cell_text(row[field]) for field in header] for row in rows)
    return buf.getvalue()


def _spellings(games: list[dict], lines: list[dict], fault: dict | None, with_points: bool) -> dict:
    """family -> the season as it spells it, for each family that can spell
    ``fault``: the CSV tables' texts, the JSON document's text, or each game's
    valid id with the games' and the lines' values."""
    spellings = {}
    header = LINES_HEADER + ("points",) * with_points
    if fault is None or fault[_CSV] is not _UNSPELLED:
        spellings[_CSV] = (
            _csv_table(GAMES_HEADER, _spelled(games, fault, "games", _CSV)),
            _csv_table(header, _spelled(lines, fault, "lines", _CSV)),
        )
    if fault is None or fault[_JSON] is not _UNSPELLED:
        doc = {
            "games": _spelled(games, fault, "games", _JSON),
            "lines": [
                {field: row[field] for field in header}
                for row in _spelled(lines, fault, "lines", _JSON)
            ],
        }
        # The dates are the only values JSON has no type for.
        spellings[_JSON] = (json.dumps(doc, default=cell_text),)
    if fault is None or fault[_MEMORY] is not _UNSPELLED:
        spellings[_MEMORY] = (
            [game["game_id"] for game in games],
            _spelled(games, fault, "games", _MEMORY),
            [
                {field: row[field] for field in BoxscoreLine._fields}
                for row in _spelled(lines, fault, "lines", _MEMORY)
            ],
        )
    return spellings


def _load(games_text: str, lines_text: str, two_cores: bool) -> Dataset:
    """``load_dataset`` on files of these texts, its lines read on two cores
    (the size threshold and the CPU check patched) or on one."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = os.path.join(tmp, "games.csv"), os.path.join(tmp, "lines.csv")
        for path, text in zip(paths, (games_text, lines_text)):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        if not two_cores:
            return load_dataset(*paths)
        read_halves, started = _halves.read_halves, []

        def spy(*args):
            started.append(True)
            return read_halves(*args)

        with patch.object(ingest, "_TWO_CORES_BYTES", 0), \
                patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), \
                patch.object(_halves, "read_halves", spy):
            dataset = load_dataset(*paths)
        assert started, "the lines were read on one core"
        return dataset


def _built(record, values: dict, where: str):
    """``record(**values)``; its own error, a plain ValueError, named as a
    source names a game or a line."""
    try:
        return record(**values)
    except ValueError as exc:
        assert type(exc) is ValueError
        raise BadValueError(f"{where}: {exc}") from None


def _csv_sources(games_text: str, lines_text: str) -> dict:
    sources = {
        "parse_csv str": lambda: parse_csv(games_text, lines_text),
        "parse_csv text stream": lambda: parse_csv(
            io.StringIO(games_text, newline=""), io.StringIO(lines_text, newline="")
        ),
    }
    try:
        encoded = games_text.encode("utf-8"), lines_text.encode("utf-8")
    except UnicodeEncodeError:
        return sources  # a lone surrogate: no bytes or file spells it
    return {
        **sources,
        "parse_csv bytes": lambda: parse_csv(*encoded),
        "load_dataset, one core": lambda: _load(games_text, lines_text, False),
        "load_dataset, two cores": lambda: _load(games_text, lines_text, True),
    }


def _json_sources(text: str) -> dict:
    return {
        "parse_json str": lambda: parse_json(text),
        "parse_json bytes": lambda: parse_json(text.encode("utf-8")),
        "parse_json binary stream": lambda: parse_json(io.BytesIO(text.encode("utf-8"))),
    }


def _memory_sources(ids: list, games: list[dict], lines: list[dict]) -> dict:
    # Each game is filed under its valid id, whatever the fault makes of it.
    return {
        "Dataset(games, records)": lambda: Dataset(
            {gid: _built(GameMeta, game, f"games entry {i}")
             for i, (gid, game) in enumerate(zip(ids, games), 1)},
            [_built(BoxscoreLine, line, f"line {i}") for i, line in enumerate(lines, 1)],
        ),
        "Dataset(games, tuples)": lambda: Dataset(
            {gid: tuple(game.values()) for gid, game in zip(ids, games)},
            [tuple(line.values()) for line in lines],
        ),
    }


_SOURCES = {_CSV: _csv_sources, _JSON: _json_sources, _MEMORY: _memory_sources}
_ORACLES = {_CSV: naive_parse_csv, _JSON: naive_parse_json}
_LOCATED = re.compile(r"(lines row|lines entry|line|games row|games entry) (\d+): (.*)", re.S)
_FILED = re.compile(r"game filed under ('[^']*'): (.*)", re.S)


def _outcome(call, game_ids: list[str]) -> tuple:
    """(Dataset, repr of its games, repr of its lines), or (error class, table,
    0-based position of the game or line it names, message without its
    location)."""
    try:
        dataset = call()
    except ValueError as exc:
        if located := _LOCATED.fullmatch(str(exc)):
            where, number, message = located.groups()
            first = 2 if where.endswith("row") else 1
            table = "games" if where.startswith("games") else "lines"
            return type(exc), table, int(number) - first, message
        if filed := _FILED.fullmatch(str(exc)):
            return type(exc), "games", game_ids.index(ast.literal_eval(filed[1])), filed[2]
        return type(exc), None, None, str(exc)
    return Dataset, repr(dataset.games), repr(dataset.lines)


def _agrees_with_oracle(outcome: tuple, expected: tuple) -> bool:
    """The oracle's dataset, or its error class naming the same game or line
    (the naive parsers word some messages their own way)."""
    return outcome == expected if expected[0] is Dataset else outcome[:3] == expected[:3]


@pytest.mark.parametrize("kind", (None, *_FAULTS))
@settings(max_examples=_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), with_points=st.booleans())
def test_every_source_reads_a_season_or_its_fault_alike(kind, data, with_points):
    season, games, lines, fault = data.draw(faulty_seasons(kind))
    with_points = with_points or (fault is not None and fault["field"] == "points")
    game_ids = [game["game_id"] for game in games]
    got = {}
    for family, spelling in _spellings(games, lines, fault, with_points).items():
        outcomes = {
            name: _outcome(call, game_ids) for name, call in _SOURCES[family](*spelling).items()
        }
        # One outcome per family, whatever the source within it.
        assert len(set(outcomes.values())) == 1, (fault, outcomes)
        got[family] = next(iter(outcomes.values()))
        if family in _ORACLES:
            expected = _outcome(lambda: _ORACLES[family](*spelling), game_ids)
            assert _agrees_with_oracle(got[family], expected), (fault, got[family], expected)
    if fault is None:
        assert set(got.values()) == {_outcome(lambda: season, game_ids)}
        return
    family, check = _PARTING.get(fault["kind"], (None, None))
    if family in got:
        assert check(got.pop(family), fault), (fault, got)
    # The families left agree.
    assert len(set(got.values())) <= 1, (fault, got)


def test_every_divergence_cites_the_readme():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split())
    for kinds, _, _, quotes in _DIVERGENCES:
        assert set(kinds) <= set(_FAULTS)
        for quote in quotes:
            assert quote in readme, quote
