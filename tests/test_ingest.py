"""CSV/JSON parsing, validation errors, round-trips and the games filter."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
import tracemalloc
from datetime import date
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmetrics import BoxscoreLine, Dataset, GameMeta, derived_points, filter_min_games, ingest
from boxmetrics import _halves
from boxmetrics.ingest import (
    BadValueError,
    DanglingGameRefError,
    DuplicateGameError,
    DuplicateLineError,
    IngestError,
    MissingColumnError,
    PointsMismatchError,
    cell_text,
    load_dataset,
    parse_csv,
    parse_json,
    serialize_csv,
    serialize_json,
)
from conftest import build_season, make_game, make_line, random_seasons
from test_acceptance import _synthetic_season
from oracles import (
    naive_filter_min_games,
    naive_int_cells,
    naive_lines_for,
    naive_parse_csv,
    naive_parse_json,
    naive_player_ids,
    naive_serialize_csv,
    naive_serialize_json,
)

GAMES_CSV = (
    "game_id,date,competition,home_team,away_team,home_score,away_score\r\n"
    "G01,2014-01-05,liga,MAD,BCN,80,75\r\n"
    "G02,2014-01-12,liga,BCN,MAD,90,70\r\n"
)
LINES_HEADER = (
    "game_id,player_id,player_name,team,minutes,t2c,t2f,t3c,t3f,t1c,t1f,"
    "rd,ro,a,br,bp,tf,tr,fpc,fpr,plus_minus,starter"
)
LINES_CSV = (
    LINES_HEADER + "\r\n"
    "G01,p1,Arco,MAD,25.5,4,2,1,1,3,1,5,2,4,2,1,1,0,2,3,7,true\r\n"
    "G02,p1,Arco,MAD,30.0,2,5,0,2,2,2,3,1,2,1,3,0,1,3,1,-10,false\r\n"
)


def test_parse_csv_two_game_fixture():
    dataset = parse_csv(GAMES_CSV, LINES_CSV)
    assert len(dataset.games) == 2
    assert len(dataset.lines) == 2
    first, second = dataset.lines
    assert first.minutes == 25.5
    assert first.starter and not second.starter
    assert second.plus_minus == -10
    # points derive from counts: 2*4 + 3*1 + 3 and 2*2 + 0 + 2
    assert derived_points(first) == 14
    assert derived_points(second) == 6
    assert dataset.games["G01"].date == date(2014, 1, 5)


def test_parse_csv_empty_lines_file():
    dataset = parse_csv(GAMES_CSV, LINES_HEADER + "\r\n")
    assert len(dataset.lines) == 0
    assert len(dataset.games) == 2


def test_parse_csv_dangling_game_ref():
    bad = LINES_CSV.replace("G02,p1", "G999,p1")
    with pytest.raises(DanglingGameRefError, match="G999"):
        parse_csv(GAMES_CSV, bad)


def test_parse_csv_missing_column():
    with pytest.raises(MissingColumnError, match="minutes"):
        parse_csv(GAMES_CSV, LINES_HEADER.replace("minutes,", "") + "\r\n")


def test_parse_csv_reordered_header_rejected():
    swapped = LINES_HEADER.replace("t2c,t2f", "t2f,t2c")
    with pytest.raises(BadValueError, match="header"):
        parse_csv(GAMES_CSV, swapped + "\r\n")


def test_parse_csv_bad_values():
    with pytest.raises(BadValueError, match="t2c"):
        parse_csv(GAMES_CSV, LINES_CSV.replace("25.5,4", "25.5,x"))
    with pytest.raises(BadValueError, match="t2c"):
        parse_csv(GAMES_CSV, LINES_CSV.replace("25.5,4", "25.5,-4"))
    with pytest.raises(BadValueError, match="minutes"):
        parse_csv(GAMES_CSV, LINES_CSV.replace("G01,p1,Arco,MAD,25.5", "G01,p1,Arco,MAD,-1"))
    with pytest.raises(BadValueError, match="starter"):
        parse_csv(GAMES_CSV, LINES_CSV.replace("7,true", "7,TRUE"))


# A cell over the csv module's field size limit (131,072 characters, left as
# it is), and a NUL, which Python 3.10's reader rejects and later ones read.
_HUGE_CELL = "x" * 200_000
_NUL_CELL = "Ca\x00no"


@pytest.mark.parametrize("cell", [_HUGE_CELL, _NUL_CELL], ids=["huge", "nul"])
@pytest.mark.parametrize("table", ["games", "lines"])
def test_parse_csv_names_the_row_the_csv_reader_cannot_read(table, cell):
    # csv.Error is no ValueError: it comes out as a BadValueError naming the
    # row, counted as the table's other errors count it (header = row 1).
    texts = dict(zip(("games", "lines"), serialize_csv(build_season())))
    old = {"games": "liga", "lines": "Cano"}[table]
    row = next(i for i, text in enumerate(texts[table].splitlines(), 1) if old in text)
    texts[table] = texts[table].replace(old, cell, 1)
    if cell == _NUL_CELL and sys.version_info >= (3, 11):
        assert cell in "".join(serialize_csv(parse_csv(texts["games"], texts["lines"])))
        return
    with pytest.raises(BadValueError) as error:
        parse_csv(texts["games"], texts["lines"])
    assert str(error.value).startswith(f"{table} row {row}: ")
    assert csv.field_size_limit() == 131_072


def test_a_bad_row_read_before_one_the_csv_reader_cannot_read_is_the_error():
    # The reader fails on row 12, inside the block that holds row 4. The rows
    # it read before failing are checked first, so row 4 is the error.
    games_text, lines_text = serialize_csv(build_season())
    rows = list(csv.reader(io.StringIO(lines_text)))
    rows[3][rows[0].index("starter")] = "TRUE"
    rows[11][rows[0].index("player_name")] = _HUGE_CELL
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    with pytest.raises(BadValueError) as error:
        parse_csv(games_text, out.getvalue())
    assert str(error.value) == "lines row 4: column 'starter' must be 'true' or 'false', got 'TRUE'"


def test_parse_json_rejects_a_document_nested_too_deep():
    with pytest.raises(BadValueError, match="^invalid JSON: maximum recursion depth exceeded"):
        parse_json("[" * 200_000)


# Cells int() reads that are not the canonical text of an int, and cells it
# rejects; "\u0663" is the Arabic-Indic digit three.
_ODD_INT_CELLS = ("-0", "+5", " 5", "05", "1_000", "\u0663", "", "x", str(10**30))
_INT_COLUMNS = (*ingest.LINES_HEADER[5:21], "points", "home_score", "away_score")


def _decoded_int_column(name: str, column: list[str]) -> list:
    """``column`` as the CSV decoder reads it into the column ``name``, every
    other cell of its rows valid."""
    if name in ingest.GAMES_HEADER:
        game = "G01,2014-01-05,liga,MAD,BCN,80,75".split(",")
        i = ingest.GAMES_HEADER.index(name)
        return [ingest._csv_game([*game[:i], raw, *game[i + 1:]])[i] for raw in column]
    row = "G01,p1,Arco,MAD,25.5,4,2,1,1,3,1,5,2,4,2,1,1,0,2,3,7,true,14".split(",")
    i = (*ingest.LINES_HEADER, "points").index(name)
    columns, points = ingest._csv_columns(True, [[*row[:i], raw, *row[i + 1:]] for raw in column])
    # From minutes on, the decoded columns are in header order; a count
    # column whose cells all fit in a byte is bytes.
    return list(points if name == "points" else columns[i])


def _result_or_error(call, *args) -> object:
    """What ``call(*args)`` returns, or the class and message of the
    ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", _INT_COLUMNS)
@given(column=st.lists(
    st.integers(-300, 300).map(str) | st.integers().map(str) | st.sampled_from(_ODD_INT_CELLS),
    min_size=1, max_size=6,
))
def test_integer_cells_decode_as_int_reads_them(name, column):
    convert = (lambda raw: int(raw) if raw else None) if name == "plus_minus" else int
    assert _result_or_error(_decoded_int_column, name, column) == _result_or_error(
        naive_int_cells, column, name, convert
    )


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999", "Infinity"])
def test_parse_csv_rejects_non_finite_minutes(raw):
    bad = LINES_CSV.replace("G02,p1,Arco,MAD,30.0", f"G02,p1,Arco,MAD,{raw}")
    with pytest.raises(BadValueError, match=r"lines row 3: .*minutes"):
        parse_csv(GAMES_CSV, bad)


@pytest.mark.parametrize(
    "raw", ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="10**400")]
)
def test_parse_json_rejects_non_finite_minutes(raw):
    text = serialize_json(parse_csv(GAMES_CSV, LINES_CSV))
    bad = text.replace('"minutes": 30.0', f'"minutes": {raw}')
    assert bad != text
    with pytest.raises(BadValueError, match=r"lines entry 2: .*minutes"):
        parse_json(bad)


@pytest.mark.parametrize("table", ("games", "lines"))
@pytest.mark.parametrize("errors", ("surrogateescape", "surrogatepass"))
def test_a_stream_that_decodes_loosely_has_its_texts_checked(table, errors):
    # Only a strict UTF-8 decode proves that UTF-8 can encode every text.
    texts = dict(zip(("games", "lines"), serialize_csv(build_season())))
    old, bad = {"games": ("liga", "li\udcffga"), "lines": ("Cano", "Ca\udcffno")}[table]
    raw = texts[table].replace(old, bad, 1).encode("utf-8", errors)
    texts[table] = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors=errors, newline="")
    with pytest.raises(BadValueError, match="which UTF-8 cannot encode"):
        parse_csv(texts["games"], texts["lines"])


# str.encode gives UTF-8 bytes.
@pytest.mark.parametrize("encode", [str, str.encode, lambda text: io.BytesIO(text.encode("utf-8"))])
def test_parse_csv_reads_every_line_end_as_the_same_season(encode):
    # Text is read as load_dataset reads a file, opened with newline="".
    season = build_season()
    texts = serialize_csv(season)
    assert all(text.count("\r\n") == text.count("\n") > 1 for text in texts)
    for end in ("\n", "\r\n", "\r"):
        games, lines = (encode(text.replace("\r\n", end)) for text in texts)
        assert parse_csv(games, lines) == season, repr(end)


def test_parse_csv_duplicate_line():
    dup = LINES_CSV.replace("G02,p1", "G01,p1")
    with pytest.raises(DuplicateLineError):
        parse_csv(GAMES_CSV, dup)


def test_parse_csv_duplicate_game():
    dup = GAMES_CSV.replace("G02,2014-01-12", "G01,2014-01-12")
    with pytest.raises(DuplicateGameError):
        parse_csv(dup, LINES_HEADER + "\r\n")


def test_parse_csv_rejects_tied_score():
    tied = GAMES_CSV.replace("80,75", "80,80")
    with pytest.raises(BadValueError, match="tied"):
        parse_csv(tied, LINES_HEADER + "\r\n")


def test_parse_csv_team_not_in_game():
    bad = LINES_CSV.replace("G01,p1,Arco,MAD", "G01,p1,Arco,XXX")
    with pytest.raises(BadValueError, match="XXX"):
        parse_csv(GAMES_CSV, bad)


def test_parse_csv_empty_plus_minus_is_missing_observation():
    text = LINES_CSV.replace("3,1,-10,false", "3,1,,false")
    dataset = parse_csv(GAMES_CSV, text)
    assert dataset.lines[1].plus_minus is None


def test_parse_csv_optional_points_column():
    header = LINES_HEADER + ",points"
    good = header + "\r\n" + "G01,p1,Arco,MAD,25.5,4,2,1,1,3,1,5,2,4,2,1,1,0,2,3,7,true,14\r\n"
    dataset = parse_csv(GAMES_CSV, good)
    assert len(dataset.lines) == 1
    bad = good.replace(",true,14", ",true,15")
    with pytest.raises(PointsMismatchError):
        parse_csv(GAMES_CSV, bad)


_SEASON_JSON = serialize_json(build_season()).encode("utf-8")


@pytest.mark.parametrize("data", [
    b'{\r\n "games": [\r\n  {"game_id": 1,,}\r\n ]\r\n}\r\n',
    b'{\r "games": [\r x ]\r}',
    b'{\r\n"games": [],\r\n"lines": [{"game_id": "a\rb"}]\r\n}',
    b'\xef\xbb\xbf{"games": [], "lines": []}',
    b'{"games": [], "lines": [\xff]}',
    b'{\r\n"games": [],\r\n"lines": []\r\n}\r\n',
    b'{\n "games": [\n  {"game_id": 1,,}\n ]\n}\n',
    _SEASON_JSON,
    _SEASON_JSON.replace(b"\n", b"\r"),
    _SEASON_JSON.replace(b"\n", b"\r\n").replace(b'"starter": false', b'"starter": fals', 1),
], ids=["crlf", "cr", "cr-in-string", "bom", "bad-utf-8", "crlf-valid", "lf", "lf-valid",
        "cr-valid", "crlf-late"])
def test_load_dataset_reads_json_as_a_text_mode_read_does(tmp_path, data):
    """A JSON file, the same bytes given to parse_json as bytes or as a binary
    stream, and the file read in text mode: the same dataset, or the same
    error."""
    path = tmp_path / "season.json"
    path.write_bytes(data)

    def text_mode_read():
        with open(path, encoding="utf-8") as handle:
            return parse_json(handle, source=str(path))

    expected = _result_or_error(text_mode_read)
    assert _result_or_error(load_dataset, None, None, str(path)) == expected
    assert _result_or_error(parse_json, io.BytesIO(data)) == expected
    assert _result_or_error(parse_json, data) == expected


def test_parse_json_empty():
    dataset = parse_json('{"games": [], "lines": []}')
    assert len(dataset.games) == 0
    assert len(dataset.lines) == 0


def test_parse_json_matches_csv_fixture():
    from_csv = parse_csv(GAMES_CSV, LINES_CSV)
    from_json = parse_json(serialize_json(from_csv))
    assert from_json == from_csv


def test_parse_json_missing_field():
    doc = json.loads(serialize_json(parse_csv(GAMES_CSV, LINES_CSV)))
    del doc["lines"][0]["minutes"]
    with pytest.raises(MissingColumnError, match="minutes"):
        parse_json(json.dumps(doc))


def test_parse_json_unknown_field_rejected():
    doc = json.loads(serialize_json(parse_csv(GAMES_CSV, LINES_CSV)))
    doc["lines"][0]["bonus"] = 1
    with pytest.raises(BadValueError, match="bonus"):
        parse_json(json.dumps(doc))


def test_parse_json_null_plus_minus():
    doc = json.loads(serialize_json(parse_csv(GAMES_CSV, LINES_CSV)))
    doc["lines"][0]["plus_minus"] = None
    dataset = parse_json(json.dumps(doc))
    assert dataset.lines[0].plus_minus is None


def test_parse_json_numeric_game_id():
    # A number names a game in the games table and in a line alike.
    doc = json.loads(serialize_json(parse_csv(GAMES_CSV, LINES_CSV)))
    number = {game["game_id"]: i for i, game in enumerate(doc["games"], start=1)}
    for game in doc["games"]:
        game["game_id"] = number[game["game_id"]]
    for line in doc["lines"]:
        line["game_id"] = number[line["game_id"]]
    text = json.dumps(doc)
    dataset = parse_json(text)
    assert sorted(dataset.games) == [str(i) for i in sorted(number.values())]
    assert [ln.game_id for ln in dataset.lines] == [str(ln["game_id"]) for ln in doc["lines"]]
    assert dataset == naive_parse_json(text)


def _mixed_points_doc() -> tuple[Dataset, dict]:
    """A 1,026-line season (two blocks) whose odd-numbered entries carry points."""
    season = _synthetic_season(114, 9)
    doc = json.loads(serialize_json(season))
    for cells, line in list(zip(doc["lines"], season.lines))[1::2]:
        cells["points"] = derived_points(line)
    return season, doc


def test_parse_json_reads_a_block_where_some_entries_have_points_at_once():
    season, doc = _mixed_points_doc()
    with patch.object(ingest, "_json_columns", wraps=ingest._json_columns) as columns:
        assert parse_json(json.dumps(doc)) == season
    # One call per block: no block was read again a row at a time.
    assert columns.call_count == 2


@pytest.mark.parametrize(
    "i, points, error, message",
    [
        (1023, 1, PointsMismatchError, "points column says 1 but counts derive"),
        (1023, -1, BadValueError, "column 'points' must be >= 0, got -1"),
        (1025, None, BadValueError, "field 'points' must be an integer, got None"),
    ],
)
def test_parse_json_checks_the_entries_with_points_in_a_mixed_block(i, points, error, message):
    _, doc = _mixed_points_doc()
    doc["lines"][i]["points"] = points
    with pytest.raises(error, match=re.escape(f"lines entry {i + 1}: {message}")):
        parse_json(json.dumps(doc))


def test_csv_round_trip_identity():
    season = build_season()
    games_text, lines_text = serialize_csv(season)
    reparsed = parse_csv(games_text, lines_text)
    assert reparsed == season
    assert serialize_csv(reparsed) == (games_text, lines_text)


def test_json_round_trip_identity():
    season = build_season()
    text = serialize_json(season)
    reparsed = parse_json(text)
    assert reparsed == season
    assert serialize_json(reparsed) == text


@settings(max_examples=80, deadline=None)
@given(data=random_seasons())
def test_serializers_match_row_by_row_writers(data):
    season, _ = data
    assert serialize_csv(season) == naive_serialize_csv(season)
    assert serialize_json(season) == naive_serialize_json(season)


def test_provenance_not_part_of_equality():
    season = build_season()
    games_text, lines_text = serialize_csv(season)
    a = parse_csv(games_text, lines_text, source="a")
    b = parse_csv(games_text, lines_text, source="b")
    assert a == b
    assert a.provenance.source != b.provenance.source


def _many_game_dataset(n_games_p1: int, n_games_p2: int) -> Dataset:
    total = max(n_games_p1, n_games_p2)
    games = {}
    lines = []
    for i in range(total):
        gid = f"G{i:03d}"
        games[gid] = GameMeta(
            game_id=gid, date=date(2014, 1, 1 + i % 28), competition="liga",
            home_team="AAA", away_team="BBB", home_score=80 + i, away_score=70,
        )
        if i < n_games_p1:
            lines.append(make_line(player_id="q1", player_name="Uno", team="AAA", game_id=gid))
        if i < n_games_p2:
            lines.append(make_line(player_id="q2", player_name="Dos", team="BBB", game_id=gid))
    return Dataset(games=games, lines=tuple(lines))


def test_filter_min_games_identity_at_one(season):
    assert filter_min_games(season, 1) == season


def test_filter_min_games_threshold_is_inclusive():
    dataset = _many_game_dataset(10, 9)
    filtered = filter_min_games(dataset, 10)
    players = {line.player_id for line in filtered.lines}
    assert players == {"q1"}
    assert len(filtered.games) == len(dataset.games)


def test_filter_min_games_idempotent(season):
    once = filter_min_games(season, 3)
    assert filter_min_games(once, 3) == once
    dataset = _many_game_dataset(10, 9)
    once = filter_min_games(dataset, 10)
    assert filter_min_games(once, 10) == once


def test_zero_minute_line_accepted_and_tagged(season):
    dnp = [ln for ln in season.lines if ln.player_id == "p3" and ln.game_id == "G02"]
    assert len(dnp) == 1 and dnp[0].dnp


def test_lines_for_is_chronological(season):
    game_ids = [ln.game_id for ln in season.lines_for("p1")]
    assert game_ids == ["G01", "G02", "G03", "G04", "G05", "G06"]


@st.composite
def seasons(draw) -> Dataset:
    """Small seasons with shuffled lines, several games per date (so the
    game_id tie-break decides the order), DNP lines and short stints."""
    game_ids = draw(st.permutations([f"G{i}" for i in range(8)]))[: draw(st.integers(1, 8))]
    games = {
        gid: make_game(game_id=gid, date=date(2014, 1, draw(st.integers(1, 3))))
        for gid in game_ids
    }
    lines = []
    for gid in game_ids:
        for player in range(draw(st.integers(1, 5))):
            if draw(st.booleans()):
                lines.append(make_line(
                    player_id=f"p{player}",
                    game_id=gid,
                    team=draw(st.sampled_from(("MAD", "BCN"))),
                    minutes=draw(st.sampled_from((0.0, 12.5, 30.0))),
                    t1c=draw(st.integers(0, 3)),
                ))
    return Dataset(games=games, lines=tuple(draw(st.permutations(lines))))


@given(season=seasons(), min_games=st.integers(1, 9))
def test_player_index_matches_naive_scan(season, min_games):
    assert season.player_ids() == naive_player_ids(season)
    for player_id in naive_player_ids(season) + ["nobody"]:
        mine = season.lines_for(player_id)
        assert mine == naive_lines_for(season, player_id)
        mine.reverse()
        mine.append(None)
        assert season.lines_for(player_id) == naive_lines_for(season, player_id)

    filtered = filter_min_games(season, min_games)
    kept = naive_filter_min_games(season, min_games)
    assert filtered.lines == kept
    assert filtered.games == season.games
    assert (filtered is season) == (kept == season.lines)
    for player_id in naive_player_ids(filtered):
        assert filtered.lines_for(player_id) == naive_lines_for(filtered, player_id)


_COUNTS = LINES_HEADER.split(",")[5:20]
_GAMES_HEADER = GAMES_CSV.split("\r\n")[0].split(",")
_FIELD_NAMES = {*LINES_HEADER.split(","), *_GAMES_HEADER, "points", "bonus"}

# fault -> the bad values a cell takes, in CSV and in JSON
_BAD_VALUES = {
    "count_not_integer": (["x", "2.5", "true", ""], [True, 2.5, "3", None]),
    "count_negative": (["-1", "-7"], [-1, -7]),
    "minutes_bad": (["abc", "-1.5", ""], ["25", True, -1.5, None]),
    "plus_minus_bad": (["1.5", "x"], [1.5, "3", True]),
    "starter_bad": (["TRUE", "yes", "1", ""], ["true", 1, None]),
}
_FAULT_COLUMN = {"minutes_bad": "minutes", "plus_minus_bad": "plus_minus",
                 "starter_bad": "starter"}
_JSON_ONLY = ("missing_field", "unknown_field")
_LINE_FAULTS = (*_BAD_VALUES, "empty_id", "dangling_game", "wrong_team", "duplicate_line",
               "points_mismatch", "points_negative", *_JSON_ONLY)
_GAME_FAULTS = ("tied", "negative_score", "bad_date", "same_teams", "duplicate_game")
# Ids and names: values that are no string or number (JSON only), and strings
# that UTF-8 cannot encode; put into a line or (with the "game_" prefix) a game.
_BAD_TEXTS = {
    "text_not_string": (None, True, [1, 2], {"a": 1}, False),
    "text_not_utf8": ("\ud800x", "a\udfff", "\udc80"),
}
_LINE_TEXTS = ("game_id", "player_id", "player_name", "team")
_GAME_TEXTS = ("game_id", "competition", "home_team", "away_team")
_TEXT_FAULTS = (*_BAD_TEXTS, *(f"game_{fault}" for fault in _BAD_TEXTS))


@st.composite
def varied_seasons(draw) -> Dataset:
    """Valid seasons with every line field varied: counts, DNP and
    fractional minutes, null plus/minus, starters and bench players."""
    game_ids = [f"G{i}" for i in range(draw(st.integers(1, 4)))]
    games = {
        gid: make_game(game_id=gid, date=date(2014, 1, 1 + i),
                       away_score=draw(st.sampled_from((70, 85))))
        for i, gid in enumerate(game_ids)
    }
    lines = [
        make_line(
            player_id=f"p{player}", player_name=f"N{player}", game_id=gid,
            team=draw(st.sampled_from(("MAD", "BCN"))),
            minutes=draw(st.sampled_from((0.0, 7.25, 12.5, 30.0))),
            plus_minus=draw(st.none() | st.integers(-20, 20)),
            starter=draw(st.booleans()),
            **{c: draw(st.integers(0, 6)) for c in _COUNTS},
        )
        for gid in game_ids
        for player in range(draw(st.integers(2, 4)))
    ]
    return Dataset(games=games, lines=tuple(draw(st.permutations(lines))))


def _break_line(draw, fault: str, fmt: str, cells: dict, earlier: list[dict]) -> dict:
    cells = dict(cells)
    if fault in _BAD_VALUES:
        column = _FAULT_COLUMN.get(fault) or draw(st.sampled_from(_COUNTS))
        cells[column] = draw(st.sampled_from(_BAD_VALUES[fault][fmt == "json"]))
    elif fault == "empty_id":
        cells[draw(st.sampled_from(("player_id", "team", "game_id")))] = ""
    elif fault == "dangling_game":
        cells["game_id"] = "G999"
    elif fault == "wrong_team":
        cells["team"] = "XXX"
    elif fault == "duplicate_line":
        cells = dict(draw(st.sampled_from(earlier)))
    elif fault == "points_mismatch":
        cells["points"] += draw(st.integers(1, 5))
    elif fault == "points_negative":
        cells["points"] = -1
    elif fault in _BAD_TEXTS:
        cells[draw(st.sampled_from(_LINE_TEXTS))] = draw(st.sampled_from(_BAD_TEXTS[fault]))
    elif fault == "missing_field":
        # "points" is optional: an entry without it is still valid.
        del cells[draw(st.sampled_from(sorted(set(cells) - {"points"})))]
    elif fault == "count_too_large":
        cells[draw(st.sampled_from(_COUNTS))] = 10**400  # no float holds it
    else:
        cells["bonus"] = 1
    return cells


def _break_game(draw, fault: str, games: list[dict]) -> None:
    i = draw(st.integers(0, len(games) - 1))
    game = games[i] = dict(games[i])
    if fault == "tied":
        game["away_score"] = game["home_score"]
    elif fault == "negative_score":
        game["home_score"] = -80
    elif fault == "bad_date":
        game["date"] = "2014-13-01"
    elif fault == "same_teams":
        game["away_team"] = game["home_team"]
    elif fault in _TEXT_FAULTS:
        value = draw(st.sampled_from(_BAD_TEXTS[fault.removeprefix("game_")]))
        game[draw(st.sampled_from(_GAME_TEXTS))] = value
    else:
        games.append(dict(game, date="2014-02-01"))


@st.composite
def season_inputs(draw, fault: str):
    """(format, parser arguments) for a valid season, with ``fault`` put
    into one of its games or one to three of its lines."""
    season = draw(varied_seasons())
    json_only = (*_JSON_ONLY, "text_not_string", "game_text_not_string")
    fmt = "json" if fault in json_only else draw(st.sampled_from(("csv", "json")))
    with_points = fault.startswith("points") or draw(st.booleans())
    if fmt == "csv":
        games, lines = (list(csv.DictReader(io.StringIO(t))) for t in serialize_csv(season))
    else:
        doc = json.loads(serialize_json(season))
        games, lines = doc["games"], doc["lines"]
    for cells, line in zip(lines, season.lines):
        if with_points:
            cells["points"] = derived_points(line)
        if fmt == "json" and line.minutes.is_integer() and draw(st.booleans()):
            cells["minutes"] = int(line.minutes)
    if fault in _GAME_FAULTS or fault.startswith("game_"):
        _break_game(draw, fault, games)
    elif fault != "none":
        first = 1 if fault == "duplicate_line" else 0
        rows = draw(st.sets(st.integers(first, len(lines) - 1), min_size=1, max_size=3))
        for i in sorted(rows):
            lines[i] = _break_line(draw, fault, fmt, lines[i], lines[:i])
    if fmt == "json":
        return fmt, (json.dumps({"games": games, "lines": lines}),)
    header = LINES_HEADER.split(",") + ["points"] * with_points
    return fmt, (_csv_text(_GAMES_HEADER, games), _csv_text(header, lines))


def _csv_text(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([cells[c] for c in header] for cells in rows)
    return buf.getvalue()


def _where_and_field(exc: Exception) -> tuple[str | None, str | None]:
    """The row an ingest error names, and the first field name after it."""
    match = re.match(r"((?:games|lines) (?:row|entry) \d+): (.*)", str(exc))
    if match is None:
        return None, None
    message = match.group(2)
    # "a" is a count column and an English word: it names the field only
    # where a field name stands, quoted, first, or in a field list.
    named_a = re.search(r"(^|'|field\(s\) )a\b", message) is not None
    fields = (w for w in re.findall(r"\w+", message)
              if w in _FIELD_NAMES and (w != "a" or named_a))
    return match.group(1), next(fields, None)


@pytest.mark.parametrize("fault", ("none", *_GAME_FAULTS, *_LINE_FAULTS, *_TEXT_FAULTS))
@settings(max_examples=10)
@given(data=st.data())
def test_parsers_match_naive_parsers(fault, data):
    """The parsers against the check-everything-twice parsers they replace:
    equal datasets, or the same error class naming the same row and field."""
    fmt, args = data.draw(season_inputs(fault))
    fast, naive = (parse_csv, naive_parse_csv) if fmt == "csv" else (parse_json, naive_parse_json)
    if fault == "none":
        expected = naive(*args, source="s")
        got = fast(*args, source="s")
        assert got == expected
        assert repr(got.lines) == repr(expected.lines)
        assert got.provenance == expected.provenance
        return
    with pytest.raises(IngestError) as expected:
        naive(*args, source="s")
    with pytest.raises(IngestError) as raised:
        fast(*args, source="s")
    assert type(raised.value) is type(expected.value)
    assert _where_and_field(raised.value) == _where_and_field(expected.value)
    assert _where_and_field(expected.value)[0] is not None


# Faults a shared check finds; the decoders' own faults differ by format.
_SHARED_FAULTS = ("dangling_game", "wrong_team", "duplicate_line", "empty_id", "count_negative",
                  "count_too_large", "minutes_negative", *_GAME_FAULTS, "points_mismatch",
                  "points_negative", "text_not_utf8", "game_text_not_utf8")
_LOCATED = re.compile(r"(games|lines) (row|entry) (\d+): (.*)", re.DOTALL)


def _cell_texts(rows: list[dict]) -> list[dict]:
    return [{k: cell_text(v) for k, v in cells.items()} for cells in rows]


@pytest.mark.parametrize("fault", _SHARED_FAULTS)
@settings(max_examples=10)
@given(data=st.data())
def test_csv_and_json_report_a_shared_fault_alike(fault, data):
    """One season with one fault, written as CSV and as JSON: the same error
    class and message, at CSV row N + 1 for JSON entry N."""
    season = data.draw(varied_seasons())
    doc = json.loads(serialize_json(season))
    games, lines = doc["games"], doc["lines"]
    with_points = fault.startswith("points") or data.draw(st.booleans())
    if with_points:
        for cells, line in zip(lines, season.lines):
            cells["points"] = derived_points(line)
    if fault in _GAME_FAULTS or fault.startswith("game_"):
        _break_game(data.draw, fault, games)
    else:
        i = data.draw(st.integers(1 if fault == "duplicate_line" else 0, len(lines) - 1))
        if fault == "minutes_negative":
            lines[i] = dict(lines[i], minutes=-1.5)
        else:
            lines[i] = _break_line(data.draw, fault, "json", lines[i], lines[:i])
    header = LINES_HEADER.split(",") + ["points"] * with_points
    csv_args = (_csv_text(_GAMES_HEADER, _cell_texts(games)), _csv_text(header, _cell_texts(lines)))
    with pytest.raises(IngestError) as from_csv:
        parse_csv(*csv_args)
    with pytest.raises(IngestError) as from_json:
        parse_json(json.dumps({"games": games, "lines": lines}))
    assert type(from_csv.value) is type(from_json.value)
    table, kind, row, message = _LOCATED.fullmatch(str(from_csv.value)).groups()
    assert kind == "row"
    assert _LOCATED.fullmatch(str(from_json.value)).groups() == (
        table, "entry", str(int(row) - 1), message,
    )


# Edits that put a value at the edge of a block check; besides these, every
# line fault of the naive-parser test is placed at a block's first or last row.
_VALID_EDITS = ("minutes_negative_zero", "minutes_huge_pair", "count_signed", "points_dropped")
_EDGE_EDITS = (*_VALID_EDITS, "minutes_non_finite", "json_bool", "duplicate_across",
               "short_row")
_NON_FINITE = (["nan", "inf", "-inf", "1e999"], [math.nan, math.inf, -math.inf, 10**400])
_BLOCK_SIZES = (1, 2, 3, 5)


def _edit_line(draw, edit: str, fmt: str, lines: list, i: int, k: int) -> None:
    """Apply ``edit`` to row ``i`` of ``lines``, in a block of ``k`` rows."""
    cells = lines[i] = dict(lines[i])
    if edit == "minutes_negative_zero":
        cells["minutes"] = "-0.0" if fmt == "csv" else -0.0
    elif edit == "minutes_huge_pair":
        # Each is finite, but two of them in one block sum to inf.
        for j in {i, min(i + 1, len(lines) - 1)}:
            lines[j] = dict(lines[j], minutes="1e+308" if fmt == "csv" else 1e308)
    elif edit == "count_signed":
        # int() reads both as 3; a scoring count would change the points.
        column = draw(st.sampled_from([c for c in _COUNTS if c not in ("t2c", "t3c", "t1c")]))
        cells[column] = draw(st.sampled_from((" 3", "+3")))
    elif edit == "points_dropped":
        del cells["points"]
    elif edit == "minutes_non_finite":
        cells["minutes"] = draw(st.sampled_from(_NON_FINITE[fmt == "json"]))
    elif edit == "json_bool":
        cells[draw(st.sampled_from((*_COUNTS, "minutes", "points")))] = True
    elif edit == "duplicate_across":
        # At a block's first row, a copy of a row of the block before.
        lines[i] = dict(lines[max(i - draw(st.integers(1, k)), 0)])
    elif edit == "short_row":
        # A CSV row loses its last cell; a JSON entry becomes an array.
        lines[i] = list(cells.values())[: -1 if fmt == "csv" else None]
    else:
        lines[i] = _break_line(draw, edit, fmt, cells, lines[:i])


@st.composite
def block_edge_inputs(draw, edit: str):
    """(format, parser arguments) for a valid season with ``edit`` made at the
    first or last row of one or two blocks of 2, 3 or 5 rows."""
    season = draw(varied_seasons())
    if edit in (*_JSON_ONLY, *_BAD_TEXTS, "json_bool", "points_dropped"):
        fmt = "json"
    else:
        fmt = "csv" if edit == "count_signed" else draw(st.sampled_from(("csv", "json")))
    with_points = edit.startswith("points") or edit == "json_bool" or draw(st.booleans())
    if fmt == "csv":
        games, lines = (list(csv.DictReader(io.StringIO(t))) for t in serialize_csv(season))
    else:
        doc = json.loads(serialize_json(season))
        games, lines = doc["games"], doc["lines"]
    if with_points:
        for cells, line in zip(lines, season.lines):
            cells["points"] = derived_points(line)
    k = draw(st.sampled_from((2, 3, 5)))
    offsets = (0,) if edit == "duplicate_across" else (0, k - 1)
    first = 1 if edit in ("duplicate_line", "duplicate_across") else 0
    blocks = draw(st.sets(st.sampled_from(range(0, len(lines), k)), min_size=1, max_size=2))
    for block in sorted(blocks):
        i = min(max(block + draw(st.sampled_from(offsets)), first), len(lines) - 1)
        _edit_line(draw, edit, fmt, lines, i, k)
    if fmt == "json":
        return fmt, (json.dumps({"games": games, "lines": lines}),)
    header = LINES_HEADER.split(",") + ["points"] * with_points
    buf = io.StringIO()
    csv.writer(buf).writerows(
        [header, *(row if isinstance(row, list) else [row[c] for c in header] for row in lines)]
    )
    return fmt, (_csv_text(_GAMES_HEADER, games), buf.getvalue())


def _outcome(parse, args):
    try:
        return parse(*args, source="s")
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("edit", (*_LINE_FAULTS, *_BAD_TEXTS, *_EDGE_EDITS))
@settings(max_examples=10)
@given(data=st.data())
def test_parsers_match_naive_parsers_at_every_block_size(edit, data):
    """At block sizes 1, 2, 3, 5 and the default: the naive parsers' season,
    or their error class naming the same row and field, and at every block
    size the same error and message."""
    fmt, args = data.draw(block_edge_inputs(edit))
    fast, naive = (parse_csv, naive_parse_csv) if fmt == "csv" else (parse_json, naive_parse_json)
    expected = _outcome(naive, args)
    outcomes = []
    for rows in (*_BLOCK_SIZES, ingest._BLOCK_ROWS):
        with patch.object(ingest, "_BLOCK_ROWS", rows):
            outcomes.append(_outcome(fast, args))
    if isinstance(expected, Dataset):
        for got in outcomes:
            assert got == expected
            assert repr(got.lines) == repr(expected.lines)
        return
    assert isinstance(expected, IngestError), expected
    assert edit not in _VALID_EDITS
    assert _where_and_field(expected)[0] is not None
    for got in outcomes:
        assert type(got) is type(expected)
        assert (type(got), str(got)) == (type(outcomes[0]), str(outcomes[0]))
        assert _where_and_field(got) == _where_and_field(expected)


@pytest.fixture
def two_cores(monkeypatch) -> list[bool]:
    """load_dataset reads every lines file it can on two cores, whatever its
    size and the CPUs here. The list gets, for each worker started, whether
    its lines were taken."""
    monkeypatch.setattr(ingest, "_TWO_CORES_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    taken = []
    read_halves = _halves.read_halves

    def spy(*args):
        taken.append(read_halves(*args))
        return taken[-1]

    monkeypatch.setattr(_halves, "read_halves", spy)
    return taken


def _typed(call, *args) -> tuple:
    """The dataset ``call`` returns and the type of each of its columns, or the
    class and message of the error it raises."""
    try:
        dataset = call(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    types = [getattr(column, "typecode", type(column)) for column in dataset._store.values()]
    return dataset, types


def _loaded_and_parsed(tmp_path, games_text: str, lines_text: str) -> tuple:
    """:func:`_typed` of load_dataset on files of these texts, and of
    parse_csv on the same files, opened as load_dataset opens them."""
    paths = tmp_path / "games.csv", tmp_path / "lines.csv"
    for path, text in zip(paths, (games_text, lines_text)):
        path.write_text(text, encoding="utf-8", newline="")
    loaded = _typed(load_dataset, *map(str, paths))
    with paths[0].open(encoding="utf-8", newline="") as games:
        with paths[1].open(encoding="utf-8", newline="") as lines:
            return loaded, _typed(parse_csv, games, lines)


def test_two_cores_read_every_golden_csv_input_as_one_does(tmp_path, two_cores):
    from test_golden_errors import cases

    for case, fmt, args in cases():
        if fmt == "csv":
            loaded, parsed = _loaded_and_parsed(tmp_path, *args)
            assert loaded == parsed, case
    # The faults after the first row are in the worker's half.
    assert False in two_cores


# edit -> (the data rows it changes, counted from the split: 0 is the last
# row before it, 1 the first after it; whether the worker's lines are taken,
# or None where no worker runs to its end, or none starts)
_HALF_EDITS = {
    "clean": ((), True),
    "fault_first_half": ((-400,), None),
    "fault_before_split": ((0,), None),
    "fault_after_split": ((1,), False),
    "fault_second_half": ((400,), False),
    "duplicate_across": ((-500, 300), True),
    "field_too_large": ((300,), False),
    "fault_then_field_too_large": ((200, 300), False),
    "quote_after_split": ((5,), True),
    "quote_before_split": ((-5,), None),
    "blank_line": ((-300,), None),
    "line_ends": ((-300, -100), True),
}
_VALID_HALF_EDITS = ("clean", "quote_after_split", "quote_before_split", "line_ends")


@pytest.mark.parametrize("edit", _HALF_EDITS)
def test_two_cores_read_a_season_as_one_does(tmp_path, two_cores, edit):
    """A season read on two cores with ``edit`` made near or far from the
    split: the dataset one reader reads, with the same column types, or its
    error class and message."""
    games_text, lines_text = serialize_csv(_synthetic_season(114, 9))
    # The split is after the first newline at or past the middle; the first
    # row of the text is the header.
    first = lines_text[: lines_text.find("\n", len(lines_text) // 2) + 1].count("\n") - 1
    offsets, taken = _HALF_EDITS[edit]
    # rows[0] is the header and rows[-1] the empty text after the last row.
    rows = lines_text.split("\r\n")
    at = [first + offset for offset in offsets]
    cells = [rows[i].split(",") for i in at]
    if "fault" in edit:
        cells[0][11] = "x" * len(cells[0][11])  # rd; the split stays where it was
    if edit == "duplicate_across":
        cells[1] = cells[0]
    elif "field_too_large" in edit:
        cells[-1][2] = "N" * 400
    elif edit.startswith("quote"):
        cells[0][2] = '"N,3"'
    elif edit == "blank_line":
        cells[0] = []
    for i, row in zip(at, cells):
        rows[i] = ",".join(row)
    ends = dict(zip(at, ("\r", "\n"))) if edit == "line_ends" else {}
    lines_text = "".join(row + ends.get(i, "\r\n") for i, row in enumerate(rows[:-1]))
    limit = csv.field_size_limit(300 if "field_too_large" in edit else csv.field_size_limit())
    try:
        loaded, parsed = _loaded_and_parsed(tmp_path, games_text, lines_text)
    finally:
        csv.field_size_limit(limit)
    assert loaded == parsed
    assert isinstance(parsed[0], Dataset) == (edit in _VALID_HALF_EDITS)
    assert two_cores == ([] if taken is None else [taken])


# (format, fault) for a fault a few rows after a repeated key: a negative
# count, a game the games table lacks, and a row the csv reader cannot read.
_FAULTS_AFTER_A_REPEAT = [
    (fmt, fault)
    for fmt in ("csv", "json", "memory")
    for fault in ("bad_count", "unknown_game", "field_too_large")
    if fmt == "csv" or fault != "field_too_large"
]


@pytest.mark.parametrize("gap", (1, 7))
@pytest.mark.parametrize("fmt,fault", _FAULTS_AFTER_A_REPEAT)
def test_a_repeated_key_before_another_fault_is_the_error(fmt, fault, gap):
    """Line 5 repeats line 1's key and line 5 + ``gap`` holds ``fault``: at
    block sizes 1, 2, 3 and the default, the repeat is the error."""
    season = build_season()
    i, j = 4, 4 + gap
    field, value = {
        "bad_count": ("t2c", -1), "unknown_game": ("game_id", "G999"),
        "field_too_large": ("player_name", _HUGE_CELL),
    }[fault]
    if fmt == "memory":
        lines = list(season.lines)
        lines[i] = lines[0]
        values = list(lines[j])
        values[BoxscoreLine._fields.index(field)] = value
        # A record that skipped its own check, as the dataset's check sees it.
        lines[j] = tuple.__new__(BoxscoreLine, values)
        call, where = partial(Dataset, season.games, lines), f"line {i + 1}"
    elif fmt == "json":
        doc = json.loads(serialize_json(season))
        doc["lines"][i] = doc["lines"][0]
        doc["lines"][j][field] = value
        call, where = partial(parse_json, json.dumps(doc)), f"lines entry {i + 1}"
    else:
        games_text, lines_text = serialize_csv(season)
        rows = list(csv.reader(io.StringIO(lines_text)))
        rows[i + 1] = rows[1]
        rows[j + 1][rows[0].index(field)] = str(value)
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        call, where = partial(parse_csv, games_text, out.getvalue()), f"lines row {i + 2}"
    key = season.lines[0].player_id, season.lines[0].game_id
    for rows_per_block in (*_BLOCK_SIZES[:3], ingest._BLOCK_ROWS):
        with patch.object(ingest, "_BLOCK_ROWS", rows_per_block):
            with pytest.raises(DuplicateLineError) as raised:
                call()
        assert str(raised.value) == f"{where}: duplicate (player_id, game_id) = {key!r}"


# place -> the data rows of a key and of its repeat, counted from the split
# as in _HALF_EDITS; with blocks of 3 rows, rows 3 and 4 are the last row of
# the worker's first block and the first of its second.
_REPEAT_PLACES = {"first_half": (-500, -400), "across_split": (-500, 300), "worker_half": (3, 4)}


@pytest.mark.parametrize("fault_after", (False, True), ids=("alone", "fault_after"))
@pytest.mark.parametrize("place", _REPEAT_PLACES)
def test_two_cores_report_a_repeated_key_as_one_does(
    tmp_path, two_cores, monkeypatch, place, fault_after
):
    """A key repeated at ``place``, alone or before a fault in the worker's
    half: the repeat is the error, as one reader reads it. The worker's lines
    are taken unless its own half fails."""
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 3)
    games_text, lines_text = serialize_csv(_synthetic_season(114, 9))
    first = lines_text[: lines_text.find("\n", len(lines_text) // 2) + 1].count("\n") - 1
    rows = [row.split(",") for row in lines_text.split("\r\n")]
    original, repeat = (first + offset for offset in _REPEAT_PLACES[place])
    # Ids and names of one length, so the split stays where it was.
    rows[repeat][:4] = rows[original][:4]
    if fault_after:
        rows[first + 400][11] = "x" * len(rows[first + 400][11])  # rd
    loaded, parsed = _loaded_and_parsed(
        tmp_path, games_text, "\r\n".join(",".join(row) for row in rows)
    )
    game_id, player_id = rows[original][:2]
    message = f"lines row {repeat + 1}: duplicate (player_id, game_id) = {(player_id, game_id)!r}"
    assert loaded == parsed == (DuplicateLineError, message)
    assert two_cores == [not fault_after]


# Documents where the decoder's object hook turns line-shaped objects into
# rows: entries in header order and shuffled, repeated keys, and line-shaped
# objects where no lines entry stands.
_HOOK_EDITS = ("header_order", "shuffled", "duplicate_key", "nested_count", "nested_minutes",
               "nested_points", "line_shaped_game", "line_shaped_document")


@st.composite
def hook_documents(draw, edit: str) -> str:
    """The JSON text of a valid season, some entries with points, with
    ``edit`` made."""
    season = draw(varied_seasons())
    doc = json.loads(serialize_json(season))
    games, lines = doc["games"], doc["lines"]
    for cells, line in zip(lines, season.lines):
        if draw(st.booleans()):
            cells["points"] = derived_points(line)
    i = draw(st.integers(0, len(lines) - 1))
    shape = dict(lines[draw(st.integers(0, len(lines) - 1))])
    if edit == "shuffled":
        for j in draw(st.sets(st.integers(0, len(lines) - 1), min_size=1)):
            lines[j] = dict(draw(st.permutations(list(lines[j].items()))))
    elif edit.startswith("nested_"):
        field = draw(st.sampled_from(_COUNTS)) if edit == "nested_count" else edit[7:]
        lines[i][field] = shape
    elif edit == "line_shaped_game":
        games[draw(st.integers(0, len(games) - 1))] = shape
    elif edit == "line_shaped_document":
        return json.dumps(shape)
    entries = [json.dumps(cells) for cells in lines]
    if edit == "duplicate_key":
        # A repeated key keeps its first place and takes its last value.
        key = draw(st.sampled_from(sorted(lines[i])))
        pair = f"{json.dumps(key)}: {json.dumps(draw(st.sampled_from((lines[i][key], 'x', 3))))}"
        if draw(st.booleans()):
            entries[i] = f"{{{pair}, {entries[i][1:]}"
        else:
            entries[i] = f"{entries[i][:-1]}, {pair}}}"
    return '{"games": %s, "lines": [%s]}' % (json.dumps(games), ", ".join(entries))


@pytest.mark.parametrize("edit", _HOOK_EDITS)
@settings(max_examples=10)
@given(data=st.data())
def test_json_rows_match_plain_json_objects(edit, data):
    """The parser, whose decoder keeps line-shaped objects as rows, against
    itself on plain dicts (the same season and repr, or the same error and
    message) and against the naive parser (the same season, or the same error
    class naming the same row and field)."""
    text = data.draw(hook_documents(edit))
    got = _outcome(parse_json, (text,))
    with patch.object(ingest, "_json_row", lambda entry: entry):
        plain = _outcome(parse_json, (text,))
    expected = _outcome(naive_parse_json, (text,))
    if isinstance(expected, Dataset):
        assert got == plain == expected
        assert repr(got) == repr(plain) == repr(expected)
        return
    assert edit not in ("header_order", "shuffled")
    assert (type(got), str(got)) == (type(plain), str(plain))
    assert type(got) is type(expected)
    assert _where_and_field(got) == _where_and_field(expected)


def test_line_shaped_objects_decode_as_rows_that_print_as_objects():
    line = json.loads(serialize_json(build_season()))["lines"][0]
    text = json.dumps([line, {**line, "points": 1}, dict(reversed(line.items())), {"a": line}])
    in_order, with_points, reordered, other = json.loads(text, object_hook=ingest._json_row)
    assert type(in_order) is type(with_points) is ingest._Row
    assert type(reordered) is dict and type(other) is dict
    assert repr(in_order) == repr(line) and repr(with_points) == repr({**line, "points": 1})
    assert repr(other) == repr({"a": line})


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("with_points", (False, True))
def test_full_season_parses_to_checked_records(fmt, with_points):
    """A 221x34 season, 8 blocks at the default size, parses to the season
    and the naive parsers' result, as records equal to checked ones."""
    season = _synthetic_season(221, 34)
    assert -(-len(season.lines) // ingest._BLOCK_ROWS) == 8
    if fmt == "csv":
        games_text, lines_text = serialize_csv(season)
        if with_points:
            rows = lines_text.splitlines()
            lines_text = "\r\n".join(
                [rows[0] + ",points"]
                + [f"{row},{derived_points(line)}" for row, line in zip(rows[1:], season.lines)]
            ) + "\r\n"
        args, fast, naive = (games_text, lines_text), parse_csv, naive_parse_csv
    else:
        doc = json.loads(serialize_json(season))
        if with_points:
            for cells, line in zip(doc["lines"], season.lines):
                cells["points"] = derived_points(line)
        args, fast, naive = (json.dumps(doc),), parse_json, naive_parse_json
    parsed = fast(*args)
    assert parsed == season
    assert parsed == naive(*args)
    assert repr(parsed.lines) == repr(season.lines)
    for line in parsed.lines:
        assert type(line) is BoxscoreLine and type(line.minutes) is float
        rebuilt = BoxscoreLine(*line)
        assert rebuilt == line
        assert (hash(rebuilt), repr(rebuilt)) == (hash(line), repr(line))


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_a_parsed_season_holds_its_lines_as_columns(fmt):
    # One column per line field, counts and starter one byte per line: the
    # line records the parsers built before took about 285 bytes per line.
    season = _synthetic_season(221, 34)
    texts = serialize_csv(season) if fmt == "csv" else (serialize_json(season),)
    parse = parse_csv if fmt == "csv" else parse_json
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse(*texts)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert "lines" not in vars(parsed)
    assert retained <= 160 * len(season.lines), retained / len(season.lines)


@pytest.mark.parametrize("at", ("first", "last"))
@pytest.mark.parametrize("fault", ("dangling_game", "wrong_team", "duplicate_line"))
def test_dataset_built_in_memory_names_the_bad_line(fault, at):
    """A season built in memory, with one bad reference at its first or last
    line of 1,122: the same error class, naming the line's player."""
    season = _synthetic_season(102, 11)
    lines = list(season.lines)
    i = 1 if (fault, at) == ("duplicate_line", "first") else 0 if at == "first" else -1
    line = lines[i]
    if fault == "dangling_game":
        lines[i] = line._replace(game_id="G999")
        error, message = DanglingGameRefError, "unknown game_id 'G999'"
    elif fault == "wrong_team":
        lines[i] = line._replace(team="XXX")
        error, message = BadValueError, f"team 'XXX' did not play in game {line.game_id!r}"
    else:
        line = lines[i] = lines[0]
        error, message = DuplicateLineError, (
            f"duplicate (player_id, game_id) = {(line.player_id, line.game_id)!r}"
        )
    with pytest.raises(error) as raised:
        Dataset(games=season.games, lines=lines)
    assert type(raised.value) is error
    assert str(raised.value) == f"line {i % len(lines) + 1}: {message}"


# One bad field each, as a JSON value and as a BoxscoreLine argument.
_DOMAIN_FAULTS = [
    ("player_id", ""), ("minutes", True), ("minutes", "25"), ("minutes", None),
    ("minutes", -1.5), ("minutes", -0.25), ("minutes", math.nan),
    ("minutes", math.inf), ("minutes", -math.inf), ("minutes", 10**400), ("t2c", -1),
    ("fpr", -7), ("rd", True), ("tr", 2.5), ("a", "3"), ("bp", None), ("plus_minus", 1.5),
    ("plus_minus", "3"), ("plus_minus", True), ("starter", "true"), ("starter", 1),
    ("starter", None), ("player_id", "a\udc80"), ("player_name", "\udc80"), ("team", "\ud800"),
    ("game_id", "G01\udfff"),
]


@pytest.mark.parametrize("name,value", _DOMAIN_FAULTS, ids=[f"{n}={v!r:.12}" for n, v in _DOMAIN_FAULTS])
def test_line_built_in_memory_reports_a_bad_field_as_the_parser_does(name, value):
    doc = json.loads(serialize_json(parse_csv(GAMES_CSV, LINES_CSV)))
    doc["lines"][1][name] = value
    with pytest.raises(BadValueError) as parsed:
        parse_json(json.dumps(doc))
    fields = dict(zip(BoxscoreLine._fields, parse_csv(GAMES_CSV, LINES_CSV).lines[1]))
    with pytest.raises(ValueError) as built:
        BoxscoreLine(**{**fields, name: value})
    assert type(built.value) is ValueError
    assert str(parsed.value) == f"lines entry 2: {built.value}"


# One bad field each, of a plain tuple given to Dataset(games, lines).
_MEMORY_FAULTS = [
    ("minutes", True), ("minutes", "25"), ("minutes", None),
    ("t2c", True), ("a", "3"), ("tr", 2.5), ("plus_minus", 1.5), ("plus_minus", True),
    ("starter", 1), ("starter", None), ("player_id", 7), ("game_id", None), ("team", None),
    ("player_id", "a\udc80"), ("player_name", "\udc80"),
]


@pytest.mark.parametrize("name,value", _MEMORY_FAULTS, ids=[f"{n}={v!r}" for n, v in _MEMORY_FAULTS])
def test_dataset_built_in_memory_builds_a_plain_tuple_as_a_line(name, value):
    season = parse_csv(GAMES_CSV, LINES_CSV)
    fields = {**dict(zip(BoxscoreLine._fields, season.lines[1])), name: value}
    with pytest.raises(ValueError) as built:
        BoxscoreLine(**fields)
    lines = [season.lines[0], tuple(fields.values()), *season.lines[2:]]
    with pytest.raises(BadValueError) as memory:
        Dataset(season.games, lines)
    assert type(built.value) is ValueError
    assert str(memory.value) == f"line 2: {built.value}"


def test_dataset_built_in_memory_holds_a_plain_tuple_as_a_line():
    season = parse_csv(GAMES_CSV, LINES_CSV)
    rebuilt = Dataset(season.games, map(tuple, season.lines))
    assert rebuilt == season and {*map(type, rebuilt.lines)} == {BoxscoreLine}


def test_dataset_built_in_memory_builds_a_plain_tuple_as_a_game():
    season = parse_csv(GAMES_CSV, LINES_CSV)
    rebuilt = Dataset({gid: tuple(game) for gid, game in season.games.items()}, season.lines)
    assert rebuilt == season and {*map(type, rebuilt.games.values())} == {GameMeta}
    games = {**season.games, "G01": tuple(season.games["G01"])[:4]}
    with pytest.raises(BadValueError, match=r"^game filed under 'G01': .*'home_score'"):
        Dataset(games, season.lines)
    game = tuple(season.games["G01"])
    games["G01"] = (*game[:3], game[4], *game[4:])
    with pytest.raises(BadValueError) as raised:
        Dataset(games, season.lines)
    assert str(raised.value) == (
        "game filed under 'G01': home_team and away_team must differ, got 'BCN'"
    )


@pytest.mark.parametrize("cut", [4, 23], ids=["short", "long"])
def test_dataset_built_in_memory_names_a_tuple_that_is_no_line(cut):
    season = parse_csv(GAMES_CSV, LINES_CSV)
    fields = (tuple(season.lines[1]) + (0,))[:cut]
    with pytest.raises(BadValueError, match=r"^line 2: cannot build a BoxscoreLine: "):
        Dataset(season.games, [season.lines[0], fields, *season.lines[2:]])


@pytest.mark.parametrize("minutes", [None, [1]])
def test_minutes_that_are_no_number_are_a_value_error(minutes):
    with pytest.raises(ValueError) as raised:
        BoxscoreLine("p1", "Arco", "MAD", "G01", minutes)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"field 'minutes' must be a number, got {minutes!r}"


@pytest.mark.parametrize("record,field", [
    *((make_line, field) for field in ("player_id", "player_name", "team", "game_id")),
    *((make_game, field) for field in ("game_id", "competition", "home_team", "away_team")),
])
def test_a_record_built_with_a_text_utf8_cannot_encode_is_rejected(record, field):
    with pytest.raises(ValueError) as raised:
        record(**{field: "x\udc80"})
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"field {field!r} holds '\\udc80', which UTF-8 cannot encode"


def test_a_dataset_whose_games_file_a_game_under_another_id_is_rejected():
    season = parse_csv(GAMES_CSV, LINES_CSV)
    games = {("x" if gid == "G01" else gid): game for gid, game in season.games.items()}
    lines = [line._replace(game_id="x") if line.game_id == "G01" else line for line in season.lines]
    with pytest.raises(BadValueError, match="game filed under 'x' has game_id 'G01'"):
        Dataset(games, lines)
