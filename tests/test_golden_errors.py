"""Golden ingest errors: the exact class and message for each fault.

Every line fault of ``test_ingest._LINE_FAULTS``, plus non-finite minutes, is
put into a 1,026-line season at rows 1, 1024, 1025 and the last row, in each
format it applies to: the first row, both sides of the first block boundary,
and the last row. The four placements cycle through the fault's bad values
(or, for ``empty_id``, the id columns). Each game fault is put into the first
and the last game. The inputs come from a seeded generator, so the file pins
every message byte for byte. Regenerate it only for an intended message change::

    PYTHONPATH=src python tests/test_golden_errors.py --write
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from pathlib import Path

from boxmetrics import derived_points
from boxmetrics.ingest import parse_csv, parse_json, serialize_csv, serialize_json
from test_acceptance import _synthetic_season
from test_ingest import _BAD_VALUES, _COUNTS, _FAULT_COLUMN, _GAME_FAULTS, _JSON_ONLY, _LINE_FAULTS
from test_ingest import _BAD_TEXTS, _GAME_TEXTS, _LINE_TEXTS, _NON_FINITE

GOLDEN = Path(__file__).with_name("golden_errors.json")
# 1-based data rows: the first, both sides of the first block boundary, the last.
ROWS = (1, 1024, 1025, 1026)
_VALUES = {**_BAD_VALUES, "minutes_non_finite": _NON_FINITE}


def _tables(season, fmt: str) -> tuple[list[dict], list[dict]]:
    if fmt == "csv":
        games, lines = (list(csv.DictReader(io.StringIO(t))) for t in serialize_csv(season))
    else:
        doc = json.loads(serialize_json(season))
        games, lines = doc["games"], doc["lines"]
    for cells, line in zip(lines, season.lines):
        cells["points"] = str(derived_points(line)) if fmt == "csv" else derived_points(line)
    return games, lines


def _edits(rng: random.Random, fault: str, fmt: str, k: int) -> tuple[str, dict]:
    """(label, cell edits) for the ``k``-th placement of ``fault`` in ``fmt``;
    the placements cycle through the fault's bad values or id columns."""
    if fault in _VALUES:
        values = _VALUES[fault][fmt == "json"]
        value = values[k % len(values)]
        column = _FAULT_COLUMN.get(fault) or (
            "minutes" if fault == "minutes_non_finite" else rng.choice(_COUNTS)
        )
        return f"{column}={value!r:.24}", {column: value}
    if fault == "empty_id":
        column = ("player_id", "team", "game_id")[k % 3]
        return f"{column}=''", {column: ""}
    if fault == "points_mismatch":
        return "points+1", {"points": None}
    if fault == "points_negative":
        return "points=-1", {"points": -1 if fmt == "json" else "-1"}
    edits = {"dangling_game": {"game_id": "G999"}, "wrong_team": {"team": "XXX"},
             "duplicate_line": {}, "missing_field": {}, "unknown_field": {"bonus": 1}}
    return fault, edits[fault]


def _break(fault: str, fmt: str, lines: list[dict], i: int, edits: dict, rng) -> dict:
    cells = dict(lines[i])
    if fault == "duplicate_line":
        # The first row has no earlier row to repeat: row 2 repeats it.
        return dict(lines[rng.randrange(i)]) if i else cells
    if fault == "missing_field":
        del cells[rng.choice(sorted(set(cells) - {"points"}))]
    for column, value in edits.items():
        if column == "points" and value is None:
            value = int(cells["points"]) + 1
            value = value if fmt == "json" else str(value)
        cells[column] = value
    return cells


def _row_text(fmt: str, cells: dict, with_points: bool = True) -> str:
    if not with_points:
        cells = {k: v for k, v in cells.items() if k != "points"}
    if fmt == "json":
        return json.dumps(cells)
    buf = io.StringIO()
    csv.writer(buf).writerow(cells.values())
    return buf.getvalue()


def _text(fmt: str, games: list[str], lines: list[str]) -> tuple[str, ...]:
    """Parser arguments from each table's header (CSV) and row texts."""
    if fmt == "json":
        return ('{"games": [%s], "lines": [%s]}' % (", ".join(games), ", ".join(lines)),)
    return "".join(games), "".join(lines)


def cases():
    """(case id, format, parser arguments) for every golden input."""
    rng = random.Random(20141005)
    season = _synthetic_season(114, 9)
    assert len(season.lines) == ROWS[-1]
    for fmt in ("csv", "json"):
        games, lines = _tables(season, fmt)
        game_texts = [_row_text(fmt, game) for game in games]
        # Without and with points; a CSV table starts with its header row.
        line_texts = [[_row_text(fmt, cells, with_points) for cells in lines]
                      for with_points in (False, True)]
        if fmt == "csv":
            game_texts.insert(0, _row_text(fmt, dict(zip(games[0], games[0]))))
            for with_points, texts in enumerate(line_texts):
                texts.insert(0, _row_text(fmt, dict(zip(lines[0], lines[0])), with_points))
        skip = fmt == "csv"  # the header row
        for fault in (*_LINE_FAULTS, "minutes_non_finite"):
            if fmt == "csv" and fault in _JSON_ONLY:
                continue
            for k, row in enumerate(ROWS):
                label, edits = _edits(rng, fault, fmt, k)
                i = row - 1
                with_points = fault.startswith("points") or rng.random() < 0.5
                broken = list(line_texts[with_points])
                j = 1 if fault == "duplicate_line" and i == 0 else i
                cells = _break(fault, fmt, lines, i, edits, rng)
                broken[j + skip] = _row_text(fmt, cells, with_points)
                yield (f"{fmt} {fault} {label} row {row} points={with_points}", fmt,
                       _text(fmt, game_texts, broken))
        for fault in _GAME_FAULTS:
            for i in (0, len(games) - 1):
                broken = list(game_texts)
                game = dict(games[i])
                if fault == "tied":
                    game["away_score"] = game["home_score"]
                elif fault == "negative_score":
                    game["home_score"] = -80 if fmt == "json" else "-80"
                elif fault == "bad_date":
                    game["date"] = "2014-13-01"
                elif fault == "same_teams":
                    game["away_team"] = game["home_team"]
                else:
                    game["date"] = "2014-02-01"
                    broken.append(_row_text(fmt, game))
                    game = games[i]
                broken[i + skip] = _row_text(fmt, game)
                yield f"{fmt} {fault} game {i + 1}", fmt, _text(fmt, broken, line_texts[False])
    # The loop ends on JSON, whose tables these are.
    yield from _text_cases(games, lines, game_texts, line_texts)


def _text_cases(games, lines, game_texts, line_texts):
    """The JSON id and name faults, in a line at each of ``ROWS`` and in the
    first and the last game, cycling through the bad values and the fields.
    They draw nothing from the generator, so the cases above stay as they are."""
    for fault, values in _BAD_TEXTS.items():
        for k, row in enumerate(ROWS):
            field, value = _LINE_TEXTS[k % 4], values[k % len(values)]
            broken = list(line_texts[k % 2])
            broken[row - 1] = _row_text("json", {**lines[row - 1], field: value}, k % 2)
            yield (f"json {fault} {field}={value!r:.24} row {row} points={k % 2 == 1}", "json",
                   _text("json", game_texts, broken))
        for k, i in enumerate((0, len(games) - 1)):
            field, value = _GAME_TEXTS[k + 2 * (fault == "text_not_utf8")], values[k]
            broken = list(game_texts)
            broken[i] = _row_text("json", {**games[i], field: value})
            yield (f"json game_{fault} {field}={value!r:.24} game {i + 1}", "json",
                   _text("json", broken, line_texts[False]))


def error_texts() -> dict[str, list[str]]:
    """[error class name, message] for every golden input, by case id."""
    found = {}
    for case, fmt, args in cases():
        try:
            (parse_csv if fmt == "csv" else parse_json)(*args)
        except ValueError as exc:
            found[case] = [type(exc).__name__, str(exc)]
        else:
            raise AssertionError(f"{case}: parsed without an error")
    return found


def test_ingest_errors_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = error_texts()
    assert sorted(got) == sorted(expected)
    for case, error in expected.items():
        assert got[case] == error, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_errors.py --write")
    texts = error_texts()
    GOLDEN.write_text(json.dumps(texts, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(texts)} errors to {GOLDEN}")
