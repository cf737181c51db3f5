"""End-to-end command-line behaviour and exit codes."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmetrics import METRICS, Dataset, cli
from boxmetrics.cli import main
from boxmetrics.ingest import GAMES_HEADER, LINES_HEADER, cell_text, serialize_csv, serialize_json
from boxmetrics.splits import SPLIT_KINDS
from conftest import build_season, winloss_season
from test_acceptance import _synthetic_season


@pytest.fixture
def season_files(tmp_path: Path) -> dict[str, str]:
    games_text, lines_text = serialize_csv(build_season())
    games = tmp_path / "games.csv"
    lines = tmp_path / "lines.csv"
    games.write_text(games_text, encoding="utf-8")
    lines.write_text(lines_text, encoding="utf-8")
    return {"games": str(games), "lines": str(lines), "dir": str(tmp_path)}


def _base(season_files, *extra: str) -> list[str]:
    return [*extra, "--games", season_files["games"], "--lines", season_files["lines"]]


def test_validate_ok(season_files, capsys):
    assert main(_base(season_files, "validate")) == 0
    out = capsys.readouterr().out
    assert "6 games" in out and "20 lines" in out and "4 players" in out


def test_validate_reports_dangling_ref(season_files, tmp_path, capsys):
    broken = Path(season_files["lines"]).read_text(encoding="utf-8").replace("G01,p4", "G99,p4")
    bad = tmp_path / "bad_lines.csv"
    bad.write_text(broken, encoding="utf-8")
    code = main(["validate", "--games", season_files["games"], "--lines", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "G99" in err


def test_missing_file_is_io_error(season_files):
    code = main(["validate", "--games", "/nonexistent/g.csv", "--lines", season_files["lines"]])
    assert code == 3


@pytest.mark.parametrize("table", ["games", "lines"])
def test_a_row_the_csv_reader_cannot_read_exits_2_naming_it(season_files, capsys, table):
    path = Path(season_files[table])
    old = {"games": "liga", "lines": "Cano"}[table]
    text = path.read_text(encoding="utf-8")
    row = next(i for i, line in enumerate(text.splitlines(), 1) if old in line)
    path.write_text(text.replace(old, "x" * 200_000, 1), encoding="utf-8")
    assert main(_base(season_files, "validate")) == 2
    assert capsys.readouterr().err == (
        f"error: {table} row {row}: field larger than field limit (131072)\n"
    )


@pytest.mark.parametrize("option", ["--json", "--weights"])
def test_json_nested_too_deep_exits_2(season_files, tmp_path, capsys, option):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    argv = ["validate", option, str(deep)]
    if option == "--weights":
        argv += ["--games", season_files["games"], "--lines", season_files["lines"]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid JSON: maximum recursion depth exceeded"
    )


def test_validate_json_input(tmp_path):
    doc = tmp_path / "season.json"
    doc.write_text(serialize_json(build_season()), encoding="utf-8")
    assert main(["validate", "--json", str(doc)]) == 0


def test_rank_writes_deterministic_output(season_files, tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    args = _base(season_files, "rank", "rend") + ["--per-minute", "--min-games", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"rank" in out1.read_bytes()


def test_rank_min_games_too_high(season_files, capsys):
    code = main(_base(season_files, "rank", "rend") + ["--min-games", "40"])
    assert code == 2


def test_rank_regularity_suffix(season_files, tmp_path):
    out = tmp_path / "reg.csv"
    args = _base(season_files, "rank", "rend:reg") + [
        "--per-minute", "--min-games", "2", "--format", "csv", "--out", str(out),
    ]
    assert main(args) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert "mean_rank" in header


def test_regularity_command_matches_rank_suffix(season_files, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    common = ["--per-minute", "--min-games", "2"]
    assert main(_base(season_files, "rank", "rend:reg") + common + ["--out", str(a)]) == 0
    assert main(_base(season_files, "regularity", "rend") + common + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_delta_command(season_files, capsys):
    args = _base(season_files, "delta", "valoracion", "rend") + ["--min-games", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "rank_a" in out and "delta" in out


def test_splits_command_significant_star(tmp_path, capsys):
    wins = [14, 13, 14, 15, 13, 14, 12, 14, 15, 13, 14, 13, 15, 14, 13]
    losses = [10, 9, 10, 11, 10, 9, 10, 10, 11, 9, 10, 10, 9, 10, 11]
    doc = tmp_path / "season.json"
    doc.write_text(serialize_json(winloss_season(wins, losses)), encoding="utf-8")
    code = main(["splits", "n1", "points_per_minute", "win_loss", "--json", str(doc)])
    assert code == 0
    out = capsys.readouterr().out
    assert "*" in out
    assert "loss" in out and "win" in out


def test_splits_insufficient_is_warning_not_failure(season_files, capsys):
    code = main(_base(season_files, "splits", "p4", "points_per_minute", "win_loss"))
    assert code == 0
    assert "warning" in capsys.readouterr().err


def test_splits_unknown_player(season_files):
    code = main(_base(season_files, "splits", "ghost", "points_per_minute", "win_loss"))
    assert code == 2


def test_splits_per_minute_flag_uses_per_minute_form(season_files, capsys):
    base = _base(season_files, "splits", "p1") + ["--format", "csv"]
    assert main(base[:2] + ["rend_per_minute", "home_away"] + base[2:]) == 0
    explicit = capsys.readouterr().out
    assert main(base[:2] + ["rend", "home_away"] + base[2:]) == 0
    per_game = capsys.readouterr().out
    assert main(base[:2] + ["rend", "home_away"] + base[2:] + ["--per-minute"]) == 0
    flagged = capsys.readouterr().out
    assert flagged == explicit != per_game
    assert main(base[:2] + ["plus_minus"] + base[2:] + ["--per-minute"]) == 2
    assert "plus_minus" in capsys.readouterr().err


def test_splits_one_player_rejects_min_games_before_input_is_read(capsys):
    missing = ["--games", "/nonexistent/g.csv", "--lines", "/nonexistent/l.csv"]
    assert main(["splits", "p1", "rend", "--min-games", "1", *missing]) == 2
    assert "--min-games" in capsys.readouterr().err


def test_splits_all_plus_minus_overview(season_files, capsys):
    code = main(_base(season_files, "splits", "all", "plus_minus") + ["--min-games", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "close" in out and "total" in out


def test_correlate_command(season_files, capsys):
    args = _base(season_files, "correlate", "valoracion", "points") + ["--min-games", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "pearson" in out


def test_correlate_metric_against_itself(season_files, capsys):
    args = _base(season_files, "correlate", "rend", "rend") + ["--min-games", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "1.000" in out


def test_correlate_too_few_players(season_files):
    args = _base(season_files, "correlate", "valoracion", "points") + ["--min-games", "3"]
    assert main(args) == 2


def test_weights_override_changes_fingerprint(season_files, tmp_path, capsys):
    override = tmp_path / "weights.json"
    override.write_text(json.dumps({"a": 3.0}), encoding="utf-8")
    args = _base(season_files, "rank", "rend") + ["--min-games", "1"]
    assert main(args) == 0
    default_out = capsys.readouterr().out
    assert main(args + ["--weights", str(override)]) == 0
    override_out = capsys.readouterr().out
    fingerprint = lambda text: next(
        part for part in text.splitlines()[1].split() if part.startswith("weights_fingerprint=")
    )
    assert fingerprint(default_out) != fingerprint(override_out)


def test_weights_override_unknown_key(season_files, tmp_path):
    override = tmp_path / "weights.json"
    override.write_text(json.dumps({"zzz": 3.0}), encoding="utf-8")
    args = _base(season_files, "rank", "rend") + ["--weights", str(override)]
    assert main(args) == 2


def test_report_all_writes_directory(season_files, tmp_path):
    out_dir = tmp_path / "reports"
    args = _base(season_files, "report-all") + [
        "--min-games", "1", "--format", "json", "--out", str(out_dir),
    ]
    assert main(args) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert "rank_rend.json" in names
    assert "rank_valoracion_per_minute.json" in names
    assert "regularity_rend_per_minute.json" in names
    assert "plus_minus_overview.json" in names
    assert "win_loss_points_per_minute.json" in names
    assert "correlations.json" in names
    assert "delta_valoracion_to_rend.json" in names
    doc = json.loads((out_dir / "rank_rend.json").read_text(encoding="utf-8"))
    assert doc["meta"]["min_games"] == 1


def test_report_all_that_fails_writes_no_file(season_files, tmp_path, capsys):
    """Three players meet --min-games 3, too few for the correlation table,
    the last of the 20: the command fails and --out gains no file."""
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    (out_dir / "kept.txt").write_text("mine", encoding="utf-8")
    for fmt in ("csv", "json", "text"):
        args = _base(season_files, "report-all", "--min-games", "3", "--format", fmt)
        assert main([*args, "--out", str(out_dir)]) == 2
        assert "need at least 4 players" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == ["kept.txt"]
    assert main([*args, "--out", str(tmp_path / "new")]) == 2
    assert not (tmp_path / "new").exists()


def test_text_table_keeps_one_row_per_line(tmp_path, capsys):
    """Control characters in a name are escaped in a text table, as repr()
    escapes them; CSV and JSON keep the name as it is."""
    names = {"p1": "line\nbreak", "p2": "tab\tand\rreturn", "p3": "esc\x1b\x85", "p4": "Dedo\u2028"}
    season = build_season()
    lines = [line._replace(player_name=names[line.player_id]) for line in season.lines]
    doc = tmp_path / "season.json"
    doc.write_text(serialize_json(Dataset(season.games, lines)), encoding="utf-8")
    assert main(["rank", "rend", "--min-games", "1", "--json", str(doc)]) == 0
    text = capsys.readouterr().out
    assert len(text.splitlines()) == 3 + 4
    for name in names.values():
        assert repr(name)[1:-1] in text
    assert main(["rank", "rend", "--min-games", "1", "--format", "json", "--json", str(doc)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {row["player_name"] for row in rows} == set(names.values())


@pytest.mark.parametrize("command", (["validate"], ["rank", "rend", "--format", "json"]))
def test_a_name_utf8_cannot_encode_is_rejected_at_ingest(tmp_path, capsys, command):
    doc = tmp_path / "season.json"
    text = serialize_json(build_season()).replace('"Cano"', '"\\ud800x"', 1)
    doc.write_text(text, encoding="utf-8")
    assert main([*command, "--min-games", "1", "--json", str(doc)]) == 2
    entry = 1 + [line.player_name for line in build_season().lines].index("Cano")
    assert capsys.readouterr().err == (
        f"error: lines entry {entry}: field 'player_name' holds '\\ud800', "
        "which UTF-8 cannot encode\n"
    )


@pytest.mark.parametrize("command", (["validate"], ["rank", "rend", "--min-games", "3"]))
def test_a_count_no_float_can_hold_exits_2_naming_it(season_files, capsys, command):
    # Every metric turns each count into a float; the player with this line
    # has too few games to be ranked, but the season is read whole.
    path = Path(season_files["lines"])
    rows = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, row in enumerate(rows) if row.startswith("G02,p4,"))
    cells = rows[i].split(",")
    cells[LINES_HEADER.index("rd")] = str(10**400)
    rows[i] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(_base(season_files, *command)) == 2
    assert capsys.readouterr().err == (
        f"error: lines row {i + 1}: rd must fit in a float, got {10**400}\n"
    )


def test_invalid_alpha_rejected(season_files):
    args = _base(season_files, "rank", "rend") + ["--alpha", "1.5", "--min-games", "1"]
    assert main(args) == 2


def test_bad_flag_rejected_before_input_is_read(tmp_path):
    # The input does not exist: exit 2 (bad flag), not 3 (i/o), shows the
    # flags are checked before the season is loaded.
    missing = ["--games", "/nonexistent/g.csv", "--lines", "/nonexistent/l.csv"]
    assert main(["rank", "rend", "--alpha", "1.5", *missing]) == 2
    assert main(["validate", "--min-games", "0", *missing]) == 2
    assert main(["validate", "--close-threshold", "-1", *missing]) == 2
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"zzz": 3.0}), encoding="utf-8")
    assert main(["validate", "--weights", str(weights), *missing]) == 2


def _constant_sides_season(tmp_path: Path) -> str:
    """Four games: the player's lines are identical within wins and within
    losses, so the Welch t statistic of loss vs win is -inf."""
    doc = tmp_path / "season.json"
    doc.write_text(serialize_json(winloss_season([5, 5], [2, 2])), encoding="utf-8")
    return str(doc)


def _reject_non_finite(token: str):
    raise AssertionError(f"non-finite JSON token {token}")


def test_splits_json_writes_null_for_infinite_t_stat(tmp_path, capsys):
    args = ["splits", "n1", "rend", "win_loss", "--json", _constant_sides_season(tmp_path),
            "--format", "json"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    (row,) = doc["rows"]
    assert row["t_stat"] is None
    assert row["p_value"] == 0.0 and row["mean_a"] == 2.0 and row["mean_b"] == 5.0


def test_splits_text_prints_infinite_t_stat(tmp_path, capsys):
    args = ["splits", "n1", "rend", "win_loss", "--json", _constant_sides_season(tmp_path),
            "--format", "text"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].split()[7] == "-inf"


def test_correlate_per_minute_uses_per_minute_forms(season_files, capsys):
    base = _base(season_files, "correlate") + ["--min-games", "1", "--format", "csv"]
    assert main(base[:1] + ["rend_per_minute", "points_per_minute"] + base[1:]) == 0
    explicit = capsys.readouterr().out
    assert main(base[:1] + ["rend", "points"] + base[1:]) == 0
    per_game = capsys.readouterr().out
    assert main(base[:1] + ["rend", "points"] + base[1:] + ["--per-minute"]) == 0
    flagged = capsys.readouterr().out
    assert flagged == explicit != per_game


def test_correlate_per_minute_rejects_plus_minus(season_files, capsys):
    args = _base(season_files, "correlate", "plus_minus", "points") + [
        "--min-games", "1", "--per-minute",
    ]
    assert main(args) == 2
    assert "plus_minus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra", [["rend"], ["plus_minus", "close_game"], ["plus_minus", "win_loss"]],
    ids=["metric", "kind", "default-kind-named"],
)
def test_splits_all_rejects_metric_or_kind(season_files, capsys, extra):
    args = _base(season_files, "splits", "all", *extra) + ["--min-games", "1"]
    assert main(args) == 2
    assert "splits all" in capsys.readouterr().err


def _exit_code(argv: list[str]) -> int:
    """The exit code of ``main``, also when argparse rejects the flags."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["splits", "p1", "rend_per_minute", "home_away", "--competition", "copa"],
        ["splits", "all", "plus_minus", "--competition", "nosuch", "--min-games", "1"],
        ["validate", "--per-minute"],
        ["validate", "--format", "json"],
        ["validate", "--out", "x.json"],
        ["report-all", "--per-minute", "--min-games", "1"],
    ],
    ids=["splits-kind", "splits-all", "validate-per-minute", "validate-format",
         "validate-out", "report-all-per-minute"],
)
def test_flag_the_command_cannot_use_is_rejected(season_files, tmp_path, monkeypatch, argv):
    # Every file a run might write lands in tmp_path.
    monkeypatch.chdir(tmp_path)
    assert _exit_code(_base(season_files, *argv)) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["games.csv", "lines.csv"]
    missing = ["--games", "/nonexistent/g.csv", "--lines", "/nonexistent/l.csv"]
    assert _exit_code([*argv, *missing]) == 2


def test_splits_competition_flag_kept_for_the_competition_kind(season_files, capsys):
    args = _base(season_files, "splits", "p1", "rend", "competition", "--competition", "copa")
    assert main(args) == 0
    # p1 played one copa game: the split runs and is reported as too small.
    assert "warning" in capsys.readouterr().err


def test_split_meta_names_min_games_only_where_it_filters(season_files, capsys):
    one = _base(season_files, "splits", "p1", "rend", "home_away") + ["--format", "json"]
    assert main(one) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert "min_games" not in meta and meta["player"] == "p1"
    overview = _base(season_files, "splits", "all", "plus_minus") + [
        "--format", "json", "--min-games", "1",
    ]
    assert main(overview) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["min_games"] == 1


@pytest.mark.parametrize("text", ['{"rd": null}', '{"rd": NaN}', '{"rd": 1e999}'])
def test_weights_that_are_not_finite_numbers_exit_2(season_files, tmp_path, capsys, text):
    override = tmp_path / "weights.json"
    override.write_text(text, encoding="utf-8")
    args = _base(season_files, "rank", "rend") + ["--min-games", "1", "--weights", str(override)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "weight 'rd'" in captured.err
    assert "Traceback" not in captured.err


# The benchmark's commands, each with the input format its workload reads.
_BENCHMARK_COMMANDS = (
    ("csv", "validate"),
    ("csv", "report-all --format text --out"),
    ("csv", "rank valoracion --per-minute --format csv"),
    ("csv", "regularity rend --per-minute --format csv"),
    ("csv", "correlate valoracion points --format csv"),
    ("json", "validate"),
    ("json", "report-all --format json --out"),
    ("json", "splits all plus_minus --format json"),
    *(("json", f"splits p000 rend_per_minute {kind} --format json") for kind in SPLIT_KINDS),
)


@pytest.fixture(scope="module")
def seasons_of_two_sizes(tmp_path_factory) -> list[Path]:
    directories = []
    for players in (40, 160):
        directory = tmp_path_factory.mktemp(f"players_{players}")
        season = _synthetic_season(players, 12)
        games_text, lines_text = serialize_csv(season)
        (directory / "games.csv").write_text(games_text, encoding="utf-8")
        (directory / "lines.csv").write_text(lines_text, encoding="utf-8")
        (directory / "season.json").write_text(serialize_json(season), encoding="utf-8")
        directories.append(directory)
    return directories


def _cyclic_garbage(argv: list[str]) -> int:
    """The objects in reference cycles that ``main(argv)`` leaves behind,
    run with the collector paused as ``cli.run`` runs it."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("fmt, command", _BENCHMARK_COMMANDS)
def test_cyclic_garbage_of_a_command_does_not_grow_with_the_season(
    seasons_of_two_sizes, fmt, command
):
    # A process that never collects must not hold garbage in proportion to
    # its input: 4x the players leave no more cycles behind.
    garbage = []
    for directory in seasons_of_two_sizes:
        argv = command.split()
        if argv[-1] == "--out":
            argv.append(str(directory / f"reports_{fmt}"))
        if fmt == "csv":
            argv += ["--games", str(directory / "games.csv")]
            argv += ["--lines", str(directory / "lines.csv")]
        else:
            argv += ["--json", str(directory / "season.json")]
        garbage.append(_cyclic_garbage(argv))
    small, large = garbage
    assert large <= small


# --- every command on seasons whose ids and names are any Unicode text ---

# Short texts from all of Unicode, with more of the characters that CSV,
# JSON, text tables or argparse treat apart: NUL, line breaks, quotes,
# separators and a leading "-". Lone surrogates, which UTF-8 cannot encode,
# come in a quarter of the seasons only, as one makes the season invalid.
_CHARACTERS = st.characters() | st.sampled_from('\x00\n\r\u2028",-')
_TEXT = st.text(_CHARACTERS, min_size=1, max_size=3)
_TEXT_OR_SURROGATE = st.text(_CHARACTERS | st.sampled_from("\ud800\udfff"), min_size=1, max_size=3)
_TEXTS = (_TEXT, _TEXT, _TEXT, _TEXT_OR_SURROGATE)
_METRIC_NAMES = (*METRICS, *(f"{m}_per_minute" for m in METRICS if m != "plus_minus"))


@st.composite
def _any_text_seasons(draw) -> tuple[str, dict[str, bytes], list[str]]:
    """(input format, file name -> bytes, player ids) of a small season whose
    ids, names, teams and competitions are drawn from one of :data:`_TEXTS`."""
    any_text = draw(st.sampled_from(_TEXTS))
    home, away = draw(st.lists(any_text, min_size=2, max_size=2, unique=True))
    game_ids = draw(st.lists(any_text, min_size=2, max_size=5, unique=True))
    games = [
        [gid, f"2014-01-{i + 1:02d}", draw(any_text | st.just("liga")), home, away, 80,
         draw(st.sampled_from((70, 78, 90)))]
        for i, gid in enumerate(game_ids)
    ]
    players = draw(st.lists(st.tuples(any_text, any_text), min_size=4, max_size=7,
                            unique_by=lambda player: player[0]))
    lines = []
    for player_id, name in players:
        team = draw(st.sampled_from((home, away)))
        for gid in draw(st.lists(st.sampled_from(game_ids), min_size=1, unique=True)):
            counts = draw(st.lists(st.integers(0, 4), min_size=15, max_size=15))
            lines.append([gid, player_id, name, team, draw(st.sampled_from((0.0, 12.5, 30.0))),
                          *counts, draw(st.none() | st.integers(-9, 9)), draw(st.booleans())])
    if draw(st.booleans()):
        doc = {"games": [dict(zip(GAMES_HEADER, game)) for game in games],
               "lines": [dict(zip(LINES_HEADER, line)) for line in lines]}
        # ASCII JSON, which carries a lone surrogate as an escape.
        return "json", {"season.json": json.dumps(doc).encode("ascii")}, [p for p, _ in players]
    files = {}
    for name, header, rows in (("games.csv", GAMES_HEADER, games),
                               ("lines.csv", LINES_HEADER, lines)):
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *([cell_text(v) for v in row] for row in rows)])
        # A lone surrogate becomes bytes that are not UTF-8.
        files[name] = buf.getvalue().encode("utf-8", "surrogatepass")
    return "csv", files, [p for p, _ in players]


def _no_json_constant(name: str) -> None:
    raise ValueError(f"strict JSON has no {name}")


def _text_rows(text: str) -> int:
    """Rows of a text table: its lines after the "# " title and meta lines
    and the column header."""
    lines = text.split("\n")[:-1]
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    return len(lines) - header - 1


def _check_outputs(outputs: dict[str, bytes]) -> None:
    """One table rendered in each format: strict JSON, and the same row count
    in the CSV, the JSON and the text table."""
    doc = json.loads(outputs["json"].decode("utf-8"), parse_constant=_no_json_constant)
    csv_rows = list(csv.reader(io.StringIO(outputs["csv"].decode("utf-8"), newline="")))
    assert len(csv_rows) - 1 == len(doc["rows"]) == _text_rows(outputs["txt"].decode("utf-8"))


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` in-process: its exit code, argparse's included, and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=25, deadline=None)
@given(season=_any_text_seasons(), data=st.data())
def test_every_command_on_any_text_exits_cleanly_with_valid_output(
    tmp_path_factory, season, data
):
    fmt, files, player_ids = season
    directory = tmp_path_factory.mktemp("any_text")
    for name, payload in files.items():
        (directory / name).write_bytes(payload)
    if fmt == "json":
        inputs = ["--json", str(directory / "season.json")]
    else:
        inputs = ["--games", str(directory / "games.csv"), "--lines", str(directory / "lines.csv")]
    metric, other = (data.draw(st.sampled_from(_METRIC_NAMES)) for _ in range(2))
    player = data.draw(st.sampled_from(player_ids))
    kind = data.draw(st.sampled_from((None, *SPLIT_KINDS)))
    min_games = ["--min-games", str(data.draw(st.integers(1, 3)))]
    # (command and options, positional arguments), which follow a "--" so
    # that an id that starts with "-" is not read as an option.
    commands = {
        "rank": (["rank", *min_games], [metric]),
        "regularity": (["regularity", *min_games], [metric]),
        "delta": (["delta", *min_games], [metric, other]),
        "splits": (["splits"], [player, metric, *([kind] if kind else [])]),
        "splits_all": (["splits", *min_games], ["all", "plus_minus"]),
        "correlate": (["correlate", *min_games], [metric, other]),
        "report_all": (["report-all", *min_games], []),
    }
    code, err = _run(["validate", *inputs])
    assert code in (0, 2, 3) and "Traceback" not in err
    for name, (head, positionals) in commands.items():
        codes, outputs = set(), {}
        for ext, out_format in (("csv", "csv"), ("json", "json"), ("txt", "text")):
            out = directory / f"{name}.{ext}"
            argv = [*head, *inputs, "--format", out_format, "--out", str(out)]
            argv += ["--", *positionals] if positionals else []
            code, err = _run(argv)
            assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
            codes.add(code)
            if code != 0:
                assert not out.exists()
            elif name == "report_all":
                outputs[ext] = {path.stem: path.read_bytes() for path in out.iterdir()}
            elif out.exists():
                outputs[ext] = out.read_bytes()
            else:
                assert name == "splits" and err.startswith("warning: ")
        assert len(codes) == 1, (argv, codes)
        if name == "report_all" and outputs:
            assert outputs["csv"].keys() == outputs["json"].keys() == outputs["txt"].keys()
            for stem in outputs["csv"]:
                _check_outputs({ext: files[stem] for ext, files in outputs.items()})
        elif outputs:
            _check_outputs(outputs)


# Every command with arguments it runs on the six-game season.
_EVERY_COMMAND = {
    "validate": ["validate"],
    "rank": ["rank", "rend", "--min-games", "1"],
    "regularity": ["regularity", "rend", "--per-minute", "--min-games", "1"],
    "delta": ["delta", "valoracion", "rend", "--min-games", "1"],
    "splits": ["splits", "p1", "rend_per_minute", "home_away"],
    "splits-all": ["splits", "all", "plus_minus", "--min-games", "1"],
    "correlate": ["correlate", "valoracion", "points", "--min-games", "1"],
    "report-all": ["report-all", "--min-games", "1"],
}


@pytest.mark.parametrize("source", ["csv", "json"])
@pytest.mark.parametrize(
    "command,fmt",
    [
        (command, fmt)
        for command in _EVERY_COMMAND
        for fmt in (("text",) if command == "validate" else ("csv", "json", "text"))
    ],
)
def test_no_command_builds_the_line_records(tmp_path, monkeypatch, capsys, command, fmt, source):
    # A parsed season keeps its lines as columns; the records are built only
    # when asked for, and no command asks.
    loaded = []

    def load_dataset(*args):
        loaded.append(load(*args))
        return loaded[-1]

    load = cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset", load_dataset)
    if source == "csv":
        inputs = []
        for name, text in zip(("games", "lines"), serialize_csv(build_season())):
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
            inputs += [f"--{name}", str(tmp_path / f"{name}.csv")]
    else:
        (tmp_path / "season.json").write_text(serialize_json(build_season()), encoding="utf-8")
        inputs = ["--json", str(tmp_path / "season.json")]
    argv = [*_EVERY_COMMAND[command], *inputs]
    if command != "validate":
        argv += ["--format", fmt]
    if command == "report-all":
        argv += ["--out", str(tmp_path / "reports")]
    assert main(argv) == 0, capsys.readouterr().err
    assert len(loaded) == 1 and "lines" not in vars(loaded[0])
