"""End-to-end command-line behaviour and exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from boxmetrics.cli import main
from boxmetrics.ingest import serialize_csv, serialize_json
from conftest import build_season, winloss_season


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
