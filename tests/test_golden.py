"""Golden report bytes: the sha256 of every ``report-all`` output.

The 20 reports, rendered as csv, json and text, on two seasons, must stay
byte-identical across refactors and optimisations. The digests in
``golden_reports.json`` were written by the code before the per-player
index landed. Regenerate them only for an intended output change::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import builtins
import hashlib
import json
import os
import random
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import boxmetrics
from boxmetrics import BoxscoreLine, Dataset, GameMeta
from boxmetrics.cli import main
from boxmetrics.ingest import serialize_csv, serialize_json
from oracles import neumaier_sum
from test_acceptance import _synthetic_season

GOLDEN = Path(__file__).with_name("golden_reports.json")
FORMATS = ("csv", "json", "text")

_COUNTS = {
    "t2c": 9, "t2f": 8, "t3c": 5, "t3f": 6, "t1c": 8, "t1f": 4, "rd": 9, "ro": 5,
    "a": 9, "br": 4, "bp": 5, "tf": 3, "tr": 2, "fpc": 5, "fpr": 6,
}


def _messy_season() -> Dataset:
    """24 players x 12 rounds on 8 teams with the irregular cases.

    DNP lines, unreported plus/minus, a cup competition, lines in shuffled
    order, and short-stint players that the default ``--min-games 10`` drops.
    """
    rng = random.Random(7)
    teams = [f"T{i}" for i in range(8)]
    players = [f"m{p:02d}" for p in range(24)]
    stints = {"m03": range(2, 6), "m10": range(0, 9), "m17": range(5, 12)}
    games: dict[str, GameMeta] = {}
    lines: list[BoxscoreLine] = []
    for rnd in range(12):
        order = teams[:]
        rng.shuffle(order)
        for g in range(4):
            home, away = order[2 * g], order[2 * g + 1]
            home_score = rng.randint(60, 100)
            away_score = rng.choice([s for s in range(60, 101) if s != home_score])
            gid = f"R{rnd:02d}G{g}"
            games[gid] = GameMeta(
                game_id=gid,
                date=date(2013, 10, 5) + timedelta(days=7 * rnd),
                competition="copa" if rnd % 4 == 3 else "liga",
                home_team=home,
                away_team=away,
                home_score=home_score,
                away_score=away_score,
            )
            for team in (home, away):
                roster = [p for p in players if teams[int(p[1:]) % 8] == team]
                for i, player_id in enumerate(roster):
                    if player_id in stints and rnd not in stints[player_id]:
                        continue
                    dnp = rng.random() < 0.12
                    counts = {k: 0 if dnp else rng.randint(0, hi) for k, hi in _COUNTS.items()}
                    plus_minus = None if rng.random() < 0.15 else rng.randint(-20, 20)
                    lines.append(BoxscoreLine(
                        player_id=player_id,
                        player_name=f"Núñez {player_id}",
                        team=team,
                        game_id=gid,
                        minutes=0.0 if dnp else round(rng.uniform(4.0, 36.0), 2),
                        plus_minus=plus_minus,
                        starter=not dnp and i < 2,
                        **counts,
                    ))
    rng.shuffle(lines)
    return Dataset(games=games, lines=tuple(lines))


def _write_inputs(name: str, directory: Path) -> list[str]:
    """Write one golden season to disk; return the CLI input options."""
    if name == "synthetic_40x12":
        games_text, lines_text = serialize_csv(_synthetic_season(40, 12))
        (directory / "games.csv").write_text(games_text, encoding="utf-8")
        (directory / "lines.csv").write_text(lines_text, encoding="utf-8")
        return ["--games", str(directory / "games.csv"), "--lines", str(directory / "lines.csv")]
    (directory / "season.json").write_text(serialize_json(_messy_season()), encoding="utf-8")
    return ["--json", str(directory / "season.json")]


def _run_cli_process(argv: list[str]) -> int:
    """Exit code of ``python -m boxmetrics.cli`` run on ``argv`` in a new process."""
    paths = [str(Path(boxmetrics.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    cmd = [sys.executable, "-m", "boxmetrics.cli", *argv]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=120).returncode


def report_digests(directory: Path, run=main) -> dict[str, dict[str, dict[str, str]]]:
    """sha256 of every report-all output, by season, format and file name,
    each report-all run by ``run`` (the CLI's ``main`` by default)."""
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for name in ("synthetic_40x12", "messy_24x12"):
        season_dir = directory / name
        season_dir.mkdir()
        inputs = _write_inputs(name, season_dir)
        digests[name] = {}
        for fmt in FORMATS:
            out = season_dir / fmt
            assert run(["report-all", *inputs, "--format", fmt, "--out", str(out)]) == 0
            digests[name][fmt] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())
            }
    return digests


def test_messy_season_exercises_the_irregular_paths():
    season = _messy_season()
    assert any(line.dnp for line in season.lines)
    assert any(line.plus_minus is None for line in season.lines)
    assert any(season.game_count(p) < 10 for p in season.player_ids())


def _assert_golden(got: dict[str, dict[str, dict[str, str]]]) -> None:
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for season, by_format in expected.items():
        for fmt, files in by_format.items():
            assert len(files) == 20
            assert got[season][fmt] == files, f"{season} {fmt} reports changed"


def test_report_all_bytes_match_golden(tmp_path):
    _assert_golden(report_digests(tmp_path))


def test_report_all_bytes_do_not_depend_on_how_sum_adds_floats(tmp_path, monkeypatch):
    # From Python 3.12 on, the builtin sum() adds floats with compensation;
    # the reports must come out as they do on 3.10 and 3.11.
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    _assert_golden(report_digests(tmp_path))


def test_cli_process_writes_the_golden_reports(tmp_path):
    # The console script and python -m run the CLI through run(), which
    # turns the cyclic garbage collector off for the process.
    _assert_golden(report_digests(tmp_path, _run_cli_process))


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = report_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
