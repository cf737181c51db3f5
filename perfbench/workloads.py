"""Benchmark workloads: their inputs and the CLI commands a user runs on them.

Each workload has a full-size season and a quarter-size one (a quarter of
the players, the same rounds). The same command chain runs on both; the
time ratio between them is ``scale_ratio``, which is 4 for a program whose
cost grows linearly with the input.

Run as a script to write one workload's inputs (the benchmark does this in a
child process, so its own memory stays small and does not inflate the peak
RSS that ``os.wait4`` reports for the commands it starts later)::

    python3 perfbench/workloads.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

SPLIT_KINDS = ("win_loss", "close_game", "home_away", "starter_bench", "competition")


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int, int], gen.Season]
    players: int
    rounds: int
    fmt: str  # "csv" or "json"

    def season(self, seed: int, size: str) -> gen.Season:
        players = self.players if size == "full" else self.players // 4
        return self.make(seed, players, self.rounds)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("season_report", gen.synthetic_season, 221, 34, "csv"),
        Workload("wide_league", gen.synthetic_season, 884, 34, "csv"),
        Workload("messy_json", gen.messy_season, 221, 34, "json"),
    )
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` follows ``python -m boxmetrics.cli``."""

    name: str  # the per-command time it feeds, e.g. "rank" -> rank_s
    argv: tuple[str, ...]
    out_dir: str | None = None  # report-all target directory


def input_args(workload: Workload, data_dir: Path) -> tuple[str, ...]:
    if workload.fmt == "json":
        return ("--json", str(data_dir / "season.json"))
    return ("--games", str(data_dir / "games.csv"), "--lines", str(data_dir / "lines.csv"))


def sample_players(season: gen.Season) -> list[str]:
    """The per-player split sample: the first player who plays every round
    and, where the season has one, the first player with a short stint."""
    rounds = {}
    for line in season.lines:
        rounds[line["player_id"]] = rounds.get(line["player_id"], 0) + 1
    most = max(rounds.values())
    full = [p for p in sorted(rounds) if rounds[p] == most][:1]
    short = [p for p in sorted(rounds) if rounds[p] < 10][:1]
    return full + short


def commands(workload: Workload, data_dir: Path, out_dir: Path, meta: dict) -> list[Command]:
    """The command chain for one size of a workload, in the order it runs."""
    inputs = input_args(workload, data_dir)
    if workload.name == "season_report":
        return [
            Command("validate", ("validate", *inputs)),
            Command("report_all", ("report-all", "--format", "text", "--out",
                                   str(out_dir / "reports"), *inputs), str(out_dir / "reports")),
        ]
    if workload.name == "wide_league":
        return [
            Command("validate", ("validate", *inputs)),
            Command("rank", ("rank", "valoracion", "--per-minute", "--format", "csv", *inputs)),
            Command("regularity", ("regularity", "rend", "--per-minute", "--format", "csv",
                                   *inputs)),
            Command("correlate", ("correlate", "valoracion", "points", "--format", "csv",
                                  *inputs)),
        ]
    chain = [
        Command("validate", ("validate", *inputs)),
        Command("report_all", ("report-all", "--format", "json", "--out",
                               str(out_dir / "reports"), *inputs), str(out_dir / "reports")),
        Command("splits", ("splits", "all", "plus_minus", "--format", "json", *inputs)),
    ]
    for player in meta["sample_players"]:
        for kind in SPLIT_KINDS:
            chain.append(Command("splits", ("splits", player, "rend_per_minute", kind,
                                            "--format", "json", *inputs)))
    return chain


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    """Write full/ and quarter/ inputs plus meta.json describing them."""
    meta = {}
    for size in ("full", "quarter"):
        season = workload.season(seed, size)
        data_dir = out / size
        data_dir.mkdir(parents=True, exist_ok=True)
        if workload.fmt == "json":
            texts = {"season.json": gen.to_json(season)}
        else:
            games_text, lines_text = gen.to_csv(season)
            texts = {"games.csv": games_text, "lines.csv": lines_text}
        size_bytes = 0
        for name, text in texts.items():
            data = text.encode("utf-8")
            (data_dir / name).write_bytes(data)
            size_bytes += len(data)
        meta[size] = {
            "players": len({line["player_id"] for line in season.lines}),
            "rounds": workload.rounds,
            "games": len(season.games),
            "lines": len(season.lines),
            "input_bytes": size_bytes,
            "sample_players": sample_players(season),
        }
    (out / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    write_inputs(WORKLOADS[name], seed, out_dir)
