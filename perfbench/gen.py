"""Seeded input generators for the benchmark workloads.

The generators write only the files a user would hand to the CLI; the
program never sees the seed. ``synthetic_season(42, n, r)`` repeats, call
for call, the random draws of ``tests/test_acceptance.py::_synthetic_season``
so the uniform seasons can be checked byte for byte against that helper
(see ``selfcheck.py``). ``messy_season`` adds what the uniform season never
has: DNP lines, unreported plus/minus, short stints and a second competition.

A season is kept as plain dicts keyed by the CSV column names, so the output
checks in ``checks.py`` recompute expected values without importing the
program under test.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from datetime import date, timedelta

GAMES_HEADER = (
    "game_id", "date", "competition", "home_team", "away_team", "home_score", "away_score",
)
LINES_HEADER = (
    "game_id", "player_id", "player_name", "team", "minutes",
    "t2c", "t2f", "t3c", "t3f", "t1c", "t1f", "rd", "ro", "a", "br", "bp",
    "tf", "tr", "fpc", "fpr", "plus_minus", "starter",
)
COUNT_COLUMNS = LINES_HEADER[5:20]
TEAMS = tuple(f"T{i:02d}" for i in range(18))
SEASON_START = date(2013, 10, 5)

# Non-ASCII and punctuated surnames, so JSON rendering of names is exercised.
SURNAMES = (
    "Pérez", "Núñez", "Ibáñez", "Sánchez", "Köhler", "O'Neal", "Dončić",
    "Abrines", "Llull", "Çelik", "Oriola", "Sastre", "Jiménez", "Tavares",
)


@dataclass(frozen=True)
class Season:
    games: list[dict]
    lines: list[dict]


def _fixture(rng: random.Random, rnd: int, g: int, home: str, away: str, competition: str) -> dict:
    home_score = rng.randint(60, 100)
    away_score = rng.randint(60, 100)
    while away_score == home_score:
        away_score = rng.randint(60, 100)
    return {
        "game_id": f"R{rnd:02d}G{g}",
        "date": (SEASON_START + timedelta(days=7 * rnd)).isoformat(),
        "competition": competition,
        "home_team": home,
        "away_team": away,
        "home_score": home_score,
        "away_score": away_score,
    }


def _stat_line(rng: random.Random, game_id: str, player_id: str, name: str, team: str,
               starter: bool) -> dict:
    # Draw order matches the keyword order of the acceptance-test helper.
    line = {"game_id": game_id, "player_id": player_id, "player_name": name, "team": team,
            "minutes": round(rng.uniform(4.0, 36.0), 2)}
    for column, high in (("t2c", 9), ("t2f", 8), ("t3c", 5), ("t3f", 6), ("t1c", 8),
                         ("t1f", 4), ("rd", 9), ("ro", 5), ("a", 9), ("br", 4), ("bp", 5),
                         ("tf", 3), ("tr", 2), ("fpc", 5), ("fpr", 6)):
        line[column] = rng.randint(0, high)
    line["plus_minus"] = rng.randint(-20, 20)
    line["starter"] = starter
    return line


def synthetic_season(seed: int, n_players: int, rounds: int) -> Season:
    """Uniform league: 18 teams, every player plays every round, one competition."""
    rng = random.Random(seed)
    rosters: dict[str, list[str]] = {team: [] for team in TEAMS}
    for p in range(n_players):
        rosters[TEAMS[p % len(TEAMS)]].append(f"p{p:03d}")
    games: list[dict] = []
    lines: list[dict] = []
    for rnd in range(rounds):
        order = list(TEAMS)
        rng.shuffle(order)
        for g in range(len(TEAMS) // 2):
            game = _fixture(rng, rnd, g, order[2 * g], order[2 * g + 1], "liga")
            games.append(game)
            for team in (game["home_team"], game["away_team"]):
                for i, player_id in enumerate(rosters[team]):
                    lines.append(_stat_line(rng, game["game_id"], player_id,
                                            player_id.upper(), team, i < 5))
    return Season(games, lines)


def messy_season(seed: int, n_players: int, rounds: int) -> Season:
    """League with the irregular cases real boxscores have.

    About 10% of lines are DNP (zero minutes, zero counts), about 15% have no
    reported plus/minus, about 20% of players appear in only 3 to 9
    consecutive rounds, and every fifth round is a cup ("copa") round.
    """
    rng = random.Random(seed)
    rosters: dict[str, list[str]] = {team: [] for team in TEAMS}
    names: dict[str, str] = {}
    for p in range(n_players):
        player_id = f"p{p:03d}"
        rosters[TEAMS[p % len(TEAMS)]].append(player_id)
        names[player_id] = f"{SURNAMES[p % len(SURNAMES)]} {p:03d}"
    stints: dict[str, range] = {}
    for p in sorted(rng.sample(range(n_players), n_players // 5)):
        width = rng.randint(3, 9)
        first = rng.randint(0, rounds - width)
        stints[f"p{p:03d}"] = range(first, first + width)
    games: list[dict] = []
    lines: list[dict] = []
    for rnd in range(rounds):
        competition = "copa" if rnd % 5 == 4 else "liga"
        order = list(TEAMS)
        rng.shuffle(order)
        for g in range(len(TEAMS) // 2):
            game = _fixture(rng, rnd, g, order[2 * g], order[2 * g + 1], competition)
            games.append(game)
            for team in (game["home_team"], game["away_team"]):
                for i, player_id in enumerate(rosters[team]):
                    if player_id in stints and rnd not in stints[player_id]:
                        continue
                    line = _stat_line(rng, game["game_id"], player_id, names[player_id],
                                      team, i < 5)
                    if rng.random() < 0.10:
                        line.update({c: 0 for c in COUNT_COLUMNS})
                        line["minutes"] = 0.0
                        line["starter"] = False
                        line["plus_minus"] = 0
                    if rng.random() < 0.15:
                        line["plus_minus"] = None
                    lines.append(line)
    return Season(games, lines)


def derived_points(line: dict) -> int:
    return 2 * line["t2c"] + 3 * line["t3c"] + line["t1c"]


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(season: Season) -> tuple[str, str]:
    """(games, lines) CSV text in the layout ``serialize_csv`` writes."""
    texts = []
    for header, rows in ((GAMES_HEADER, season.games), (LINES_HEADER, season.lines)):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in header])
        texts.append(buf.getvalue())
    return texts[0], texts[1]


def to_json(season: Season) -> str:
    """One JSON document; every line carries the optional ``points`` field."""
    lines = [{**{c: line[c] for c in LINES_HEADER}, "points": derived_points(line)}
             for line in season.lines]
    return json.dumps({"games": season.games, "lines": lines}, ensure_ascii=False) + "\n"
