"""Shared fixtures: a small hand-built season and line/game factories."""

from __future__ import annotations

import os
from datetime import date, timedelta

import pytest
from hypothesis import strategies as st

from boxmetrics import BoxscoreLine, Dataset, GameMeta, WeightConfig


def make_line(**overrides) -> BoxscoreLine:
    values = dict(
        player_id="p1",
        player_name="Arco",
        team="MAD",
        game_id="G01",
        minutes=20.0,
        plus_minus=0,
        starter=False,
    )
    values.update(overrides)
    return BoxscoreLine(**values)


def make_game(**overrides) -> GameMeta:
    values = dict(
        game_id="G01",
        date=date(2014, 1, 5),
        competition="liga",
        home_team="MAD",
        away_team="BCN",
        home_score=80,
        away_score=75,
    )
    values.update(overrides)
    return GameMeta(**values)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps each child process it starts, a worker that reads a
    lines file included."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def weights() -> WeightConfig:
    return WeightConfig.defaults()


# Six-game, two-team season. MAD wins G01/G03/G04 and loses G02/G05/G06;
# close games (margin <= 5) are G01, G04 and G06.
SEASON_GAMES = (
    dict(game_id="G01", date=date(2014, 1, 5), competition="liga",
         home_team="MAD", away_team="BCN", home_score=80, away_score=75),
    dict(game_id="G02", date=date(2014, 1, 12), competition="liga",
         home_team="BCN", away_team="MAD", home_score=90, away_score=70),
    dict(game_id="G03", date=date(2014, 1, 19), competition="liga",
         home_team="MAD", away_team="BCN", home_score=81, away_score=75),
    dict(game_id="G04", date=date(2014, 1, 26), competition="copa",
         home_team="BCN", away_team="MAD", home_score=77, away_score=80),
    dict(game_id="G05", date=date(2014, 2, 2), competition="liga",
         home_team="MAD", away_team="BCN", home_score=68, away_score=75),
    dict(game_id="G06", date=date(2014, 2, 9), competition="liga",
         home_team="BCN", away_team="MAD", home_score=85, away_score=80),
)

# player_id, name, team, game, minutes, t2c, t2f, t3c, t3f, t1c, t1f,
# rd, ro, a, br, bp, tf, tr, fpc, fpr, plus_minus, starter
SEASON_LINES = (
    ("p1", "Arco", "MAD", "G01", 25.0, 4, 2, 1, 1, 3, 1, 5, 2, 4, 2, 1, 1, 0, 2, 3, 7, True),
    ("p1", "Arco", "MAD", "G02", 30.0, 2, 5, 0, 2, 2, 2, 3, 1, 2, 1, 3, 0, 1, 3, 1, -10, True),
    ("p1", "Arco", "MAD", "G03", 20.0, 5, 1, 2, 0, 1, 0, 4, 2, 5, 1, 0, 2, 0, 1, 2, 4, True),
    ("p1", "Arco", "MAD", "G04", 25.0, 3, 3, 1, 2, 4, 1, 6, 1, 3, 2, 2, 1, 1, 2, 4, 2, True),
    ("p1", "Arco", "MAD", "G05", 28.0, 1, 4, 0, 1, 2, 3, 2, 0, 1, 0, 4, 0, 0, 4, 1, -6, True),
    ("p1", "Arco", "MAD", "G06", 22.0, 3, 2, 1, 1, 0, 1, 3, 1, 2, 1, 1, 1, 0, 2, 2, -3, True),
    ("p2", "Bosch", "BCN", "G01", 28.0, 5, 3, 0, 1, 2, 0, 6, 3, 1, 1, 2, 2, 1, 3, 2, -4, True),
    ("p2", "Bosch", "BCN", "G02", 26.0, 6, 2, 2, 1, 3, 1, 7, 2, 3, 2, 1, 1, 0, 2, 3, 12, True),
    ("p2", "Bosch", "BCN", "G03", 24.0, 3, 4, 1, 2, 1, 1, 4, 1, 2, 0, 3, 0, 2, 4, 1, -5, True),
    ("p2", "Bosch", "BCN", "G04", 30.0, 4, 2, 1, 1, 2, 2, 5, 2, 2, 1, 2, 1, 0, 3, 2, -3, True),
    ("p2", "Bosch", "BCN", "G05", 27.0, 5, 1, 1, 0, 4, 0, 6, 1, 3, 2, 1, 2, 1, 2, 4, 8, True),
    ("p2", "Bosch", "BCN", "G06", 25.0, 4, 3, 0, 2, 1, 1, 5, 2, 1, 1, 2, 0, 0, 3, 1, 5, True),
    ("p3", "Cano", "MAD", "G01", 18.0, 2, 1, 0, 0, 1, 1, 2, 1, 1, 0, 1, 0, 0, 1, 1, 3, False),
    ("p3", "Cano", "MAD", "G02", 0.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, None, False),
    ("p3", "Cano", "MAD", "G03", 0.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, False),
    ("p3", "Cano", "MAD", "G04", 12.0, 2, 0, 0, 1, 2, 0, 1, 1, 0, 0, 1, 0, 1, 1, 2, 5, False),
    ("p3", "Cano", "MAD", "G05", 20.0, 1, 3, 0, 0, 1, 2, 2, 1, 1, 1, 2, 0, 0, 3, 1, -4, False),
    ("p3", "Cano", "MAD", "G06", 15.0, 1, 2, 1, 0, 0, 0, 3, 0, 2, 1, 0, 1, 0, 2, 0, -2, False),
    ("p4", "Dedo", "BCN", "G01", 10.0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, -2, False),
    ("p4", "Dedo", "BCN", "G02", 14.0, 2, 0, 1, 0, 1, 0, 2, 1, 0, 1, 1, 0, 0, 0, 1, 6, False),
)

_LINE_FIELDS = (
    "player_id", "player_name", "team", "game_id", "minutes",
    "t2c", "t2f", "t3c", "t3f", "t1c", "t1f",
    "rd", "ro", "a", "br", "bp", "tf", "tr", "fpc", "fpr",
    "plus_minus", "starter",
)


def build_season() -> Dataset:
    games = {g["game_id"]: GameMeta(**g) for g in SEASON_GAMES}
    lines = tuple(BoxscoreLine(**dict(zip(_LINE_FIELDS, row))) for row in SEASON_LINES)
    return Dataset(games=games, lines=lines)


@pytest.fixture
def season() -> Dataset:
    return build_season()


# Twenty varied lines for checking the index formulas term by term:
# t2c, t2f, t3c, t3f, t1c, t1f, rd, ro, a, br, bp, tf, tr, fpc, fpr
INDEX_FIXTURE_COUNTS = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (4, 2, 1, 1, 3, 1, 5, 2, 4, 2, 1, 1, 0, 2, 3),
    (9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7),
    (6, 4, 2, 3, 5, 2, 8, 3, 7, 3, 4, 2, 1, 4, 5),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (3, 6, 0, 2, 7, 3, 2, 5, 1, 0, 6, 0, 2, 5, 2),
)

_COUNT_FIELDS = ("t2c", "t2f", "t3c", "t3f", "t1c", "t1f",
                 "rd", "ro", "a", "br", "bp", "tf", "tr", "fpc", "fpr")


def index_fixture_lines() -> list[BoxscoreLine]:
    return [
        make_line(player_id=f"x{i:02d}", game_id="G01", **dict(zip(_COUNT_FIELDS, counts)))
        for i, counts in enumerate(INDEX_FIXTURE_COUNTS)
    ]


def winloss_season(win_points: list[int], loss_points: list[int], minutes: float = 20.0) -> Dataset:
    """One player on AAA; AAA wins len(win_points) games and loses the rest.

    The player scores only free throws, so points == t1c and points per
    minute == t1c / minutes.
    """
    games = {}
    lines = []
    day = 0
    for i, pts in enumerate(win_points):
        gid = f"W{i:02d}"
        day += 1
        games[gid] = GameMeta(
            game_id=gid, date=date(2014, 1, 1 + day % 27), competition="liga",
            home_team="AAA", away_team="BBB", home_score=80, away_score=70,
        )
        lines.append(make_line(
            player_id="n1", player_name="Noci", team="AAA", game_id=gid,
            minutes=minutes, t1c=pts, starter=True,
        ))
    for i, pts in enumerate(loss_points):
        gid = f"L{i:02d}"
        day += 1
        games[gid] = GameMeta(
            game_id=gid, date=date(2014, 2, 1 + day % 27), competition="liga",
            home_team="AAA", away_team="BBB", home_score=70, away_score=80,
        )
        lines.append(make_line(
            player_id="n1", player_name="Noci", team="AAA", game_id=gid,
            minutes=minutes, t1c=pts, starter=True,
        ))
    return Dataset(games=games, lines=tuple(lines))


@st.composite
def random_seasons(draw, max_games: int = 8, max_players: int = 4) -> tuple[Dataset, int]:
    """(season, close threshold): two teams, two competitions, final margins
    at, just above and well above the threshold (never tied), starters and
    bench players, DNP lines (with and without a plus_minus), missing
    plus_minus, minutes given as floats or ints, and now and then a count too
    large for one byte."""
    threshold = draw(st.integers(0, 6))
    margins = sorted({threshold, threshold + 1, threshold + 9} - {0})
    games = {}
    for i in range(draw(st.integers(1, max_games))):
        margin = draw(st.sampled_from(margins))
        base = draw(st.integers(40, 90))
        home, away = draw(st.sampled_from([("MAD", "BCN"), ("BCN", "MAD")]))
        home_wins = draw(st.booleans())
        games[f"G{i}"] = GameMeta(
            game_id=f"G{i}",
            date=date(2014, 1, 1) + timedelta(days=draw(st.integers(0, 40))),
            competition=draw(st.sampled_from(["liga", "copa"])),
            home_team=home,
            away_team=away,
            home_score=base + margin if home_wins else base,
            away_score=base if home_wins else base + margin,
        )
    counts = st.integers(0, 9)
    if draw(st.booleans()):
        counts |= st.integers(256, 10**30)
    lines = []
    for p in range(draw(st.integers(1, max_players))):
        team = draw(st.sampled_from(["MAD", "BCN"]))
        for game_id in games:
            if not draw(st.booleans()):
                continue
            lines.append(BoxscoreLine(
                f"p{p}", f"Player {p}", team, game_id,
                draw(st.one_of(
                    st.just(0.0), st.floats(0.5, 40.0), st.integers(1, 40)
                )),
                *draw(st.lists(counts, min_size=15, max_size=15)),
                draw(st.one_of(st.none(), st.integers(-20, 20))),
                draw(st.booleans()),
            ))
    return Dataset(games=games, lines=tuple(lines)), threshold
