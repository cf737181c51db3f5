"""Rankings, deltas, regularity tables and deterministic rendering."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmetrics import (
    Dataset,
    EmptyAfterFilterError,
    GameMeta,
    PlayerSetMismatchError,
    WeightConfig,
    correlation_table,
    filter_min_games,
    plus_minus_overview,
    rank_delta,
    rank_players,
    rank_values,
    regularity_table,
    render,
    win_loss_table,
)
from boxmetrics import indices, splits
from boxmetrics.cli import main
from boxmetrics.ingest import serialize_csv
from boxmetrics.model import SPLIT_KINDS
from boxmetrics.report import RankedTable, format_display, split_table
from conftest import build_season, make_line, random_seasons, winloss_season
from oracles import formula_defensive, formula_offensive, naive_rank_delta
from test_acceptance import _synthetic_season


def test_rank_values_single_entry():
    table = rank_values("rend", [("p1", "Solo", -3.0)])
    assert table.rows[0][0] == 1
    assert table.rows[0][3] == -3.0


def test_rank_values_orders_descending():
    table = rank_values(
        "valoracion_per_minute",
        [("a", "Rodriguez", 0.63), ("b", "Pleiss", 0.74)],
    )
    assert [(r[0], r[2]) for r in table.rows] == [(1, "Pleiss"), (2, "Rodriguez")]


def test_rank_values_tie_break_alphabetical_and_flagged():
    table = rank_values(
        "points",
        [("z", "Zeta", 5.0), ("a", "Alfa", 5.0), ("m", "Mid", 7.0)],
    )
    assert [(r[0], r[2]) for r in table.rows] == [
        (1, "Mid"), (2, "Alfa"), (3, "Zeta"),
    ]
    assert table.rows[1][-1] == "tie"
    assert table.rows[2][-1] == "tie"
    assert table.rows[0][-1] == ""


def test_rank_values_empty():
    with pytest.raises(EmptyAfterFilterError):
        rank_values("points", [])


def test_rank_players_points_matches_hand_means(season, weights):
    table = rank_players(season, "points", weights, min_games=1)
    by_id = {row[1]: row for row in table.rows}
    # p4 scored 2*1=2 then 2*2+3+1=8 -> mean 5.0 over two games
    assert by_id["p4"][3] == pytest.approx(5.0)
    ranks = [row[1] for row in table.rows]
    assert len(ranks) == 4
    assert table.meta["weights_fingerprint"] == weights.fingerprint()
    assert table.meta["min_games"] == 1


def test_rank_players_min_games_filter(season, weights):
    table = rank_players(season, "points", weights, min_games=3)
    assert {row[1] for row in table.rows} == {"p1", "p2", "p3"}
    with pytest.raises(EmptyAfterFilterError):
        rank_players(season, "points", weights, min_games=50)


def test_rank_players_per_minute_uses_per_game_quotients(season, weights):
    table = rank_players(season, "points", weights, per_minute=True, min_games=1)
    by_id = {row[1]: row for row in table.rows}
    # p4: 2 points in 10 minutes, 8 points in 14 minutes
    assert by_id["p4"][3] == pytest.approx((2 / 10 + 8 / 14) / 2, rel=1e-12)
    assert table.metric_name == "points_per_minute"


def test_rank_delta_identity_and_antisymmetry(season, weights):
    a = rank_players(season, "valoracion", weights, min_games=1)
    b = rank_players(season, "rend", weights, min_games=1)
    zero = rank_delta(a, a)
    assert all(row[4] == 0 for row in zero.rows)
    forward = rank_delta(a, b)
    backward = rank_delta(b, a)
    assert [row[4] for row in forward.rows] == [-row[4] for row in backward.rows]
    assert [row[0] for row in forward.rows] == [row[0] for row in backward.rows]


def test_rank_delta_player_set_mismatch(season, weights):
    a = rank_players(season, "points", weights, min_games=1)
    b = rank_players(season, "points", weights, min_games=3)
    with pytest.raises(PlayerSetMismatchError):
        rank_delta(a, b)


@given(data=st.data())
def test_rank_delta_matches_a_scan_of_the_rows(data):
    ids = data.draw(st.lists(st.text("pqr", min_size=1, max_size=3), min_size=1, unique=True))

    def table(metric: str) -> RankedTable:
        order = data.draw(st.permutations(ids))
        # Later rows for some players, which their first row shadows.
        order += data.draw(st.lists(st.sampled_from(ids), max_size=3))
        ranks = data.draw(st.lists(st.integers(1, len(ids)), min_size=len(order),
                                   max_size=len(order)))
        rows = tuple((rank, pid, pid.upper(), None, "") for rank, pid in zip(ranks, order))
        columns = ("rank", "player_id", "player_name", "value", "notes")
        return RankedTable(title=metric, metric_name=metric, columns=columns, rows=rows, meta={})

    a, b = table("a"), table("b")
    assert rank_delta(a, b).rows == tuple(naive_rank_delta(a, b))


def test_rank_delta_direction():
    before = rank_values("m1", [("r", "Rod", 5.0), ("s", "Sat", 9.0), ("t", "Tom", 7.0)])
    after = rank_values("m2", [("r", "Rod", 9.0), ("s", "Sat", 5.0), ("t", "Tom", 7.0)])
    deltas = {row[0]: row[4] for row in rank_delta(before, after).rows}
    # Rod climbed 3 -> 1 (delta +2), Sat fell 1 -> 3 (delta -2)
    assert deltas == {"r": 2, "s": -2, "t": 0}


def _three_player_points_season() -> Dataset:
    # per-game points: X 10,12,14 / Y 11,14,14 / Z 5,5,5 (all free throws)
    games = {}
    lines = []
    for i, gid in enumerate(("G01", "G02", "G03")):
        games[gid] = GameMeta(
            game_id=gid, date=date(2014, 1, 5 + i), competition="liga",
            home_team="AAA", away_team="BBB", home_score=80 + i, away_score=75,
        )
    for player_id, name, team, points in (
        ("x", "Xavi", "AAA", (10, 12, 14)),
        ("y", "Yago", "AAA", (11, 14, 14)),
        ("z", "Zalo", "BBB", (5, 5, 5)),
    ):
        for gid, pts in zip(("G01", "G02", "G03"), points):
            lines.append(make_line(
                player_id=player_id, player_name=name, team=team, game_id=gid, t1c=pts,
            ))
    return Dataset(games=games, lines=tuple(lines))


def test_regularity_table_hand_example(weights):
    dataset = _three_player_points_season()
    table = regularity_table(dataset, "points", weights, min_games=2)
    rows = {row[1]: dict(zip(table.columns, row)) for row in table.rows}
    # X: mean 12, sd 2 -> regularity 6; Y: mean 13, sd sqrt(3) -> 13/sqrt(3)
    assert rows["x"]["value"] == pytest.approx(6.0, rel=1e-12)
    assert rows["y"]["value"] == pytest.approx(13.0 / (3 ** 0.5), rel=1e-12)
    assert rows["y"]["rank"] == 1 and rows["x"]["rank"] == 2
    # constant series ranks last with a marker, no number
    assert rows["z"]["value"] is None
    assert rows["z"]["rank"] == 3
    assert "constant" in rows["z"]["notes"].split(",")
    # z's mean (5) is far from the median mean (12): warned
    assert "incomparable-mean" in rows["z"]["notes"].split(",")
    assert "incomparable-mean" not in rows["x"]["notes"].split(",")
    aux_x = rows["x"]
    assert aux_x["mean"] == pytest.approx(12.0)
    assert aux_x["sd"] == pytest.approx(2.0)
    assert aux_x["mean_rank"] == 2
    assert table.display_decimals == 3


def test_regularity_table_requires_two_games(season, weights):
    table = regularity_table(season, "rend", weights, per_minute=True, min_games=2)
    ids = {row[1] for row in table.rows}
    assert "p4" in ids  # two games is enough
    single_game = Dataset(
        games={"G01": build_season().games["G01"]},
        lines=(make_line(),),
    )
    with pytest.raises(EmptyAfterFilterError):
        regularity_table(single_game, "points", weights)


def test_plus_minus_overview_shape(season, weights):
    table = plus_minus_overview(season, weights=weights)
    assert table.columns == ("player_id", "player_name", "total", "close", "win", "loss")
    rows = {row[0]: row for row in table.rows}
    assert rows["p1"][2] == pytest.approx(-1.0)
    assert rows["p1"][3] == pytest.approx(2.0)
    names = [row[1] for row in table.rows]
    assert names == sorted(names)


def test_win_loss_table_marks_significant_players():
    wins = [14, 13, 14, 15, 13, 14, 12, 14, 15, 13, 14, 13, 15, 14, 13]
    losses = [10, 9, 10, 11, 10, 9, 10, 10, 11, 9, 10, 10, 9, 10, 11]
    season = winloss_season(wins, losses)
    table = win_loss_table(season, "points_per_minute", min_games=1)
    row = table.rows[0]
    assert row[0] == "n1"
    assert row[7] == "*"
    flat = win_loss_table(winloss_season([10, 10, 10], [10, 10, 10]), "points_per_minute",
                          min_games=1)
    assert flat.rows[0][7] == ""


def test_win_loss_table_insufficient_side(season, weights):
    table = win_loss_table(season, "points_per_minute", weights, min_games=1)
    rows = {row[0]: row for row in table.rows}
    assert rows["p4"][7] == "insufficient"
    assert rows["p1"][7] in ("", "*")


def test_correlation_table_metric_against_itself(season, weights):
    table = correlation_table(season, [("points", "points")], weights, min_games=1)
    row = table.rows[0]
    assert row[2] == 1.0 and row[4] == 1.0 and row[6] == 1.0


def test_correlation_table_needs_four_players(season, weights):
    with pytest.raises(EmptyAfterFilterError):
        correlation_table(season, [("points", "rend")], weights, min_games=3)


# --- rendering ---------------------------------------------------------------

def test_format_display_half_away_from_zero():
    assert format_display(0.665, 2) == "0.67"
    assert format_display(-0.665, 2) == "-0.67"
    assert format_display(0.6323, 2) == "0.63"
    assert format_display(0.7841, 2) == "0.78"
    assert format_display(2.5, 0) == "3"
    assert format_display(None, 2) == ""
    assert format_display(7, 2) == "7"


def test_render_deterministic(season, weights):
    table = rank_players(season, "rend", weights, per_minute=True, min_games=1)
    for fmt in ("csv", "json", "text"):
        assert render(table, fmt) == render(table, fmt)
    again = rank_players(build_season(), "rend", weights, per_minute=True, min_games=1)
    assert render(again, "text") == render(table, "text")


def test_render_text_contains_meta_and_rounded_values(season, weights):
    table = rank_players(season, "points", weights, min_games=1)
    text = render(table, "text").decode("utf-8")
    assert f"weights_fingerprint={weights.fingerprint()}" in text
    assert "alpha=0.05" in text
    assert "rank" in text.splitlines()[2]


def test_render_csv_full_precision_round_trip(season, weights):
    table = rank_players(season, "rend", weights, per_minute=True, min_games=1)
    payload = render(table, "csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(payload)))
    header, data = rows[0], rows[1:]
    value_col = header.index("value")
    parsed = [float(row[value_col]) for row in data]
    assert parsed == [row[3] for row in table.rows]
    assert payload.count("\r\n") == len(table.rows) + 1


def test_render_json_full_precision_round_trip(season, weights):
    table = rank_players(season, "rend", weights, per_minute=True, min_games=1)
    doc = json.loads(render(table, "json").decode("utf-8"))
    assert doc["meta"]["weights_fingerprint"] == weights.fingerprint()
    values = [row["value"] for row in doc["rows"]]
    assert values == [row[3] for row in table.rows]


def test_render_rejects_unknown_format(season, weights):
    table = rank_players(season, "points", weights, min_games=1)
    with pytest.raises(ValueError):
        render(table, "xml")


@pytest.mark.parametrize("factor", (0.5, 2.0, 3.0, 10.0))
def test_rankings_invariant_under_weight_scaling(season, factor):
    base_weights = WeightConfig.defaults()
    scaled = base_weights.scaled(factor)
    for metric, per_minute in (("rend", False), ("rend", True), ("io", True)):
        base = rank_players(season, metric, base_weights, per_minute=per_minute, min_games=1)
        moved = rank_players(season, metric, scaled, per_minute=per_minute, min_games=1)
        assert [r[:2] for r in base.rows] == [r[:2] for r in moved.rows]


@given(exponent=st.integers(min_value=-4, max_value=4))
def test_rend_ranking_invariant_under_binary_weight_scaling(exponent):
    season = build_season()
    factor = 2.0 ** exponent
    base = rank_players(season, "rend", WeightConfig.defaults(), per_minute=True, min_games=1)
    moved = rank_players(
        season, "rend", WeightConfig.defaults().scaled(factor), per_minute=True, min_games=1
    )
    assert [r[1] for r in base.rows] == [r[1] for r in moved.rows]
    assert [r[3] * factor for r in base.rows] == [r[3] for r in moved.rows]


def test_index_table_consistent_with_formula_oracle(season, weights):
    # ranking values equal the oracle-formula means, not just internal ones
    table = rank_players(season, "id", weights, min_games=1)
    for row in table.rows:
        lines = season.lines_for(row[1])
        expected = sum(formula_defensive(ln) for ln in lines) / len(lines)
        assert row[3] == pytest.approx(expected, rel=1e-15)
    table = rank_players(season, "io", weights, min_games=1)
    for row in table.rows:
        lines = season.lines_for(row[1])
        expected = sum(formula_offensive(ln) for ln in lines) / len(lines)
        assert row[3] == pytest.approx(expected, rel=1e-15)


def _cut_to_one_game(season: Dataset, player_ids: list[str]) -> Dataset:
    """``season`` with each of ``player_ids`` keeping only their first line."""
    seen: set[str] = set()
    lines = []
    for line in season.lines:
        if line.player_id in player_ids:
            if line.player_id in seen:
                continue
            seen.add(line.player_id)
        lines.append(line)
    return Dataset(season.games, lines)


@pytest.mark.parametrize(
    "one_game_players, min_games",
    [([], "10"), (["p000", "p001"], "1")],
    ids=["full-stints", "one-game-players"],
)
def test_report_all_evaluates_each_line_once_per_metric(
    tmp_path, monkeypatch, one_game_players, min_games
):
    # Every table reads the same season columns, so across all 20 reports a
    # line is evaluated at most once per metric and each split side of a line
    # is decided at most once per (kind, close threshold). That holds when a
    # table's own games filter drops players the others keep, as
    # regularity's filter at 2 games does with one-game players.
    season = _cut_to_one_game(_synthetic_season(40, 12), one_game_players)
    games_text, lines_text = serialize_csv(season)
    (tmp_path / "games.csv").write_text(games_text, encoding="utf-8")
    (tmp_path / "lines.csv").write_text(lines_text, encoding="utf-8")
    evaluations: Counter = Counter()
    decisions: Counter = Counter()
    kernel, side = indices._kernel, splits._side

    def counting_kernel(metric, weights, columns):
        for player_id, game_id in zip(columns["player_id"], columns["game_id"]):
            evaluations[metric, player_id, game_id] += 1
        return kernel(metric, weights, columns)

    def counting_side(kind, team, starter, game, close_threshold=splits.DEFAULT_CLOSE_THRESHOLD):
        decisions[kind, close_threshold, team, bool(starter), game.game_id] += 1
        return side(kind, team, starter, game, close_threshold)

    monkeypatch.setattr(indices, "_kernel", counting_kernel)
    monkeypatch.setattr(splits, "_side", counting_side)
    inputs = ["--games", str(tmp_path / "games.csv"), "--lines", str(tmp_path / "lines.csv")]
    out = str(tmp_path / "out")
    assert main(["report-all", *inputs, "--min-games", min_games, "--out", out]) == 0
    assert len(list((tmp_path / "out").iterdir())) == 20
    assert {metric for metric, _, _ in evaluations} == set(indices.METRICS)
    repeated = sorted(key for key, count in evaluations.items() if count > 1)
    assert not repeated, f"{len(repeated)} (metric, line) pairs evaluated again, e.g. {repeated[0]}"
    assert sum(evaluations.values()) <= 6 * len(season.lines)
    # The side rule sees a line's team, starter flag and game, not its
    # player, so its decisions are counted against the lines that share them.
    alike = Counter((line.team, line.starter, line.game_id) for line in season.lines)
    repeated = sorted(key for key, count in decisions.items() if count > alike[key[2:]])
    assert decisions and not repeated, f"{len(repeated)} sides decided again"


def _rendered(build, season: Dataset):
    """``build(season)`` rendered in every format, or its error's class and text."""
    try:
        table = build(season)
    except ValueError as exc:
        return type(exc), str(exc)
    return [render(table, fmt) for fmt in ("csv", "json", "text")]


@settings(max_examples=60, deadline=None)
@given(
    data=random_seasons(max_players=6),
    min_games=st.integers(1, 5),
    metric=st.sampled_from(["points", "rend", "plus_minus", "id_per_minute", "valoracion"]),
    kind=st.sampled_from(SPLIT_KINDS),
)
def test_tables_read_the_same_on_a_season_and_on_its_filtered_copy(data, min_games, metric, kind):
    # A table takes its players from its own games filter, so filtering the
    # season first, which drops whole players, changes none of its bytes.
    season, threshold = data
    filtered = filter_min_games(season, min_games)
    weights = WeightConfig.defaults()
    options = dict(min_games=min_games, close_threshold=threshold)
    builds = [
        lambda ds: rank_players(ds, metric, weights, **options),
        lambda ds: regularity_table(ds, metric, weights, **options),
        lambda ds: plus_minus_overview(ds, weights=weights, **options),
        lambda ds: win_loss_table(ds, metric, weights, **options),
        lambda ds: correlation_table(ds, [(metric, "points")], weights, **options),
    ]
    # One player's split has no games filter: it is the same for a player
    # the filter keeps.
    builds += [
        lambda ds, player_id=player_id: split_table(
            ds, player_id, metric, kind, weights,
            alpha=0.05, close_threshold=threshold, competition=None,
        )
        for player_id in filtered.player_ids()
    ]
    for build in builds:
        assert _rendered(build, season) == _rendered(build, filtered)
