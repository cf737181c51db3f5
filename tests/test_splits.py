"""Game outcomes, close games, plus/minus summaries and split comparisons."""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxmetrics import (
    SPLIT_KINDS,
    STAT_KEYS,
    InsufficientSplitError,
    SplitLabel,
    TiedScoreError,
    UnknownPlayerError,
    UnknownTeamError,
    WeightConfig,
    game_outcome,
    is_close_game,
    plus_minus_summary,
    split_compare,
)
from boxmetrics.indices import (
    METRICS,
    EmptySeriesError,
    _season_column,
    combined_metric_name,
    player_series,
)
from boxmetrics.ingest import parse_csv, serialize_csv
from boxmetrics.splits import _sides
from conftest import make_game, make_line, random_seasons, winloss_season
from oracles import (
    naive_lines_for,
    naive_metric_value,
    naive_player_series,
    naive_plus_minus_summary,
    naive_split_compare,
    neumaier_sum,
)


def test_game_outcome_sides():
    game = make_game(home_score=80, away_score=75)
    assert game_outcome(make_line(team="MAD"), game) == "win"
    assert game_outcome(make_line(team="BCN"), game) == "loss"


def test_game_outcome_unknown_team():
    with pytest.raises(UnknownTeamError):
        game_outcome(make_line(team="XXX"), make_game())


def test_game_outcome_tie_is_defensive_error():
    tied = make_game(home_score=80, away_score=80)
    with pytest.raises(TiedScoreError):
        game_outcome(make_line(team="MAD"), tied)


def test_is_close_game_boundary():
    assert is_close_game(make_game(home_score=80, away_score=75))
    assert not is_close_game(make_game(home_score=81, away_score=75))
    assert is_close_game(make_game(home_score=75, away_score=80))  # symmetric
    assert is_close_game(make_game(home_score=81, away_score=75), threshold=6)


def test_split_label_validation():
    assert str(SplitLabel("win_loss", "win")) == "win"
    assert str(SplitLabel("competition", "liga")) == "competition=liga"
    with pytest.raises(ValueError):
        SplitLabel("win_loss", "close")
    with pytest.raises(ValueError):
        SplitLabel("banana", "win")
    with pytest.raises(ValueError):
        SplitLabel("competition", "")


def test_plus_minus_summary_single_game():
    from boxmetrics import Dataset

    dataset = Dataset(
        games={"G01": make_game()},
        lines=(make_line(plus_minus=7),),
    )
    summary = plus_minus_summary("p1", dataset)
    assert summary.overall.n == 1
    assert summary.overall.mean == 7.0
    by_label = {stat.label: stat for stat in summary.by_label}
    assert by_label["loss"].n == 0 and by_label["loss"].mean is None


def test_plus_minus_summary_hand_values(season):
    # p1: +7 -10 +4 +2 -6 -3; close games are G01, G04, G06
    summary = plus_minus_summary("p1", season)
    assert summary.overall.n == 6
    assert summary.overall.mean == pytest.approx(-1.0)
    by_label = {stat.label: stat for stat in summary.by_label}
    assert by_label["close"].mean == pytest.approx((7 + 2 - 3) / 3)
    assert by_label["win"].mean == pytest.approx((7 + 4 + 2) / 3)
    assert by_label["loss"].mean == pytest.approx((-10 - 6 - 3) / 3)


def test_plus_minus_summary_skips_missing_and_flags_dnp(season):
    # p3 reports no plus_minus for the G02 DNP and a 0 for the G06 DNP
    summary = plus_minus_summary("p3", season)
    assert summary.overall.n == 5
    assert summary.overall.mean == pytest.approx((3 - 2 + 5 - 4 + 0) / 5)
    assert summary.overall.dnp_included == 1


def test_plus_minus_summary_unknown_player(season):
    with pytest.raises(UnknownPlayerError):
        plus_minus_summary("nobody", season)


def test_split_compare_win_loss_means_match_series(season, weights):
    comparison = split_compare("p1", "points_per_minute", "win_loss", season, weights)[0]
    assert comparison.group_a_label == "loss"
    assert comparison.group_b_label == "win"
    # recompute both means straight from the per-game series
    series = player_series(season, "p1", "points", weights, per_minute_values=True)
    outcome_by_game = {
        gid: game_outcome(line, season.games[gid])
        for gid, line in zip(series.game_ids, season.lines_for("p1"))
    }
    losses = [v for v, gid in zip(series.values, series.game_ids)
              if outcome_by_game[gid] == "loss"]
    wins = [v for v, gid in zip(series.values, series.game_ids)
            if outcome_by_game[gid] == "win"]
    assert comparison.n_a == len(losses) == 3
    assert comparison.n_b == len(wins) == 3
    assert comparison.mean_a == pytest.approx(sum(losses) / len(losses), rel=1e-15)
    assert comparison.mean_b == pytest.approx(sum(wins) / len(wins), rel=1e-15)


def test_split_compare_partition_complete(season, weights):
    comparison = split_compare("p2", "rend_per_minute", "win_loss", season, weights)[0]
    assert comparison.n_a + comparison.n_b == len(season.lines_for("p2"))


def test_split_compare_constant_player_not_significant():
    season = winloss_season([10, 10, 10], [10, 10, 10])
    comparison = split_compare("n1", "points_per_minute", "win_loss", season)[0]
    assert comparison.mean_a == comparison.mean_b
    assert comparison.p_value == 1.0
    assert not comparison.significant


def test_split_compare_planted_effect_flags_significant():
    wins = [14, 13, 14, 15, 13, 14, 12, 14, 15, 13, 14, 13, 15, 14, 13]
    losses = [10, 9, 10, 11, 10, 9, 10, 10, 11, 9, 10, 10, 9, 10, 11]
    season = winloss_season(wins, losses)
    comparison = split_compare("n1", "points_per_minute", "win_loss", season)[0]
    assert comparison.significant
    assert comparison.mean_b == pytest.approx(sum(wins) / len(wins) / 20.0, rel=1e-12)
    assert comparison.mean_a < comparison.mean_b


def test_split_compare_insufficient_side(season, weights):
    # p4 played two games: one win, one loss
    with pytest.raises(InsufficientSplitError):
        split_compare("p4", "points_per_minute", "win_loss", season, weights)


def test_split_compare_single_game_side():
    season = winloss_season([10, 11, 12], [9])
    with pytest.raises(InsufficientSplitError):
        split_compare("n1", "points_per_minute", "win_loss", season)


def test_split_compare_close_game_threshold(season, weights):
    comparison = split_compare(
        "p1", "plus_minus", "close_game", season, weights, close_threshold=5
    )[0]
    assert comparison.group_a_label == "close"
    assert comparison.n_a == 3  # G01, G04, G06
    assert comparison.mean_a == pytest.approx(2.0)
    wider = split_compare(
        "p1", "plus_minus", "close_game", season, weights, close_threshold=6
    )[0]
    assert wider.n_a == 4  # G03 (margin 6) joins


def test_split_compare_home_away_and_starter_bench(season, weights):
    home = split_compare("p1", "valoracion_per_minute", "home_away", season, weights)[0]
    assert home.n_a == 3 and home.n_b == 3  # MAD hosts G01, G03, G05
    with pytest.raises(InsufficientSplitError):
        # p1 started every game: bench side empty
        split_compare("p1", "points_per_minute", "starter_bench", season, weights)


def test_split_compare_competition(season, weights):
    # only one copa game: the named competition split cannot run
    with pytest.raises(InsufficientSplitError):
        split_compare("p1", "points_per_minute", "competition", season, weights,
                      competition="copa")
    # all-competitions mode skips the short sides instead of failing
    assert split_compare("p1", "points_per_minute", "competition", season, weights) == []


def test_split_compare_unknown_player_and_metric(season, weights):
    with pytest.raises(UnknownPlayerError):
        split_compare("nobody", "points_per_minute", "win_loss", season, weights)
    with pytest.raises(ValueError):
        split_compare("p1", "points_per_minute", "weekday", season, weights)
    with pytest.raises(ValueError):
        split_compare("p1", "steals_per_minute", "win_loss", season, weights)


def test_split_compare_per_minute_excludes_dnp(season, weights):
    # p3 has two DNP games; they never enter per-minute series
    comparison = split_compare("p3", "points_per_minute", "win_loss", season, weights)[0]
    assert comparison.n_a + comparison.n_b == 4


def _exact(record) -> tuple:
    """Every field of a result record, floats by their exact bits."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in (getattr(record, name) for name in record._fields)
    )


def _comparisons(compare, *args, **kwargs):
    try:
        return [_exact(c) for c in compare(*args, **kwargs)]
    except InsufficientSplitError as exc:
        return ("insufficient", str(exc))


SPLIT_METRICS = (
    "points", "rend", "valoracion", "plus_minus",
    "id_per_minute", "io_per_minute", "rend_per_minute",
)


@settings(max_examples=80, deadline=None)
@given(data=random_seasons(), metric_name=st.sampled_from(SPLIT_METRICS))
def test_split_compare_matches_pair_list_code(data, metric_name):
    season, threshold = data
    weights = WeightConfig.defaults()
    for player_id in season.player_ids():
        for kind in SPLIT_KINDS:
            for competition in (None, "liga", "copa"):
                args = (player_id, metric_name, kind, season, weights)
                options = dict(close_threshold=threshold, competition=competition)
                assert _comparisons(split_compare, *args, **options) == _comparisons(
                    naive_split_compare, *args, **options
                ), (player_id, kind, competition)


ALL_LABELS = (
    SplitLabel("win_loss", "win"), SplitLabel("win_loss", "loss"),
    SplitLabel("close_game", "close"), SplitLabel("close_game", "normal"),
    SplitLabel("home_away", "home"), SplitLabel("home_away", "away"),
    SplitLabel("starter_bench", "starter"), SplitLabel("starter_bench", "bench"),
    SplitLabel("competition", "liga"), SplitLabel("competition", "copa"),
)


@settings(max_examples=80, deadline=None)
@given(data=random_seasons())
def test_plus_minus_summary_matches_own_filter_code(data):
    season, threshold = data
    for player_id in season.player_ids():
        for labels in (None, ALL_LABELS):
            summary = plus_minus_summary(player_id, season, labels, close_threshold=threshold)
            expected = naive_plus_minus_summary(
                player_id, season, labels, close_threshold=threshold
            )
            assert summary.player_id == expected.player_id
            assert [_exact(s) for s in (summary.overall, *summary.by_label)] == [
                _exact(s) for s in (expected.overall, *expected.by_label)
            ]


# --- the season columns against the line-by-line oracles ---------------------

# A second weight configuration: id differs from the defaults' on lines with
# defensive rebounds or fouls, io on lines with assists, turnovers or threes.
OTHER_WEIGHTS = WeightConfig.with_overrides(
    {"rd": 0.5, "a": 1.5, "bp": -0.25, "t3c": 2.75, "fpc": -1.5}
)

# Finite weights from the smallest subnormal to 1e15, some of them, like 0.1,
# with no exact binary form.
random_weights = st.lists(
    st.floats(-1e6, 1e6) | st.sampled_from((5e-324, 1e-300, 0.1, -0.1, 1 / 3, 1e15, -1e15)),
    min_size=len(STAT_KEYS), max_size=len(STAT_KEYS),
).map(lambda ws: WeightConfig(dict(zip(STAT_KEYS, ws))))

column_calls = st.fixed_dictionaries(
    {
        "what": st.sampled_from(("series", "split", "plus_minus", "season")),
        "player": st.integers(0, 3),
        "metric": st.sampled_from(METRICS),
        "per_minute_first": st.booleans(),
        "weights": st.sampled_from((WeightConfig.defaults(), OTHER_WEIGHTS)) | random_weights,
        "kind": st.sampled_from(SPLIT_KINDS),
        "competition": st.sampled_from((None, "liga", "copa")),
        "threshold_step": st.integers(0, 1),
        "all_labels": st.booleans(),
    }
)


def _series_bits(dataset, player_id, metric, weights, per_minute_values):
    try:
        series = player_series(
            dataset, player_id, metric, weights, per_minute_values=per_minute_values
        )
    except EmptySeriesError:
        return "empty"
    return [value.hex() for value in series.values], list(series.game_ids)


def _naive_series_bits(dataset, player_id, metric, weights, per_minute_values):
    values, game_ids = naive_player_series(dataset, player_id, metric, weights, per_minute_values)
    if not values:
        return "empty"
    return [value.hex() for value in values], game_ids


@settings(max_examples=80, deadline=None)
@given(
    data=random_seasons(),
    calls=st.lists(column_calls, min_size=1, max_size=25),
    round_trip=st.booleans(),
    neumaier=st.booleans(),
)
def test_columns_match_line_by_line_oracles_in_any_call_order(data, calls, round_trip, neumaier):
    # One shared season answers every call, in the drawn order, so a column
    # built for one call is read by the later ones: per-game before
    # per-minute and the reverse, two weight configurations, two close
    # thresholds, and one player's lines before and after a table has built
    # the season columns. The oracles read the season built in memory; the
    # program reads it as built or as parsed back from its CSV text.
    season, threshold = data
    dataset = parse_csv(*serialize_csv(season)) if round_trip else season
    player_ids = season.player_ids()
    assume(player_ids)
    # From Python 3.12 on, the builtin sum() adds floats with compensation.
    with patch("builtins.sum", neumaier_sum if neumaier else sum):
        for call in calls:
            player_id = player_ids[call["player"] % len(player_ids)]
            metric, weights = call["metric"], call["weights"]
            close_threshold = threshold + call["threshold_step"]
            forms = (False,) if metric == "plus_minus" else (False, True)
            if call["per_minute_first"]:
                forms = forms[::-1]
            if call["what"] == "series":
                for per_minute_values in forms:
                    args = (player_id, metric, weights, per_minute_values)
                    assert _series_bits(dataset, *args) == _naive_series_bits(season, *args), call
            elif call["what"] == "split":
                competition = call["competition"] if call["kind"] == "competition" else None
                for per_minute_values in forms:
                    name = combined_metric_name(metric, per_minute_values)
                    options = dict(close_threshold=close_threshold, competition=competition)
                    kind = call["kind"]
                    assert _comparisons(
                        split_compare, player_id, name, kind, dataset, weights, **options
                    ) == _comparisons(
                        naive_split_compare, player_id, name, kind, season, weights, **options
                    ), call
            elif call["what"] == "plus_minus":
                labels = ALL_LABELS if call["all_labels"] else None
                summary = plus_minus_summary(
                    player_id, dataset, labels, close_threshold=close_threshold
                )
                expected = naive_plus_minus_summary(
                    player_id, season, labels, close_threshold=close_threshold
                )
                assert [_exact(s) for s in (summary.overall, *summary.by_label)] == [
                    _exact(s) for s in (expected.overall, *expected.by_label)
                ], call
            else:
                # What a table does first: the season columns the later calls read.
                column = _season_column(dataset, metric, weights)
                _sides(dataset, call["kind"], close_threshold)
                expected = [
                    naive_metric_value(line, metric, weights)
                    for pid in player_ids for line in naive_lines_for(season, pid)
                ]
                assert [None if v is None else v.hex() for v in column] == [
                    None if v is None else v.hex() for v in expected
                ], call
