"""Index formulas, the valoracion baseline and per-minute normalization."""

from __future__ import annotations

from datetime import date
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmetrics import (
    DEFENSIVE_KEYS,
    METRICS,
    OFFENSIVE_KEYS,
    STAT_KEYS,
    EmptySeriesError,
    UnknownPlayerError,
    WeightConfig,
    ZeroMinutesError,
    defensive_index,
    metric_function,
    metric_value,
    offensive_index,
    per_minute,
    player_series,
    rendimiento,
    series_values,
    valoracion_acb,
)
from boxmetrics.indices import parse_metric_name, player_mean
from conftest import index_fixture_lines, make_line
from oracles import (
    formula_defensive,
    formula_offensive,
    formula_valoracion,
    naive_metric_value,
    naive_player_series,
    naive_side_values,
    neumaier_sum,
)

counts = st.integers(min_value=0, max_value=40)


def test_defensive_index_examples(weights):
    assert defensive_index(make_line(), weights) == 0.0
    assert defensive_index(make_line(rd=5, tf=1, fpc=2, br=1), weights) == 6.0
    assert defensive_index(make_line(fpc=4), weights) == -4.0


def test_offensive_index_examples(weights):
    assert offensive_index(make_line(), weights) == 0.0
    line = make_line(t2c=4, t1c=3, t3c=2, t2f=3, t1f=1, t3f=2, ro=2, a=3, fpr=2, bp=2)
    assert offensive_index(line, weights) == 12.0
    assert offensive_index(make_line(a=5), weights) == 10.0


def test_rendimiento_examples(weights):
    assert rendimiento(make_line(), weights).rend_raw == 0.0
    combined = make_line(
        rd=5, tf=1, fpc=2, br=1,
        t2c=4, t1c=3, t3c=2, t2f=3, t1f=1, t3f=2, ro=2, a=3, fpr=2, bp=2,
    )
    value = rendimiento(combined, weights)
    assert value.id_raw == 6.0
    assert value.io_raw == 12.0
    assert value.rend_raw == 18.0
    assert rendimiento(make_line(bp=1), weights).rend_raw == -2.0


def test_valoracion_examples():
    assert valoracion_acb(make_line()) == 0.0
    assert valoracion_acb(make_line(t2c=5, rd=3, a=2, t2f=4, bp=1)) == 10.0
    assert valoracion_acb(make_line(tr=3)) == -3.0


def test_indices_match_literal_formulas_on_fixture(weights):
    lines = index_fixture_lines()
    assert len(lines) == 20
    for line in lines:
        value = rendimiento(line, weights)
        assert value.id_raw == formula_defensive(line)
        assert value.io_raw == formula_offensive(line)
        assert value.rend_raw == formula_defensive(line) + formula_offensive(line)
        assert value.rend_raw == value.id_raw + value.io_raw
        assert value.valoracion_raw == formula_valoracion(line)


@given(data=st.lists(counts, min_size=14, max_size=14), k=st.integers(0, 8))
def test_index_linearity_under_count_scaling(data, k):
    weights = WeightConfig.defaults()
    base = make_line(**dict(zip(STAT_KEYS, data)))
    scaled = make_line(**{key: k * value for key, value in zip(STAT_KEYS, data)})
    assert defensive_index(scaled, weights) == k * defensive_index(base, weights)
    assert offensive_index(scaled, weights) == k * offensive_index(base, weights)
    assert valoracion_acb(scaled) == k * valoracion_acb(base)


@given(data=st.lists(counts, min_size=14, max_size=14))
def test_zero_weights_zero_indices(data):
    zero = WeightConfig({key: 0.0 for key in STAT_KEYS})
    line = make_line(**dict(zip(STAT_KEYS, data)))
    assert defensive_index(line, zero) == 0.0
    assert offensive_index(line, zero) == 0.0
    assert rendimiento(line, zero).rend_raw == 0.0


@given(data=st.lists(counts, min_size=14, max_size=14))
def test_assist_weight_bump_moves_io_by_assist_count(data):
    base_config = WeightConfig.defaults()
    bumped = WeightConfig.with_overrides({"a": base_config["a"] + 1.0})
    line = make_line(**dict(zip(STAT_KEYS, data)))
    assert offensive_index(line, bumped) - offensive_index(line, base_config) == line.a


def test_per_minute_reference_quotients():
    assert per_minute(14.55, 23.01) == pytest.approx(0.6323, abs=5e-5)
    assert per_minute(17.47, 22.28) == pytest.approx(0.7841, abs=5e-5)
    assert per_minute(0.0, 31.7) == 0.0


def test_per_minute_rejects_zero_minutes():
    with pytest.raises(ZeroMinutesError):
        per_minute(10.0, 0.0)


@given(
    value=st.floats(min_value=0.5, max_value=500.0),
    low=st.floats(min_value=1.0, max_value=40.0),
    gap=st.floats(min_value=0.05, max_value=8.0),
)
def test_per_minute_strictly_decreasing_in_minutes(value, low, gap):
    assert per_minute(value, low) > per_minute(value, low + gap)


def test_parse_metric_name():
    assert parse_metric_name("rend") == ("rend", False)
    assert parse_metric_name("rend_per_minute") == ("rend", True)
    assert parse_metric_name("plus_minus") == ("plus_minus", False)
    with pytest.raises(ValueError):
        parse_metric_name("plus_minus_per_minute")
    with pytest.raises(ValueError):
        parse_metric_name("steals")


def test_metric_value_plus_minus_missing(weights):
    assert metric_value(make_line(plus_minus=None), "plus_minus", weights) is None
    assert metric_value(make_line(plus_minus=-3), "plus_minus", weights) == -3.0


def test_player_series_chronological_and_excludes_dnp(season, weights):
    raw = player_series(season, "p3", "points", weights)
    assert raw.game_ids == ("G01", "G02", "G03", "G04", "G05", "G06")
    per_min = player_series(season, "p3", "points", weights, per_minute_values=True)
    assert per_min.game_ids == ("G01", "G04", "G05", "G06")
    assert per_min.metric_name == "points_per_minute"


def test_player_series_plus_minus_skips_missing(season, weights):
    series = player_series(season, "p3", "plus_minus", weights)
    assert series.game_ids == ("G01", "G03", "G04", "G05", "G06")


def test_player_series_unknown_player(season, weights):
    with pytest.raises(UnknownPlayerError):
        player_series(season, "nobody", "points", weights)


def test_player_series_rejects_plus_minus_per_minute(season, weights):
    with pytest.raises(ValueError):
        player_series(season, "p1", "plus_minus", weights, per_minute_values=True)


def test_player_series_empty_after_exclusions(weights):
    from boxmetrics import Dataset
    from conftest import make_game

    games = {"G01": make_game()}
    lines = (make_line(minutes=0.0),)
    dataset = Dataset(games=games, lines=lines)
    with pytest.raises(EmptySeriesError):
        player_series(dataset, "p1", "points", weights, per_minute_values=True)


def test_all_round_player_outranks_pure_scorer_at_equal_valoracion(weights):
    # Same valoracion (20), very different profiles: one only scores, the
    # other fills the line with rebounds, assists and steals.
    scorer = make_line(player_id="s", t2c=10)
    all_round = make_line(player_id="r", t2c=3, rd=4, ro=2, a=4, br=2, tf=1, fpr=1)
    assert valoracion_acb(scorer) == valoracion_acb(all_round) == 20.0
    assert rendimiento(all_round, weights).rend_raw > rendimiento(scorer, weights).rend_raw


def test_player_mean_is_mean_of_per_game_values(season, weights):
    series = player_series(season, "p1", "points", weights)
    expected = sum(series.values) / len(series.values)
    assert player_mean(season, "p1", "points", weights) == expected


# --- one series path against the per-line oracles ---------------------------

coefficients = st.one_of(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.sampled_from([-2.5, -1.0, -0.75, 0.0, 0.1, 0.5, 1.0, 1.5, 3.0]),
)
line_values = st.fixed_dictionaries(
    {
        **{key: counts for key in (*STAT_KEYS, "tr")},
        "minutes": st.one_of(
            st.just(0.0), st.floats(min_value=0.1, max_value=48.0), st.integers(1, 48)
        ),
        "plus_minus": st.one_of(st.none(), st.integers(-40, 40)),
        "starter": st.booleans(),
    }
)


def _bits(values):
    """Values as exact hex strings, so -0.0 and 0.0 or a last-bit change differ."""
    return [v if v is None else float.hex(v) for v in values]


weight_configs = st.lists(coefficients, min_size=14, max_size=14).map(
    lambda ws: WeightConfig(dict(zip(STAT_KEYS, ws)))
)


@given(weights=weight_configs, row=line_values)
def test_index_kernels_do_not_depend_on_how_sum_adds_floats(weights, row):
    # From Python 3.12 on, the builtin sum() adds floats with compensation.
    line = make_line(**row)
    with patch("builtins.sum", neumaier_sum):
        values = [metric_value(line, metric, weights) for metric in ("id", "io", "rend")]
    assert _bits(values) == _bits(
        [naive_metric_value(line, metric, weights) for metric in ("id", "io", "rend")]
    )


@settings(max_examples=60, deadline=None)
@given(
    weights=weight_configs,
    rows=st.lists(line_values, min_size=1, max_size=12),
    players=st.integers(1, 3),
)
def test_series_path_matches_per_line_oracles(weights, rows, players):
    from boxmetrics import Dataset
    from conftest import make_game

    games = {f"G{i:02d}": make_game(game_id=f"G{i:02d}", date=date(2014, 1, 1 + i))
             for i in range(len(rows))}
    lines = tuple(
        make_line(player_id=f"p{i % players}", game_id=f"G{i:02d}", **row)
        for i, row in enumerate(rows)
    )
    dataset = Dataset(games=games, lines=lines)
    for metric in METRICS:
        assert _bits([metric_value(ln, metric, weights) for ln in lines]) == _bits(
            [naive_metric_value(ln, metric, weights) for ln in lines]
        )
        for per_minute_values in (False, True) if metric != "plus_minus" else (False,):
            expected = naive_side_values(
                [(ln, games[ln.game_id]) for ln in lines], metric, per_minute_values, weights
            )
            values, kept = series_values(lines, metric, weights, per_minute_values)
            assert _bits(values) == _bits(expected) and len(kept) == len(values)
            for player_id in dataset.player_ids():
                want_values, want_games = naive_player_series(
                    dataset, player_id, metric, weights, per_minute_values
                )
                try:
                    series = player_series(
                        dataset, player_id, metric, weights, per_minute_values=per_minute_values
                    )
                except EmptySeriesError:
                    assert want_values == []
                    continue
                assert _bits(series.values) == _bits(want_values)
                assert list(series.game_ids) == want_games


def test_defensive_and_offensive_coefficients_follow_key_order():
    config = WeightConfig(dict(zip(STAT_KEYS, range(1, 15))))
    assert config.defensive == tuple(config[key] for key in DEFENSIVE_KEYS)
    assert config.offensive == tuple(config[key] for key in OFFENSIVE_KEYS)
    # Key k has weight k + 1 and count k + 20, k = 0..13 in STAT_KEYS order.
    line = make_line(**dict(zip(STAT_KEYS, range(20, 34))))
    assert metric_function("id", config)(line) == sum((k + 1) * (k + 20) for k in range(4))
    assert metric_function("io", config)(line) == sum((k + 1) * (k + 20) for k in range(4, 14))


def test_metric_function_rejects_unknown_metric(weights):
    with pytest.raises(ValueError, match="unknown metric"):
        metric_function("steals", weights)


def test_parse_metric_name_per_minute_flag():
    assert parse_metric_name("rend", per_minute=True) == ("rend", True)
    assert parse_metric_name("rend_per_minute", per_minute=True) == ("rend", True)
    with pytest.raises(ValueError, match="^plus_minus has no per-minute form$"):
        parse_metric_name("plus_minus", per_minute=True)
    with pytest.raises(ValueError, match="^unknown metric 'plus_minus_per_minute'$"):
        parse_metric_name("plus_minus_per_minute", per_minute=True)
