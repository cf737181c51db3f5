"""Domain type construction, validation and the points identity."""

from __future__ import annotations

import math
import pickle
import sys
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxmetrics import (
    DEFAULT_WEIGHTS,
    DEFENSIVE_KEYS,
    OFFENSIVE_KEYS,
    STAT_KEYS,
    BoxscoreLine,
    GameMeta,
    MetricSeries,
    SplitComparison,
    UnknownTeamError,
    WeightConfig,
    derived_points,
)
from conftest import make_game, make_line
from oracles import naive_fingerprint

counts = st.integers(min_value=0, max_value=50)


def test_derived_points_zero_line():
    assert derived_points(make_line()) == 0


def test_derived_points_hand_values():
    assert derived_points(make_line(t2c=4, t3c=2, t1c=3)) == 17
    assert derived_points(make_line(t1c=5)) == 5


@given(t2c=counts, t3c=counts, t1c=counts)
def test_derived_points_identity(t2c, t3c, t1c):
    line = make_line(t2c=t2c, t3c=t3c, t1c=t1c)
    assert derived_points(line) == 2 * t2c + 3 * t3c + t1c
    assert derived_points(line) >= 0


def test_line_rejects_negative_count():
    with pytest.raises(ValueError):
        make_line(rd=-1)


def test_line_rejects_negative_minutes():
    with pytest.raises(ValueError):
        make_line(minutes=-0.5)


@pytest.mark.parametrize(
    "minutes", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
def test_line_rejects_non_finite_minutes(minutes):
    with pytest.raises(ValueError, match="minutes"):
        make_line(minutes=minutes)


def test_line_stores_minutes_as_float():
    line = make_line(minutes=20)
    assert line.minutes == 20.0 and type(line.minutes) is float


def test_line_rejects_non_integer_count():
    with pytest.raises(ValueError):
        make_line(a=2.5)


def test_line_plus_minus_optional():
    assert make_line(plus_minus=None).plus_minus is None
    assert make_line(plus_minus=-7).plus_minus == -7


def test_line_dnp_flag():
    assert make_line(minutes=0.0).dnp
    assert not make_line(minutes=0.1).dnp


def test_game_rejects_same_teams():
    with pytest.raises(ValueError):
        make_game(away_team="MAD")


def test_game_rejects_negative_score():
    with pytest.raises(ValueError):
        make_game(home_score=-1)


def test_game_margin_by_side():
    game = make_game(home_score=80, away_score=75)
    assert game.margin("MAD") == 5
    assert game.margin("BCN") == -5
    with pytest.raises(UnknownTeamError):
        game.margin("XXX")


def test_weight_defaults_cover_all_keys():
    config = WeightConfig.defaults()
    assert set(config.weights) == set(STAT_KEYS)
    assert set(DEFENSIVE_KEYS) | set(OFFENSIVE_KEYS) == set(STAT_KEYS)
    assert not set(DEFENSIVE_KEYS) & set(OFFENSIVE_KEYS)
    assert config["br"] == 2.0
    assert config["t3c"] == 1.5
    assert config["bp"] == -2.0


def test_weight_config_rejects_missing_and_unknown_keys():
    partial = {k: v for k, v in DEFAULT_WEIGHTS.items() if k != "a"}
    with pytest.raises(ValueError):
        WeightConfig(partial)
    with pytest.raises(ValueError):
        WeightConfig({**DEFAULT_WEIGHTS, "zzz": 1.0})
    with pytest.raises(ValueError):
        WeightConfig.with_overrides({"zzz": 1.0})


def test_weight_overrides_keep_other_defaults():
    config = WeightConfig.with_overrides({"A": 3.0})
    assert config["a"] == 3.0
    assert config["rd"] == 1.0


def test_weight_config_round_trips_through_json():
    config = WeightConfig.defaults()
    assert WeightConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("text", ["{", "[" * 200_000], ids=["unclosed", "too-deep"])
def test_weight_config_from_json_rejects_invalid_json(text):
    with pytest.raises(ValueError, match="^invalid JSON: "):
        WeightConfig.from_json(text)


def test_weight_fingerprint_stable_and_sensitive():
    a = WeightConfig.defaults()
    b = WeightConfig.defaults()
    assert a.fingerprint() == b.fingerprint()
    assert len(a.fingerprint()) == 12
    assert a.fingerprint() != WeightConfig.with_overrides({"a": 3.0}).fingerprint()


weight_configs = st.builds(
    WeightConfig,
    st.fixed_dictionaries(
        {key: st.floats(allow_nan=False, allow_infinity=False) | st.integers(-9, 9)
         for key in STAT_KEYS}
    ),
)


@given(config=weight_configs)
def test_fingerprint_is_the_hashlib_digest(config):
    """The interpreter's own SHA-256 against ``hashlib``'s, and the
    ``hashlib`` fallback where neither lean module can be imported."""
    expected = naive_fingerprint(config)
    assert config.fingerprint() == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "_sha2", None)
        patch.setitem(sys.modules, "_sha256", None)
        assert config.fingerprint() == expected


def test_metric_series_validation():
    with pytest.raises(ValueError):
        MetricSeries("p1", "points", (1.0, 2.0), ("G01",))
    with pytest.raises(ValueError):
        MetricSeries("p1", "points", (), ())
    series = MetricSeries("p1", "points", (1.0,), ("G01",))
    assert len(series) == 1


def test_split_comparison_validates_flags():
    kwargs = dict(
        metric_name="points", group_a_label="loss", group_b_label="win",
        n_a=3, n_b=3, mean_a=1.0, mean_b=2.0, t_stat=-1.0, alpha=0.05,
    )
    with pytest.raises(ValueError):
        SplitComparison(p_value=1.5, significant=False, **kwargs)
    with pytest.raises(ValueError):
        SplitComparison(p_value=0.01, significant=False, **kwargs)
    ok = SplitComparison(p_value=0.01, significant=True, **kwargs)
    assert ok.significant


def test_game_meta_margin_antisymmetry():
    game = GameMeta(
        game_id="G99", date=date(2014, 3, 1), competition="liga",
        home_team="AAA", away_team="BBB", home_score=93, away_score=88,
    )
    assert game.margin("AAA") == -game.margin("BBB")


def test_line_record_semantics():
    line = make_line(t2c=3, rd=2, plus_minus=None, starter=True)
    with pytest.raises(AttributeError):
        line.minutes = 30.0
    with pytest.raises(AttributeError):
        line.note = "x"
    # Equal only to another line: a tuple of the same fields is not a line.
    assert line != tuple(line) and tuple(line) != line
    assert not line == tuple(line)
    twin = make_line(t2c=3, rd=2, plus_minus=None, starter=True)
    assert twin == line and twin is not line and hash(twin) == hash(line)
    assert len({line, twin, make_line(t2c=4)}) == 2
    restored = pickle.loads(pickle.dumps(line))
    assert restored == line and type(restored) is BoxscoreLine
    by_keyword = BoxscoreLine(
        starter=True, plus_minus=None, rd=2, t2c=3, minutes=20, game_id="G01",
        team="MAD", player_name="Arco", player_id="p1",
    )
    assert by_keyword == line and type(by_keyword.minutes) is float
    assert line._replace(rd=5).rd == 5
    with pytest.raises(ValueError, match="^rd must be >= 0, got -1$"):
        line._replace(rd=-1)
    assert repr(line) == (
        "BoxscoreLine(player_id='p1', player_name='Arco', team='MAD', game_id='G01', "
        "minutes=20.0, t2c=3, t2f=0, t3c=0, t3f=0, t1c=0, t1f=0, rd=2, ro=0, a=0, br=0, "
        "bp=0, tf=0, tr=0, fpc=0, fpr=0, plus_minus=None, starter=True)"
    )


def test_line_construction_runs_the_checks_in_init():
    # Tracing counts lines built by wrapping BoxscoreLine.__init__.
    assert "__init__" in vars(BoxscoreLine)
    with pytest.raises(ValueError, match="^fpc must be >= 0, got -2$"):
        make_line(fpc=-2)
    with pytest.raises(ValueError, match="^starter must be a boolean, got 'yes'$"):
        make_line(starter="yes")
    with pytest.raises(ValueError, match="^team must be a non-empty string$"):
        make_line(team="", minutes=10**400)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("player_id", 7, "player_id must be a non-empty string"),
        ("team", b"MAD", "team must be a non-empty string"),
        ("game_id", None, "game_id must be a non-empty string"),
        ("player_name", 1.5, "player_name must be a string, got 1.5"),
    ],
)
def test_line_rejects_an_id_or_name_that_is_no_string(field, value, message):
    # An int player_id would otherwise build, and sorting the season's
    # player ids would then raise a TypeError that names no line.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_line()._replace(**{field: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("game_id", 7, "game_id must be a non-empty string"),
        ("competition", None, "competition must be a string, got None"),
        ("competition", 7, "competition must be a string, got 7"),
        ("home_team", b"MAD", "home_team must be a string, got b'MAD'"),
        ("away_team", None, "away_team must be a string, got None"),
    ],
)
def test_game_rejects_an_id_or_name_that_is_no_string(field, value, message):
    # A None competition would otherwise build, and a competition split would
    # then compare None with the other games' competitions; a competition of 7
    # would be written as JSON that reads back as the competition "7".
    with pytest.raises(ValueError) as raised:
        make_game()._replace(**{field: value})
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_weight_overrides_are_checked_with_the_full_mapping():
    with pytest.raises(ValueError, match="^unknown statistic keys: zzz$"):
        WeightConfig.with_overrides({"A": 3.0, "ZZZ": "not a number"})
    with pytest.raises(ValueError, match="could not convert"):
        WeightConfig.with_overrides({"A": "not a number"})


@pytest.mark.parametrize(
    "value",
    [None, math.nan, math.inf, -math.inf, 10**400, True, False, "2", [1.0], {"x": 1.0}],
    ids=["null", "nan", "inf", "-inf", "10**400", "true", "false", "string", "list", "object"],
)
def test_weight_config_rejects_a_weight_that_is_not_a_finite_number(value):
    with pytest.raises(ValueError, match="^weight 'rd': could not convert .* to a finite number$"):
        WeightConfig.with_overrides({"RD": value})
    with pytest.raises(ValueError, match="^weight 'rd'"):
        WeightConfig({**DEFAULT_WEIGHTS, "rd": value})


def test_weight_config_accepts_finite_integers_and_floats():
    config = WeightConfig.with_overrides({"rd": 3, "a": -0.5, "br": 10**20})
    assert (config["rd"], config["a"], config["br"]) == (3.0, -0.5, 1e20)
    assert all(type(w) is float for w in config.weights.values())
