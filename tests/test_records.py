"""The record contract: how every public record is built, how it prints, that
it cannot be changed, and the messages of the records that check their
values."""

from __future__ import annotations

from datetime import date

import pytest

from boxmetrics import (
    DEFAULT_WEIGHTS,
    CorrelationTest,
    Dataset,
    GameMeta,
    IndexValue,
    MetricSeries,
    Provenance,
    RankedTable,
    SeriesSummary,
    SplitComparison,
    SplitLabel,
    Table,
    WeightConfig,
)
from boxmetrics.splits import LabelStat, PlusMinusSummary

DAY = date(2014, 1, 5)
GAME = GameMeta("G01", DAY, "liga", "MAD", "BCN", 80, 75)
GAME_REPR = (
    "GameMeta(game_id='G01', date=datetime.date(2014, 1, 5), competition='liga', "
    "home_team='MAD', away_team='BCN', home_score=80, away_score=75)"
)
EMPTY_PM = LabelStat("all", 0, None)
COMPARISON = ("rend", "win", "loss", 3, 4, 1.5, 0.5, 2.0, 0.04, True, 0.05)

# (record type, positional arguments, the same arguments as keywords, repr);
# the arguments leave out every field that has a default.
RECORDS = [
    (
        GameMeta,
        ("G01", DAY, "liga", "MAD", "BCN", 80, 75),
        dict(game_id="G01", date=DAY, competition="liga", home_team="MAD",
             away_team="BCN", home_score=80, away_score=75),
        GAME_REPR,
    ),
    (
        WeightConfig,
        (DEFAULT_WEIGHTS,),
        dict(weights=DEFAULT_WEIGHTS),
        "WeightConfig(weights={'rd': 1.0, 'tf': 1.0, 'fpc': -1.0, 'br': 2.0, 't2c': 1.0, "
        "'t1c': 1.0, 't3c': 1.5, 't2f': -1.0, 't1f': -2.0, 't3f': -1.0, 'ro': 2.0, "
        "'a': 2.0, 'fpr': 1.5, 'bp': -2.0})",
    ),
    (
        MetricSeries,
        ("p1", "rend", [1, 2.5], ["G01", "G02"]),
        dict(player_id="p1", metric_name="rend", values=[1, 2.5], game_ids=["G01", "G02"]),
        "MetricSeries(player_id='p1', metric_name='rend', values=(1.0, 2.5), "
        "game_ids=('G01', 'G02'))",
    ),
    (
        SplitComparison,
        COMPARISON,
        dict(metric_name="rend", group_a_label="win", group_b_label="loss", n_a=3, n_b=4,
             mean_a=1.5, mean_b=0.5, t_stat=2.0, p_value=0.04, significant=True, alpha=0.05),
        "SplitComparison(metric_name='rend', group_a_label='win', group_b_label='loss', "
        "n_a=3, n_b=4, mean_a=1.5, mean_b=0.5, t_stat=2.0, p_value=0.04, significant=True, "
        "alpha=0.05, degenerate=False)",
    ),
    (
        Provenance,
        ("a.json", "json"),
        dict(source="a.json", format="json"),
        "Provenance(source='a.json', format='json')",
    ),
    (
        Dataset,
        ({"G01": GAME}, ()),
        dict(games={"G01": GAME}, lines=()),
        f"Dataset(games={{'G01': {GAME_REPR}}}, lines=(), "
        "provenance=Provenance(source='<memory>', format='memory'))",
    ),
    (
        IndexValue,
        ("p1", "G01", 1.0, 2.0, 3.0, 4.0, 20.0),
        dict(player_id="p1", game_id="G01", id_raw=1.0, io_raw=2.0, rend_raw=3.0,
             valoracion_raw=4.0, minutes=20.0),
        "IndexValue(player_id='p1', game_id='G01', id_raw=1.0, io_raw=2.0, rend_raw=3.0, "
        "valoracion_raw=4.0, minutes=20.0)",
    ),
    (
        SeriesSummary,
        (3, 1.0, 0.5, 0.4, 2.0, False),
        dict(n=3, mean=1.0, sd_sample=0.5, sd_population=0.4, regularity=2.0,
             constant_series=False),
        "SeriesSummary(n=3, mean=1.0, sd_sample=0.5, sd_population=0.4, regularity=2.0, "
        "constant_series=False)",
    ),
    (
        CorrelationTest,
        ("pearson", 0.5, 10, 1.6, 0.15, False, 0.05),
        dict(kind="pearson", r=0.5, n=10, statistic=1.6, p_value=0.15, significant=False,
             alpha=0.05),
        "CorrelationTest(kind='pearson', r=0.5, n=10, statistic=1.6, p_value=0.15, "
        "significant=False, alpha=0.05, exact=False)",
    ),
    (
        SplitLabel,
        ("win_loss", "win"),
        dict(kind="win_loss", side="win"),
        "SplitLabel(kind='win_loss', side='win')",
    ),
    (
        LabelStat,
        ("win", 3, 1.5),
        dict(label="win", n=3, mean=1.5),
        "LabelStat(label='win', n=3, mean=1.5, dnp_included=0)",
    ),
    (
        PlusMinusSummary,
        ("p1", EMPTY_PM, ()),
        dict(player_id="p1", overall=EMPTY_PM, by_label=()),
        "PlusMinusSummary(player_id='p1', overall=LabelStat(label='all', n=0, mean=None, "
        "dnp_included=0), by_label=())",
    ),
    (
        RankedTable,
        ("t", "rend", ("rank",), (), {"alpha": 0.05}),
        dict(title="t", metric_name="rend", columns=("rank",), rows=(), meta={"alpha": 0.05}),
        "RankedTable(title='t', metric_name='rend', columns=('rank',), rows=(), "
        "meta={'alpha': 0.05}, display_decimals=2)",
    ),
    (
        Table,
        ("t", ("a",), ((1,),), {}),
        dict(title="t", columns=("a",), rows=((1,),), meta={}),
        "Table(title='t', columns=('a',), rows=((1,),), meta={}, display_decimals=2)",
    ),
]


def _ids(case) -> str:
    return case[0].__name__


@pytest.mark.parametrize("cls,args,kwargs,text", RECORDS, ids=map(_ids, RECORDS))
def test_record_construction_and_repr(cls, args, kwargs, text):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert type(by_position) is cls and by_position == by_keyword
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("cls,args,kwargs,text", RECORDS, ids=map(_ids, RECORDS))
def test_record_rejects_assignment(cls, args, kwargs, text):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(kwargs)), None)
    with pytest.raises(AttributeError):
        record.note = "x"
    assert repr(record) == text


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: GameMeta("", DAY, "liga", "MAD", "BCN", 80, 75),
         "game_id must be a non-empty string"),
        (lambda: GameMeta("G1", "2014-01-05", "liga", "MAD", "BCN", 80, 75),
         "date must be a date, got '2014-01-05'"),
        (lambda: GameMeta("G1", DAY, "liga", "MAD", "MAD", 80, 75),
         "home_team and away_team must differ, got 'MAD'"),
        (lambda: GameMeta("G1", DAY, "liga", "MAD", "BCN", -1, 75),
         "home_score must be a nonnegative integer, got -1"),
        (lambda: GameMeta("G1", DAY, "liga", "MAD", "BCN", 1, True),
         "away_score must be a nonnegative integer, got True"),
        (lambda: MetricSeries("p1", "rend", [1.0, 2.0], ["G01"]),
         "values (2) and game_ids (1) must have equal length"),
        (lambda: MetricSeries("p1", "rend", [], []),
         "a metric series must contain at least one value"),
        (lambda: SplitComparison(*COMPARISON[:10], 1.0), "alpha must be in (0, 1), got 1.0"),
        (lambda: SplitComparison(*COMPARISON[:8], 1.5, False, 0.05),
         "p_value must be in [0, 1], got 1.5"),
        (lambda: SplitComparison(*COMPARISON[:9], False, 0.05),
         "significant flag must equal p_value < alpha"),
        (lambda: SplitLabel("x", "win"), "unknown split kind 'x'"),
        (lambda: SplitLabel("win_loss", "home"), "side 'home' is not valid for kind 'win_loss'"),
        (lambda: SplitLabel("competition", ""),
         "competition split needs a competition name as side"),
        (lambda: WeightConfig({**DEFAULT_WEIGHTS, "zz": 1.0}), "unknown statistic keys: zz"),
        (lambda: WeightConfig({"rd": 1.0, "br": 2.0}),
         "missing statistic keys: tf, fpc, t2c, t1c, t3c, t2f, t1f, t3f, ro, a, fpr, bp"),
        (lambda: WeightConfig.with_overrides({"RD": "x"}),
         "weight 'rd': could not convert 'x' to a finite number"),
    ],
)
def test_record_check_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_metric_series_normalises_its_values_and_game_ids():
    series = MetricSeries("p1", "rend", (x for x in [1, 2]), iter(["G01", "G02"]))
    assert series.values == (1.0, 2.0) and type(series.values[0]) is float
    assert series.game_ids == ("G01", "G02") and len(series) == 2


def test_split_label_text():
    assert str(SplitLabel("win_loss", "win")) == "win"
    assert str(SplitLabel("competition", "copa")) == "competition=copa"


def test_weight_config_equality_and_derived_coefficients():
    weights = WeightConfig(DEFAULT_WEIGHTS)
    assert weights == WeightConfig.defaults() and weights != weights.scaled(2.0)
    assert weights.defensive == (1.0, 1.0, -1.0, 2.0)
    assert weights.offensive[:3] == (1.0, 1.0, 1.5)
    with pytest.raises(TypeError):
        hash(weights)


def test_dataset_equality_ignores_provenance():
    read = Dataset({"G01": GAME}, (), Provenance("a.json", "json"))
    built = Dataset(games={"G01": GAME}, lines=())
    assert read == built and read.provenance != built.provenance
    assert read != Dataset({}, ())
    with pytest.raises(TypeError):
        hash(read)


def test_records_are_tuples_and_replace_runs_the_checks():
    label = SplitLabel("win_loss", "win")
    assert label == ("win_loss", "win") and GAME._asdict()["home_score"] == 80
    assert GAME._replace(home_score=90).home_score == 90
    with pytest.raises(ValueError, match="^home_score must be a nonnegative integer, got -1$"):
        GAME._replace(home_score=-1)
    series = MetricSeries("p1", "rend", [1.0], ["G01"])
    assert series._replace(values=[2]).values == (2.0,)
    with pytest.raises(ValueError, match="must have equal length"):
        series._replace(game_ids=())
    with pytest.raises(ValueError, match="^significant flag must equal p_value < alpha$"):
        SplitComparison(*COMPARISON)._replace(p_value=0.5)
    with pytest.raises(ValueError, match="^side 'home' is not valid for kind 'win_loss'$"):
        label._replace(side="home")
