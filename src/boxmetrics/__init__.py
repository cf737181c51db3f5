"""Boxscore-driven basketball performance analytics.

Computes a defensive/offensive performance index per player line, the league
valoracion baseline, per-minute normalization, a regularity index (inverse
coefficient of variation), context-split mean comparisons with two-sample
significance tests, rank correlations, and deterministic ranking reports.
"""

from .model import (
    DEFAULT_WEIGHTS,
    DEFENSIVE_KEYS,
    OFFENSIVE_KEYS,
    STAT_KEYS,
    BoxscoreLine,
    GameMeta,
    MetricSeries,
    SplitComparison,
    TiedScoreError,
    UnknownPlayerError,
    UnknownTeamError,
    WeightConfig,
    derived_points,
)
from .ingest import (
    Dataset,
    IngestError,
    Provenance,
    filter_min_games,
    load_dataset,
    parse_csv,
    parse_json,
    serialize_csv,
    serialize_json,
)
from .indices import (
    METRICS,
    EmptySeriesError,
    IndexValue,
    ZeroMinutesError,
    defensive_index,
    metric_function,
    metric_value,
    offensive_index,
    per_minute,
    player_mean,
    player_series,
    rendimiento,
    series_values,
    valoracion_acb,
)
from .stats import (
    ConstantInputError,
    CorrelationTest,
    LengthMismatchError,
    SeriesSummary,
    TooFewSamplesError,
    comparable_means,
    correlation_significance,
    kendall_tau,
    pearson,
    spearman,
    summarize,
    welch_test,
)
from .splits import (
    DEFAULT_CLOSE_THRESHOLD,
    SPLIT_KINDS,
    InsufficientSplitError,
    SplitLabel,
    game_outcome,
    is_close_game,
    plus_minus_summary,
    split_compare,
)
from .report import (
    EmptyAfterFilterError,
    PlayerSetMismatchError,
    RankedRow,
    RankedTable,
    Table,
    correlation_table,
    plus_minus_overview,
    rank_delta,
    rank_players,
    rank_values,
    regularity_table,
    render,
    win_loss_table,
)

__version__ = "0.1.0"
