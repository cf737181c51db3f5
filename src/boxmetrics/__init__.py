"""Boxscore-driven basketball performance analytics.

Computes a defensive/offensive performance index per player line, the league
valoracion baseline, per-minute normalization, a regularity index (inverse
coefficient of variation), context-split mean comparisons with two-sample
significance tests, rank correlations, and deterministic ranking reports.

Every name below is imported from its module on first use, so that importing
the package, or one command of its CLI, loads only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "model": (
        "DEFAULT_CLOSE_THRESHOLD", "DEFAULT_WEIGHTS", "DEFENSIVE_KEYS", "OFFENSIVE_KEYS",
        "SPLIT_KINDS", "STAT_KEYS", "BoxscoreLine", "GameMeta", "MetricSeries",
        "SplitComparison", "TiedScoreError", "UnknownPlayerError", "UnknownTeamError",
        "WeightConfig", "derived_points",
    ),
    "ingest": (
        "Dataset", "IngestError", "Provenance", "filter_min_games", "load_dataset",
        "parse_csv", "parse_json", "serialize_csv", "serialize_json",
    ),
    "indices": (
        "METRICS", "EmptySeriesError", "IndexValue", "ZeroMinutesError", "defensive_index",
        "metric_value", "offensive_index", "per_minute", "player_series", "rendimiento",
        "valoracion_acb",
    ),
    "stats": (
        "ConstantInputError", "CorrelationTest", "LengthMismatchError", "SeriesSummary",
        "TooFewSamplesError", "comparable_means", "correlation_significance", "kendall_tau",
        "pearson", "spearman", "summarize", "welch_test",
    ),
    "splits": (
        "InsufficientSplitError", "SplitLabel", "game_outcome", "is_close_game",
        "plus_minus_summary", "split_compare",
    ),
    "report": (
        "EmptyAfterFilterError", "PlayerSetMismatchError", "RankedTable", "Table",
        "correlation_table", "plus_minus_overview", "rank_delta", "rank_players", "rank_values",
        "regularity_table", "render", "win_loss_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
