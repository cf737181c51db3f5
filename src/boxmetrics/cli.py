"""Command-line interface.

Subcommands mirror the analysis workflow: validate a season, rank players,
compare two rankings, build regularity tables, run context splits and
correlations, or write the whole report set in one go. Exit codes: 0 on
success, 2 for validation/domain failures, 3 for I/O failures. A command
imports the analysis layers it runs only when it runs: ``validate`` loads
``model`` and ``ingest`` alone.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .ingest import filter_min_games, load_dataset
from .model import DEFAULT_CLOSE_THRESHOLD, SPLIT_KINDS, WeightConfig

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3
DEFAULT_MIN_GAMES = 10


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--games", help="games CSV path")
    parser.add_argument("--lines", help="lines CSV path")
    parser.add_argument("--json", dest="json_path", help="single JSON dataset path")
    parser.add_argument("--weights", help="JSON file with weight overrides")
    parser.add_argument("--alpha", type=float, default=0.05, help="significance level")
    parser.add_argument(
        "--min-games", type=int, default=DEFAULT_MIN_GAMES, help="min games per player"
    )
    parser.add_argument(
        "--close-threshold",
        type=int,
        default=DEFAULT_CLOSE_THRESHOLD,
        help="max final margin of a close game",
    )


def _add_report_options(parser: argparse.ArgumentParser, per_minute: bool = True) -> None:
    """The input options plus the flags of a command that writes a report."""
    _add_input_options(parser)
    if per_minute:
        parser.add_argument("--per-minute", action="store_true", help="normalize by minutes")
    parser.add_argument("--format", choices=("csv", "json", "text"), default="text")
    parser.add_argument("--out", help="output file (or directory for report-all)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxmetrics",
        description="Boxscore-driven player performance, regularity and split analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a dataset")
    _add_input_options(p)

    p = sub.add_parser("rank", help="rank players by a metric mean")
    p.add_argument("metric", help="points|id|io|rend|valoracion (suffix :reg for regularity)")
    _add_report_options(p)

    p = sub.add_parser("regularity", help="regularity table for a metric")
    p.add_argument("metric")
    _add_report_options(p)

    p = sub.add_parser("delta", help="rank movement between two metrics")
    p.add_argument("metric_a")
    p.add_argument("metric_b")
    _add_report_options(p)

    p = sub.add_parser("splits", help="context split comparison for a player")
    p.add_argument("player", help="player_id, or 'all' for the plus/minus overview")
    p.add_argument("metric", help="e.g. rend_per_minute, points_per_minute, plus_minus")
    p.add_argument("kind", nargs="?", choices=SPLIT_KINDS, help="default: win_loss")
    p.add_argument("--competition", help="competition name for the competition split")
    _add_report_options(p)
    # None tells an explicit --min-games apart: one player's split rejects it.
    p.set_defaults(min_games=None)

    p = sub.add_parser("correlate", help="correlate per-player means of two metrics")
    p.add_argument("metric_x")
    p.add_argument("metric_y")
    _add_report_options(p)

    p = sub.add_parser("report-all", help="write the full report set to a directory")
    _add_report_options(p, per_minute=False)

    return parser


def _load(args: argparse.Namespace):
    # Flags first: a bad one fails at once, not after the whole season is read.
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {args.alpha}")
    if args.min_games < 1:
        raise ValueError(f"min-games must be >= 1, got {args.min_games}")
    if args.close_threshold < 0:
        raise ValueError(f"close-threshold must be >= 0, got {args.close_threshold}")
    if args.weights:
        weights = WeightConfig.from_json(Path(args.weights).read_text(encoding="utf-8"))
    else:
        weights = WeightConfig.defaults()
    return load_dataset(args.games, args.lines, args.json_path), weights


def _emit(table, args) -> None:
    from .report import render

    payload = render(table, args.format)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _table_options(args) -> dict:
    """The keyword options every table builder takes from the shared flags."""
    return dict(min_games=args.min_games, alpha=args.alpha, close_threshold=args.close_threshold)


def _rank_table(args, dataset, weights, metric: str):
    from .report import rank_players, regularity_table

    build = rank_players
    if metric.endswith(":reg"):
        build, metric = regularity_table, metric[: -len(":reg")]
    return build(dataset, metric, weights, per_minute=args.per_minute, **_table_options(args))


def _cmd_validate(args) -> int:
    dataset, _ = _load(args)
    print(
        f"ok: {len(dataset.games)} games, {len(dataset.lines)} lines, "
        f"{len({line.player_id for line in dataset.lines})} players"
    )
    return EXIT_OK


def _cmd_rank(args) -> int:
    dataset, weights = _load(args)
    suffix = ":reg" if args.command == "regularity" else ""
    _emit(_rank_table(args, dataset, weights, args.metric + suffix), args)
    return EXIT_OK


def _cmd_delta(args) -> int:
    from .report import rank_delta

    dataset, weights = _load(args)
    table_a = _rank_table(args, dataset, weights, args.metric_a)
    table_b = _rank_table(args, dataset, weights, args.metric_b)
    _emit(rank_delta(table_a, table_b), args)
    return EXIT_OK


def _cmd_splits(args) -> int:
    from .indices import combined_metric_name, parse_metric_name
    from .report import Table, plus_minus_overview
    from .splits import InsufficientSplitError, split_compare

    if args.player == "all" and (args.metric != "plus_minus" or args.kind is not None):
        given = args.metric if args.kind is None else f"{args.metric} {args.kind}"
        raise ValueError(
            "splits all is the plus_minus overview: it takes the metric plus_minus "
            f"and no split kind, got {given!r}"
        )
    if args.player != "all" and args.min_games is not None:
        raise ValueError("one player's split has no games filter; drop --min-games")
    if args.competition is not None and args.kind != "competition":
        raise ValueError("--competition names the side of the competition split only")
    if args.min_games is None:
        args.min_games = DEFAULT_MIN_GAMES
    metric = combined_metric_name(*parse_metric_name(args.metric, args.per_minute))
    kind = args.kind or "win_loss"
    dataset, weights = _load(args)
    if args.player == "all":
        _emit(plus_minus_overview(dataset, weights=weights, **_table_options(args)), args)
        return EXIT_OK
    try:
        comparisons = split_compare(
            args.player,
            metric,
            kind,
            dataset,
            weights,
            args.alpha,
            close_threshold=args.close_threshold,
            competition=args.competition,
        )
    except InsufficientSplitError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return EXIT_OK
    rows = tuple(
        (
            c.metric_name,
            c.group_a_label,
            c.n_a,
            c.mean_a,
            c.group_b_label,
            c.n_b,
            c.mean_b,
            c.t_stat,
            c.p_value,
            "*" if c.significant else "",
        )
        for c in comparisons
    )
    table = Table(
        title=f"{metric} split by {kind} for {args.player}",
        columns=(
            "metric",
            "side_a",
            "n_a",
            "mean_a",
            "side_b",
            "n_b",
            "mean_b",
            "t_stat",
            "p_value",
            "sig",
        ),
        rows=rows,
        meta={
            "player": args.player,
            "alpha": args.alpha,
            "close_threshold": args.close_threshold,
            "weights_fingerprint": weights.fingerprint(),
        },
        display_decimals=3,
    )
    _emit(table, args)
    return EXIT_OK


def _cmd_correlate(args) -> int:
    from .indices import combined_metric_name, parse_metric_name
    from .report import correlation_table

    pair = tuple(
        combined_metric_name(*parse_metric_name(name, args.per_minute))
        for name in (args.metric_x, args.metric_y)
    )
    dataset, weights = _load(args)
    _emit(correlation_table(dataset, [pair], weights, **_table_options(args)), args)
    return EXIT_OK


def _cmd_report_all(args) -> int:
    from .report import (
        correlation_table, plus_minus_overview, rank_delta, rank_players, regularity_table,
        render, win_loss_table,
    )

    dataset, weights = _load(args)
    # Every table filters by at least --min-games; filtering once here lets
    # each table's own filter return this dataset, and its index, unchanged.
    dataset = filter_min_games(dataset, args.min_games)
    ext = {"csv": "csv", "json": "json", "text": "txt"}[args.format]
    common = _table_options(args)
    # Rendered before any file is written, so a failing table leaves --out as it was.
    payloads: dict[str, bytes] = {}

    def add(name: str, table) -> None:
        payloads[f"{name}.{ext}"] = render(table, args.format)

    ranked = {}
    for metric in ("valoracion", "rend", "id", "io", "points"):
        ranked[metric] = rank_players(dataset, metric, weights, **common)
        add(f"rank_{metric}", ranked[metric])
        add(
            f"rank_{metric}_per_minute",
            rank_players(dataset, metric, weights, per_minute=True, **common),
        )
    for metric in ("rend", "id", "io"):
        add(
            f"regularity_{metric}_per_minute",
            regularity_table(dataset, metric, weights, per_minute=True, **common),
        )
    add("delta_valoracion_to_rend", rank_delta(ranked["valoracion"], ranked["rend"]))
    add("plus_minus_overview", plus_minus_overview(dataset, weights=weights, **common))
    for metric in ("points_per_minute", "rend_per_minute", "id_per_minute", "io_per_minute"):
        add(f"win_loss_{metric}", win_loss_table(dataset, metric, weights, **common))
    add(
        "correlations",
        correlation_table(
            dataset,
            [("valoracion", "points"), ("rend", "points")],
            weights,
            **common,
        ),
    )
    out_dir = Path(args.out or "reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in payloads.items():
        (out_dir / name).write_bytes(payload)
    print(f"wrote {len(payloads)} reports to {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "rank": _cmd_rank,
    "regularity": _cmd_rank,
    "delta": _cmd_delta,
    "splits": _cmd_splits,
    "correlate": _cmd_correlate,
    "report-all": _cmd_report_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    """Entry point of ``python -m boxmetrics.cli`` and the console script.

    The process runs without the cyclic garbage collector. A command leaves a
    bounded amount of cyclic garbage that does not grow with the season
    (argparse's parser, the JSON encoder's closures), while each collector
    pass walks every line read so far. Interpreter shutdown collects even
    with the collector disabled, so what is alive at exit is frozen first,
    out of reach of that last pass.
    """
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
