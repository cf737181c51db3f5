"""In-process tracing of the program's layers, from the benchmark's own files.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent). It patches every binding of the function
in the ``boxmetrics`` modules, not only its definition: ``splits`` calls its
own imported ``metric_value``, and ``cli`` its own ``render``. Methods are
patched on their class. Spans stay in memory in flat arrays until
``write``; a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute); "Class.method" names a method.
TARGETS = {
    "cli.main": ("cli", "main"),
    "ingest.load_dataset": ("ingest", "load_dataset"),
    "ingest.parse_csv": ("ingest", "parse_csv"),
    "ingest.parse_json": ("ingest", "parse_json"),
    "ingest.dataset_build": ("ingest", "Dataset.__post_init__"),
    "ingest.lines_for": ("ingest", "Dataset.lines_for"),
    "ingest.filter_min_games": ("ingest", "filter_min_games"),
    "model.line_build": ("model", "BoxscoreLine.__init__"),
    "indices.player_series": ("indices", "player_series"),
    "indices.metric_value": ("indices", "metric_value"),
    "indices.rendimiento": ("indices", "rendimiento"),
    "splits.split_compare": ("splits", "split_compare"),
    "splits.plus_minus_summary": ("splits", "plus_minus_summary"),
    "stats.welch_test": ("stats", "welch_test"),
    "stats.summarize": ("stats", "summarize"),
    "stats.pearson": ("stats", "pearson"),
    "stats.kendall_tau": ("stats", "kendall_tau"),
    "stats.spearman": ("stats", "spearman"),
    "stats.correlation_significance": ("stats", "correlation_significance"),
    "distributions.student_t_two_sided_p": ("distributions", "student_t_two_sided_p"),
    "distributions.normal_two_sided_p": ("distributions", "normal_two_sided_p"),
    "report.rank_players": ("report", "rank_players"),
    "report.regularity_table": ("report", "regularity_table"),
    "report.rank_delta": ("report", "rank_delta"),
    "report.plus_minus_overview": ("report", "plus_minus_overview"),
    "report.win_loss_table": ("report", "win_loss_table"),
    "report.correlation_table": ("report", "correlation_table"),
    "report.render": ("report", "render"),
}
TABLE_BUILDERS = tuple(n for n in TARGETS if n.startswith("report.") and n != "report.render")
CORRELATIONS = ("stats.pearson", "stats.kendall_tau", "stats.spearman",
                "stats.correlation_significance")
P_VALUES = ("distributions.student_t_two_sided_p", "distributions.normal_two_sided_p")

# per-layer metric -> unit; the order is the order they are printed in.
UNITS = {
    "ingest.parse_s": "s",
    "ingest.dataset_builds": "count",
    "ingest.dataset_build_s": "s",
    "ingest.lines_for_calls": "count",
    "ingest.lines_for_s": "s",
    "ingest.scan_yield": "ratio",
    "ingest.filter_calls": "count",
    "ingest.filter_s": "s",
    "model.lines_built": "count",
    "model.line_build_s": "s",
    "indices.series_calls": "count",
    "indices.series_self_s": "s",
    "indices.metric_evals": "count",
    "indices.metric_eval_s": "s",
    "indices.evals_per_line": "evals/line",
    "indices.rend_evals": "count",
    "splits.compare_calls": "count",
    "splits.compare_self_s": "s",
    "splits.pm_summary_s": "s",
    "splits.insufficient": "count",
    "stats.welch_calls": "count",
    "stats.welch_s": "s",
    "stats.summarize_s": "s",
    "stats.corr_s": "s",
    "distributions.p_calls": "count",
    "distributions.p_s": "s",
    "report.tables_built": "count",
    "report.table_self_s": "s",
    "report.render_calls": "count",
    "report.render_s": "s",
    "report.bytes_rendered": "B",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.lines_scanned = 0
        self.lines_returned = 0
        self.bytes_rendered = 0
        # (span name, exception type name) -> calls that raised it
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        record_size = {"ingest.lines_for": self._scan, "report.render": self._rendered}.get(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                end[index] = perf_counter()
                stack.pop()
            if record_size is not None:
                record_size(args, result)
            return result

        return wrapper

    def _scan(self, args, result) -> None:
        self.lines_scanned += len(args[0].lines)
        self.lines_returned += len(result)

    def _rendered(self, args, result) -> None:
        self.bytes_rendered += len(result)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "boxmetrics"]
        for name, (module_name, attr) in TARGETS.items():
            owner = importlib.import_module(f"boxmetrics.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self time in seconds)."""
        n = len(self.name_of)
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - covered[i]
        return {name: (calls[name], self_s[name]) for name in self.names}

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: index, name, parent index, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tparent\tstart\tend\n")
            for i in range(len(self.name_of)):
                out.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                          f"{self.start[i]!r}\t{self.end[i]!r}\n")


def layer_metrics(spans: Tracer, input_lines: int, bytes_written: int,
                  overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, named as in ``UNITS``."""
    agg = spans.aggregate()

    def calls(*names: str) -> int:
        return sum(agg[n][0] for n in names)

    def self_s(*names: str) -> float:
        return sum(agg[n][1] for n in names)

    return {
        "ingest.parse_s": self_s("ingest.load_dataset", "ingest.parse_csv", "ingest.parse_json"),
        "ingest.dataset_builds": calls("ingest.dataset_build"),
        "ingest.dataset_build_s": self_s("ingest.dataset_build"),
        "ingest.lines_for_calls": calls("ingest.lines_for"),
        "ingest.lines_for_s": self_s("ingest.lines_for"),
        "ingest.scan_yield": spans.lines_returned / max(spans.lines_scanned, 1),
        "ingest.filter_calls": calls("ingest.filter_min_games"),
        "ingest.filter_s": self_s("ingest.filter_min_games"),
        "model.lines_built": calls("model.line_build"),
        "model.line_build_s": self_s("model.line_build"),
        "indices.series_calls": calls("indices.player_series"),
        "indices.series_self_s": self_s("indices.player_series"),
        "indices.metric_evals": calls("indices.metric_value"),
        "indices.metric_eval_s": self_s("indices.metric_value", "indices.rendimiento"),
        "indices.evals_per_line": calls("indices.metric_value") / input_lines,
        "indices.rend_evals": calls("indices.rendimiento"),
        "splits.compare_calls": calls("splits.split_compare"),
        "splits.compare_self_s": self_s("splits.split_compare"),
        "splits.pm_summary_s": self_s("splits.plus_minus_summary"),
        "splits.insufficient": spans.raised["splits.split_compare", "InsufficientSplitError"],
        "stats.welch_calls": calls("stats.welch_test"),
        "stats.welch_s": self_s("stats.welch_test"),
        "stats.summarize_s": self_s("stats.summarize"),
        "stats.corr_s": self_s(*CORRELATIONS),
        "distributions.p_calls": calls(*P_VALUES),
        "distributions.p_s": self_s(*P_VALUES),
        "report.tables_built": calls(*TABLE_BUILDERS),
        "report.table_self_s": self_s(*TABLE_BUILDERS),
        "report.render_calls": calls("report.render"),
        "report.render_s": self_s("report.render"),
        "report.bytes_rendered": spans.bytes_rendered,
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written,
        "trace.spans": len(spans.name_of),
        "trace.overhead_frac": overhead_frac,
    }
