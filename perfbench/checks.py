"""Output checks for every benchmark command.

Expected values are recomputed here from the generated season with plain
loops, independently of the program under test. A command passes when it
exits 0, its output is valid for its format (strict JSON: a ``NaN`` or
``Infinity`` token fails; CSV must parse), its row counts match, and every
ranked value and correlation it prints agrees with the recomputation within
1e-9 (text output: within its display rounding).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from gen import Season, derived_points

TOLERANCE = 1e-9
MIN_GAMES = 10  # the CLI default
CLOSE_THRESHOLD = 5
DEFENSIVE = (("rd", 1.0), ("tf", 1.0), ("fpc", -1.0), ("br", 2.0))
OFFENSIVE = (("t2c", 1.0), ("t1c", 1.0), ("t3c", 1.5), ("t2f", -1.0), ("t1f", -2.0),
             ("t3f", -1.0), ("ro", 2.0), ("a", 2.0), ("fpr", 1.5), ("bp", -2.0))
RANK_METRICS = ("valoracion", "rend", "id", "io", "points")
REGULARITY_METRICS = ("rend", "id", "io")
WIN_LOSS_METRICS = ("points_per_minute", "rend_per_minute", "id_per_minute", "io_per_minute")
CORRELATION_PAIRS = (("valoracion", "points"), ("rend", "points"))


def metric(line: dict, name: str) -> float:
    if name == "points":
        return float(derived_points(line))
    defensive = sum(w * line[k] for k, w in DEFENSIVE)
    offensive = sum(w * line[k] for k, w in OFFENSIVE)
    if name == "id":
        return defensive
    if name == "io":
        return offensive
    if name == "rend":
        return defensive + offensive
    credits = derived_points(line) + sum(line[k] for k in ("rd", "ro", "a", "br", "tf", "fpr"))
    debits = sum(line[k] for k in ("t2f", "t3f", "t1f", "bp", "tr", "fpc"))
    return float(credits - debits)


class Expected:
    """Recomputed report contents for one season at the CLI defaults."""

    def __init__(self, season: Season):
        self.season = season
        self.games = {g["game_id"]: g for g in season.games}
        by_player: dict[str, list[dict]] = {}
        for line in season.lines:
            by_player.setdefault(line["player_id"], []).append(line)
        self.by_player = by_player
        self.kept = sorted(p for p, ls in by_player.items() if len(ls) >= MIN_GAMES)

    def values(self, player: str, name: str, per_minute: bool) -> list[float]:
        if per_minute:
            return [metric(ln, name) / ln["minutes"] for ln in self.by_player[player]
                    if ln["minutes"] > 0]
        return [metric(ln, name) for ln in self.by_player[player]]

    def means(self, name: str, per_minute: bool) -> dict[str, float]:
        out = {}
        for player in self.kept:
            values = self.values(player, name, per_minute)
            if values:
                out[player] = sum(values) / len(values)
        return out

    def regularity(self, name: str) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for player in self.kept:
            values = self.values(player, name, True)
            if len(values) < 2:
                continue
            center = sum(values) / len(values)
            sd = math.sqrt(sum((v - center) ** 2 for v in values) / (len(values) - 1))
            out[player] = center / sd if sd else None
        return out

    def correlations(self, x: str, y: str) -> tuple[int, float, float, float]:
        mx, my = self.means(x, False), self.means(y, False)
        xs = [mx[p] for p in self.kept]
        ys = [my[p] for p in self.kept]
        return len(xs), pearson(xs, ys), kendall_tau_b(xs, ys), pearson(midranks(xs), midranks(ys))

    def plus_minus_totals(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for player in self.kept:
            pm = [ln["plus_minus"] for ln in self.by_player[player] if ln["plus_minus"] is not None]
            out[player] = sum(pm) / len(pm) if pm else None
        return out

    def split(self, player: str, kind: str) -> list[tuple[int, float, int, float]] | None:
        """(n_a, mean_a, n_b, mean_b) rows of ``splits <player> rend_per_minute <kind>``;
        None when a side has fewer than two games and the CLI only warns."""
        pairs = [(ln, self.games[ln["game_id"]]) for ln in self.by_player[player]]

        def side_a(ln: dict, game: dict) -> bool:
            if kind == "win_loss":
                own, other = ((game["home_score"], game["away_score"])
                              if ln["team"] == game["home_team"]
                              else (game["away_score"], game["home_score"]))
                return own < other
            if kind == "close_game":
                return abs(game["home_score"] - game["away_score"]) <= CLOSE_THRESHOLD
            if kind == "home_away":
                return ln["team"] == game["home_team"]
            return ln["starter"]

        def per_minute(group: list[dict]) -> list[float]:
            return [metric(ln, "rend") / ln["minutes"] for ln in group if ln["minutes"] > 0]

        if kind == "competition":
            groups = [
                ([ln for ln, g in pairs if g["competition"] == name],
                 [ln for ln, g in pairs if g["competition"] != name])
                for name in sorted({g["competition"] for _, g in pairs})
            ]
        else:
            groups = [([ln for ln, g in pairs if side_a(ln, g)],
                       [ln for ln, g in pairs if not side_a(ln, g)])]
        rows = []
        for inside, outside in groups:
            a, b = per_minute(inside), per_minute(outside)
            if len(a) >= 2 and len(b) >= 2:
                rows.append((len(a), sum(a) / len(a), len(b), sum(b) / len(b)))
            elif kind != "competition":
                return None
        return rows


def pearson(x: list[float], y: list[float]) -> float:
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def kendall_tau_b(x: list[float], y: list[float]) -> float:
    n = len(x)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            tied_x += dx == 0
            tied_y += dy == 0
            if dx and dy:
                if (dx > 0) == (dy > 0):
                    concordant += 1
                else:
                    discordant += 1
    pairs = n * (n - 1) // 2
    return max(-1.0, min(1.0, (concordant - discordant)
                         / math.sqrt((pairs - tied_x) * (pairs - tied_y))))


def midranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        for k in range(start, stop + 1):
            ranks[order[k]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def close(actual: float | None, expected: float | None, slack: float = 0.0) -> bool:
    if actual is None or expected is None:
        return actual is None and expected is None
    return abs(actual - expected) <= TOLERANCE * max(1.0, abs(expected)) + slack


def strict_json(data: bytes) -> object:
    def reject(token: str) -> None:
        # A known defect: render(fmt="json") writes a degenerate Welch t or an
        # exact correlation's statistic as a bare Infinity.
        raise ValueError(f"non-standard JSON token {token} (known defect: non-finite "
                         "floats rendered as bare tokens)")
    return json.loads(data.decode("utf-8"), parse_constant=reject)


def _number(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _ranked(rows: list[dict], expected: dict, label: str, decimals: int | None = None,
            descending: bool = True) -> list[str]:
    """Rows of one ranked table against recomputed per-player values.

    ``decimals`` is the display rounding of text output (None: full precision).
    """
    problems = []
    got = {row["player_id"]: row["value"] for row in rows}
    if len(rows) != len(expected) or set(got) != set(expected):
        return [f"{label}: {len(rows)} rows, expected {len(expected)}"]
    slack = 0.0 if decimals is None else 0.5 * 10.0 ** -decimals
    for player, value in got.items():
        if not close(value, expected[player], slack):
            problems.append(f"{label}: {player} value {value!r}, expected {expected[player]!r}")
    ranked = [v for v in got.values() if v is not None]
    if descending and any(a < b - slack for a, b in zip(ranked, ranked[1:])):
        problems.append(f"{label}: values not in descending order")
    return problems[:5]


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))


def _text_rows(data: bytes) -> list[dict]:
    """Rows of an aligned-text table (title, meta and header lines first);
    cells are split on spaces."""
    lines = data.decode("utf-8").splitlines()
    columns = lines[2].split()
    rows = [dict(zip(columns, text.split())) for text in lines[3:]]
    for row in rows:
        row["value"] = _number(row.get("value", ""))
    return rows


def _report_all(exp: Expected, out_dir: Path, fmt: str) -> list[str]:
    """The 20 files of ``report-all`` against the recomputation."""
    ext = {"text": "txt", "json": "json"}[fmt]
    tables: dict[str, tuple[int, dict | None]] = {}  # name -> row count, values
    for name in RANK_METRICS:
        for per_minute in (False, True):
            means = exp.means(name, per_minute)
            tables[f"rank_{name}{'_per_minute' if per_minute else ''}"] = (len(means), means)
    for name in REGULARITY_METRICS:
        reg = exp.regularity(name)
        tables[f"regularity_{name}_per_minute"] = (len(reg), reg)
    tables["delta_valoracion_to_rend"] = (len(exp.means("valoracion", False)), None)
    tables["plus_minus_overview"] = (len(exp.kept), None)
    for name in WIN_LOSS_METRICS:
        tables[f"win_loss_{name}"] = (len(exp.kept), None)
    tables["correlations"] = (len(CORRELATION_PAIRS), None)

    problems = []
    written = sorted(p.name for p in out_dir.iterdir())
    if written != sorted(f"{name}.{ext}" for name in tables):
        return [f"report-all wrote {written}"]
    for name, (n_rows, values) in tables.items():
        data = (out_dir / f"{name}.{ext}").read_bytes()
        rows = strict_json(data)["rows"] if fmt == "json" else _text_rows(data)
        if len(rows) != n_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        elif values is not None and (fmt == "json" or name.startswith("rank_")):
            # Text cells are split on spaces, which only holds for tables
            # without empty cells; ranking tables show two decimals.
            problems += _ranked(rows, values, name, None if fmt == "json" else 2,
                                descending=name.startswith("rank_"))
    if fmt == "json":
        rows = strict_json((out_dir / "correlations.json").read_bytes())["rows"]
        for row, (x, y) in zip(rows, CORRELATION_PAIRS):
            problems += _correlation_row(row, exp.correlations(x, y), f"correlations {x}/{y}")
    return problems


def _correlation_row(row: dict, expected: tuple, label: str) -> list[str]:
    got = (int(row["n"]), float(row["pearson"]), float(row["kendall"]), float(row["spearman"]))
    if got[0] != expected[0] or not all(close(a, b) for a, b in zip(got[1:], expected[1:])):
        return [f"{label}: got {got}, expected {expected}"]
    return []


def check(argv: tuple[str, ...], exit_code: int, stdout: bytes, out_dir: str | None,
          exp: Expected) -> list[str]:
    """Problems with one command's result; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    command = argv[0]
    try:
        if command == "validate":
            want = (f"ok: {len(exp.games)} games, {len(exp.season.lines)} lines, "
                    f"{len(exp.by_player)} players\n")
            return [] if stdout.decode("utf-8") == want else [f"validate printed {stdout!r}"]
        if command == "report-all":
            return _report_all(exp, Path(out_dir), fmt)
        if command == "rank":
            return _ranked(_with_values(_csv_rows(stdout)), exp.means(argv[1], True), "rank")
        if command == "regularity":
            return _ranked(_with_values(_csv_rows(stdout)), exp.regularity(argv[1]),
                           "regularity")
        if command == "correlate":
            rows = _csv_rows(stdout)
            if len(rows) != 1:
                return [f"correlate: {len(rows)} rows"]
            return _correlation_row(rows[0], exp.correlations(argv[1], argv[2]), "correlate")
        if command == "splits" and argv[1] == "all":
            rows = strict_json(stdout)["rows"]
            totals = exp.plus_minus_totals()
            got = {row["player_id"]: row["total"] for row in rows}
            if set(got) != set(totals) or len(rows) != len(totals):
                return [f"splits all: {len(rows)} rows, expected {len(totals)}"]
            return [f"splits all: {p} total {v!r}" for p, v in got.items()
                    if not close(v, totals[p])][:5]
        if command == "splits":
            want = exp.split(argv[1], argv[3])
            if want is None:
                return [] if stdout == b"" else ["splits: output for an insufficient split"]
            rows = strict_json(stdout)["rows"]
            got = [(r["n_a"], r["mean_a"], r["n_b"], r["mean_b"]) for r in rows]
            ok = len(got) == len(want) and all(
                g[0] == w[0] and g[2] == w[2] and close(g[1], w[1]) and close(g[3], w[3])
                for g, w in zip(got, want)
            ) and all(0.0 <= r["p_value"] <= 1.0 for r in rows)
            return [] if ok else [f"splits {argv[1]} {argv[3]}: got {got}, expected {want}"]
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]
    return [f"no check for {command}"]


def _with_values(rows: list[dict]) -> list[dict]:
    for row in rows:
        row["value"] = _number(row["value"])
    return rows
