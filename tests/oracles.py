"""Independent reference implementations used to check the engine.

Everything here is deliberately written as a direct transcription of the
defining formula (literal expressions, explicit pair enumeration, numeric
quadrature) and shares no code with the package under test. The naive
parsers are the exception: they build the package's own types and raise its
error classes, so that their results compare with the real parsers'. So are
the split, plus/minus and serializer references, which are the code those
modules ran before each decision got a single owner (side of a split,
exclusion from a series, cell text), and the CDFs only the tests use. The
split references read each side's values line by line through
:func:`naive_side_values`, never through the package's series columns.
:func:`neumaier_sum` is no reference but the builtin ``sum()`` of newer
Pythons, which a test swaps in to show the reports do not depend on it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from datetime import date
from functools import reduce
from operator import add
from typing import Sequence

from boxmetrics import (
    DEFENSIVE_KEYS,
    OFFENSIVE_KEYS,
    SPLIT_KINDS,
    BoxscoreLine,
    ConstantInputError,
    Dataset,
    GameMeta,
    InsufficientSplitError,
    UnknownPlayerError,
    WeightConfig,
    derived_points,
    welch_test,
)
from boxmetrics.distributions import student_t_two_sided_p
from boxmetrics.indices import parse_metric_name
from boxmetrics.splits import LabelStat, PlusMinusSummary, SplitLabel
from boxmetrics.ingest import (
    GAMES_HEADER,
    LINES_HEADER,
    BadValueError,
    DanglingGameRefError,
    DuplicateGameError,
    DuplicateLineError,
    MissingColumnError,
    PointsMismatchError,
    Provenance,
)


# The games fields that hold ids and names.
_GAME_TEXTS = ("game_id", "competition", "home_team", "away_team")


def naive_lines_for(dataset, player_id: str) -> list:
    """Scan every line of the season, then sort the player's by (date, game_id)."""
    mine = [line for line in dataset.lines if line.player_id == player_id]
    mine.sort(key=lambda ln: (dataset.games[ln.game_id].date, ln.game_id))
    return mine


def naive_player_ids(dataset) -> list[str]:
    return sorted({line.player_id for line in dataset.lines})


def naive_filter_min_games(dataset, min_games: int) -> tuple:
    """The lines a min-games filter keeps, counting each player's distinct games."""
    counts: dict[str, set[str]] = {}
    for line in dataset.lines:
        counts.setdefault(line.player_id, set()).add(line.game_id)
    return tuple(
        line for line in dataset.lines if len(counts[line.player_id]) >= min_games
    )


def _naive_parse_int(raw: str, column: str, where: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise BadValueError(f"{where}: column {column!r} must be an integer, got {raw!r}")


def naive_int_cells(column: Sequence[str], name: str, convert=int) -> list:
    """Every cell of one CSV column through ``convert`` (``int``, or the
    plus_minus reading where the empty cell is None), as the CSV decoder
    read integer cells before its lookup table; the first cell ``convert``
    rejects is named as the decoder names it."""
    values = []
    for raw in column:
        try:
            values.append(convert(raw))
        except ValueError:
            raise BadValueError(f"column {name!r} must be an integer, got {raw!r}") from None
    return values


def _naive_parse_count(raw: str, column: str, where: str) -> int:
    value = _naive_parse_int(raw, column, where)
    if value < 0:
        raise BadValueError(f"{where}: column {column!r} must be >= 0, got {value}")
    return value


def _naive_parse_minutes(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadValueError(f"{where}: column 'minutes' must be decimal minutes, got {raw!r}")
    if not math.isfinite(value):
        raise BadValueError(f"{where}: column 'minutes' must be finite, got {value}")
    if value < 0:
        raise BadValueError(f"{where}: column 'minutes' must be >= 0, got {value}")
    return value


def _naive_json_count(value: object, column: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadValueError(f"{where}: field {column!r} must be an integer, got {value!r}")
    if value < 0:
        raise BadValueError(f"{where}: field {column!r} must be >= 0, got {value}")
    return value


def _naive_check_header(actual, expected: tuple, what: str) -> bool:
    actual = tuple(actual)
    if actual == expected:
        return False
    if what == "lines" and actual == expected + ("points",):
        return True
    missing = [c for c in expected if c not in actual]
    if missing:
        raise MissingColumnError(f"{what} header: missing column(s) {', '.join(missing)}")
    raise BadValueError(f"{what} header: expected exactly {','.join(expected)}")


def _naive_build_game(values: dict, where: str) -> GameMeta:
    raw_date = values["date"]
    try:
        parsed_date = date.fromisoformat(str(raw_date))
    except ValueError:
        raise BadValueError(f"{where}: column 'date' must be ISO-8601, got {raw_date!r}")
    if isinstance(values["home_score"], str):
        home = _naive_parse_count(values["home_score"], "home_score", where)
        away = _naive_parse_count(values["away_score"], "away_score", where)
    else:
        home = _naive_json_count(values["home_score"], "home_score", where)
        away = _naive_json_count(values["away_score"], "away_score", where)
    if home == away:
        raise BadValueError(f"{where}: tied final score {home}-{away} is not a valid result")
    try:
        return GameMeta(
            game_id=str(values["game_id"]),
            date=parsed_date,
            competition=str(values["competition"]),
            home_team=str(values["home_team"]),
            away_team=str(values["away_team"]),
            home_score=home,
            away_score=away,
        )
    except ValueError as exc:
        raise BadValueError(f"{where}: {exc}")


def _naive_line_checks(fields: dict) -> None:
    """Every domain check of one line, field by field in declaration order."""
    for name in ("player_id", "team", "game_id"):
        if not isinstance(fields[name], str) or not fields[name]:
            raise ValueError(f"{name} must be a non-empty string")
    if not isinstance(fields["player_name"], str):
        raise ValueError(f"player_name must be a string, got {fields['player_name']!r}")
    minutes = float(fields["minutes"])
    if minutes < 0:
        raise ValueError(f"minutes must be >= 0, got {minutes}")
    for name in LINES_HEADER[5:20]:
        value = fields[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer count, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must fit in a float, got {value}") from None
    plus_minus = fields["plus_minus"]
    if plus_minus is not None and (isinstance(plus_minus, bool) or not isinstance(plus_minus, int)):
        raise ValueError(f"plus_minus must be an integer or absent, got {plus_minus!r}")
    if not isinstance(fields["starter"], bool):
        raise ValueError(f"starter must be a boolean, got {fields['starter']!r}")


def _naive_build_line(values, counts, minutes, plus_minus, starter, points, where):
    fields = dict(
        player_id=str(values["player_id"]),
        player_name=str(values["player_name"]),
        team=str(values["team"]),
        game_id=str(values["game_id"]),
        minutes=minutes,
        plus_minus=plus_minus,
        starter=starter,
        **counts,
    )
    try:
        _naive_line_checks(fields)
    except ValueError as exc:
        raise BadValueError(f"{where}: {exc}")
    line = BoxscoreLine(**fields)
    if points is not None and points != derived_points(line):
        raise PointsMismatchError(
            f"{where}: points column says {points} but counts derive {derived_points(line)}"
        )
    return line


def _naive_check_references(games, seen, line, where) -> None:
    game = games[line.game_id]
    if line.team not in (game.home_team, game.away_team):
        raise BadValueError(f"{where}: team {line.team!r} did not play in game {line.game_id!r}")
    key = (line.player_id, line.game_id)
    if key in seen:
        raise DuplicateLineError(f"{where}: duplicate (player_id, game_id) = {key!r}")
    seen.add(key)


def naive_parse_csv(games_text: str, lines_text: str, *, source: str = "<stream>") -> Dataset:
    """Decode and check every cell as it is read, then build the dataset
    (whose constructor checks every reference a second time)."""
    games: dict[str, GameMeta] = {}
    games_rows = csv.reader(io.StringIO(games_text))
    try:
        header = next(games_rows)
    except StopIteration:
        raise MissingColumnError("games file is empty; expected a header row")
    _naive_check_header(header, GAMES_HEADER, "games")
    for idx, row in enumerate(games_rows, start=2):
        where = f"games row {idx}"
        if len(row) != len(GAMES_HEADER):
            raise BadValueError(f"{where}: expected {len(GAMES_HEADER)} fields, got {len(row)}")
        _naive_check_texts(dict(zip(GAMES_HEADER, row)), _GAME_TEXTS, where)
        game = _naive_build_game(dict(zip(GAMES_HEADER, row)), where)
        if game.game_id in games:
            raise DuplicateGameError(f"{where}: duplicate game_id {game.game_id!r}")
        games[game.game_id] = game

    lines = []
    seen: set[tuple[str, str]] = set()
    lines_rows = csv.reader(io.StringIO(lines_text))
    try:
        header = next(lines_rows)
    except StopIteration:
        raise MissingColumnError("lines file is empty; expected a header row")
    has_points = _naive_check_header(header, LINES_HEADER, "lines")
    expected_len = len(LINES_HEADER) + (1 if has_points else 0)
    for idx, row in enumerate(lines_rows, start=2):
        where = f"lines row {idx}"
        if len(row) != expected_len:
            raise BadValueError(f"{where}: expected {expected_len} fields, got {len(row)}")
        values = dict(zip(LINES_HEADER, row))
        _naive_check_texts(values, LINES_HEADER[:4], where)
        counts = {c: _naive_parse_count(values[c], c, where) for c in LINES_HEADER[5:20]}
        minutes = _naive_parse_minutes(values["minutes"], where)
        raw_pm = values["plus_minus"]
        plus_minus = None if raw_pm == "" else _naive_parse_int(raw_pm, "plus_minus", where)
        if values["starter"] not in ("true", "false"):
            raise BadValueError(
                f"{where}: column 'starter' must be 'true' or 'false', got {values['starter']!r}"
            )
        starter = values["starter"] == "true"
        points = _naive_parse_count(row[-1], "points", where) if has_points else None
        if values["game_id"] not in games:
            raise DanglingGameRefError(f"{where}: unknown game_id {values['game_id']!r}")
        line = _naive_build_line(values, counts, minutes, plus_minus, starter, points, where)
        _naive_check_references(games, seen, line, where)
        lines.append(line)
    return Dataset(games=games, lines=tuple(lines), provenance=Provenance(source, "csv"))


def _naive_check_texts(entry: dict, fields: Sequence[str], where: str) -> None:
    """Each of ``fields`` is a string that UTF-8 can encode, or a number."""
    for field in fields:
        value = entry[field]
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise BadValueError(
                f"{where}: field {field!r} must be a string or a number, got {value!r}"
            )
        for char in str(value):
            if 0xD800 <= ord(char) <= 0xDFFF:
                raise BadValueError(
                    f"{where}: field {field!r} holds {char!r}, which UTF-8 cannot encode"
                )


def naive_parse_json(text: str, *, source: str = "<stream>") -> Dataset:
    """The JSON twin of :func:`naive_parse_csv`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadValueError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict) or set(doc) != {"games", "lines"}:
        raise MissingColumnError("top-level JSON must be an object with 'games' and 'lines'")
    if not isinstance(doc["games"], list) or not isinstance(doc["lines"], list):
        raise BadValueError("'games' and 'lines' must be arrays")

    def check_fields(entry, header, allowed, where) -> None:
        if not isinstance(entry, dict):
            raise BadValueError(f"{where}: must be an object")
        missing = [c for c in header if c not in entry]
        if missing:
            raise MissingColumnError(f"{where}: missing field(s) {', '.join(missing)}")
        unknown = sorted(set(entry) - set(allowed))
        if unknown:
            raise BadValueError(f"{where}: unknown field(s) {', '.join(unknown)}")

    games: dict[str, GameMeta] = {}
    for idx, entry in enumerate(doc["games"], start=1):
        where = f"games entry {idx}"
        check_fields(entry, GAMES_HEADER, GAMES_HEADER, where)
        _naive_check_texts(entry, _GAME_TEXTS, where)
        game = _naive_build_game(entry, where)
        if game.game_id in games:
            raise DuplicateGameError(f"{where}: duplicate game_id {game.game_id!r}")
        games[game.game_id] = game

    lines = []
    seen: set[tuple[str, str]] = set()
    for idx, entry in enumerate(doc["lines"], start=1):
        where = f"lines entry {idx}"
        check_fields(entry, LINES_HEADER, LINES_HEADER + ("points",), where)
        _naive_check_texts(entry, LINES_HEADER[:4], where)
        counts = {c: _naive_json_count(entry[c], c, where) for c in LINES_HEADER[5:20]}
        raw_minutes = entry["minutes"]
        if isinstance(raw_minutes, bool) or not isinstance(raw_minutes, (int, float)):
            raise BadValueError(f"{where}: field 'minutes' must be a number, got {raw_minutes!r}")
        minutes = _naive_parse_minutes(str(raw_minutes), where)
        raw_pm = entry["plus_minus"]
        if raw_pm is not None and (isinstance(raw_pm, bool) or not isinstance(raw_pm, int)):
            raise BadValueError(f"{where}: field 'plus_minus' must be an integer or null")
        if not isinstance(entry["starter"], bool):
            raise BadValueError(f"{where}: field 'starter' must be a boolean")
        points = (
            _naive_json_count(entry["points"], "points", where) if "points" in entry else None
        )
        if str(entry["game_id"]) not in games:
            raise DanglingGameRefError(f"{where}: unknown game_id {str(entry['game_id'])!r}")
        line = _naive_build_line(entry, counts, minutes, raw_pm, entry["starter"], points, where)
        _naive_check_references(games, seen, line, where)
        lines.append(line)
    return Dataset(games=games, lines=tuple(lines), provenance=Provenance(source, "json"))


def naive_fingerprint(weights: WeightConfig) -> str:
    """``WeightConfig.fingerprint`` as it was written on ``hashlib``."""
    canonical = json.dumps({k: repr(v) for k, v in sorted(weights.weights.items())})
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def neumaier_sum(values, start=0):
    """The builtin ``sum()`` as Python 3.12 and later run it on floats: the
    rounding error of each float addition is kept apart (Neumaier) and added
    back at the end. Any other total is added as ``+`` adds it."""
    total, compensation = start, 0.0
    for value in values:
        added = total + value
        if isinstance(added, float):
            if abs(total) >= abs(value):
                compensation += (total - added) + value
            else:
                compensation += (value - added) + total
        total = added
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def naive_rank_delta(table_a, table_b) -> list[tuple]:
    """The rows of ``rank_delta``, each rank found by scanning the table's
    rows for the player's first row."""

    def rank_of(table, player_id: str) -> int:
        for row in table.rows:
            if row[1] == player_id:
                return row[0]
        raise KeyError(player_id)

    names = {row[1]: row[2] for row in table_a.rows}
    rows = []
    for pid in sorted(names):
        rank_a, rank_b = rank_of(table_a, pid), rank_of(table_b, pid)
        rows.append((pid, names[pid], rank_a, rank_b, rank_a - rank_b))
    return rows


def formula_defensive(line) -> float:
    """rd + tf - fpc + 2*br, written out literally."""
    return line.rd + line.tf - line.fpc + 2 * line.br


def formula_offensive(line) -> float:
    """t2c + t1c + 1.5*t3c - t2f - 2*t1f - t3f + 2*ro + 2*a + 1.5*fpr - 2*bp."""
    return (
        line.t2c
        + line.t1c
        + 1.5 * line.t3c
        - line.t2f
        - 2 * line.t1f
        - line.t3f
        + 2 * line.ro
        + 2 * line.a
        + 1.5 * line.fpr
        - 2 * line.bp
    )


def formula_valoracion(line) -> float:
    points = 2 * line.t2c + 3 * line.t3c + line.t1c
    return (points + line.rd + line.ro + line.a + line.br + line.tf + line.fpr) - (
        line.t2f + line.t3f + line.t1f + line.bp + line.tr + line.fpc
    )


def pair_count_kendall(x: Sequence[float], y: Sequence[float]) -> float:
    """Tau-b by explicit enumeration and classification of every pair."""
    n = len(x)
    concordant = 0
    discordant = 0
    tied_x_pairs = 0
    tied_y_pairs = 0
    for i in range(n):
        for j in range(n):
            if j <= i:
                continue
            if x[i] == x[j] and y[i] == y[j]:
                tied_x_pairs += 1
                tied_y_pairs += 1
            elif x[i] == x[j]:
                tied_x_pairs += 1
            elif y[i] == y[j]:
                tied_y_pairs += 1
            elif (x[i] < x[j] and y[i] < y[j]) or (x[i] > x[j] and y[i] > y[j]):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt(
        (total - tied_x_pairs) * (total - tied_y_pairs)
    )


def naive_kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tau-b by the O(n^2) loop over every pair, clamped into [-1, 1]."""
    n = len(x)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    total_pairs = n * (n - 1) // 2
    denom_x = total_pairs - tied_x
    denom_y = total_pairs - tied_y
    if denom_x == 0 or denom_y == 0:
        raise ConstantInputError("kendall tau undefined for a constant input")
    tau = (concordant - discordant) / math.sqrt(denom_x * denom_y)
    return max(-1.0, min(1.0, tau))


def naive_metric_value(line, metric: str, weights) -> float | None:
    """One metric of one line, each weighted sum looked up key by key and
    added left to right from 0, as the builtin sum() adds up to Python 3.11."""
    defensive = reduce(add, (weights[key] * getattr(line, key) for key in DEFENSIVE_KEYS), 0)
    offensive = reduce(add, (weights[key] * getattr(line, key) for key in OFFENSIVE_KEYS), 0)
    if metric == "points":
        return float(derived_points(line))
    if metric == "id":
        return defensive
    if metric == "io":
        return offensive
    if metric == "rend":
        return defensive + offensive
    if metric == "valoracion":
        return float(formula_valoracion(line))
    if metric == "plus_minus":
        return None if line.plus_minus is None else float(line.plus_minus)
    raise ValueError(f"unknown metric {metric!r}")


def naive_player_series(dataset, player_id: str, metric: str, weights, per_minute_values: bool):
    """(values, game_ids) of one player's series, deciding line by line
    whether a missing value or a DNP leaves it out."""
    values, game_ids = [], []
    for line in naive_lines_for(dataset, player_id):
        raw = naive_metric_value(line, metric, weights)
        if raw is None:
            continue
        if per_minute_values:
            if line.minutes == 0.0:
                continue
            raw = raw / line.minutes
        values.append(raw)
        game_ids.append(line.game_id)
    return values, game_ids


def naive_side_values(pairs, metric: str, use_per_minute: bool, weights) -> list[float]:
    """The values of one side of a split, from its (line, game) pairs."""
    values = []
    for line, _ in pairs:
        raw = naive_metric_value(line, metric, weights)
        if raw is None:
            continue
        if use_per_minute:
            if line.minutes == 0.0:
                continue
            raw = raw / line.minutes
        values.append(raw)
    return values


def positional_midranks(values: Sequence[float]) -> list[float]:
    """Average of 1-based sorted positions taken by each tied value, O(n^2)."""
    ordered = sorted(values)
    ranks = []
    for v in values:
        positions = [i + 1 for i, w in enumerate(ordered) if w == v]
        ranks.append(sum(positions) / len(positions))
    return ranks


def direct_pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(
        sum((b - my) ** 2 for b in y)
    )
    return num / den


def _t_pdf(u: float, df: float) -> float:
    log_c = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_c - ((df + 1.0) / 2.0) * math.log1p(u * u / df))


def _adaptive_simpson(f, a: float, b: float, tol: float, depth: int = 40) -> float:
    c = (a + b) / 2.0
    fa, fb, fc = f(a), f(b), f(c)

    def recurse(a, b, fa, fb, fc, whole, depth):
        c = (a + b) / 2.0
        left_mid = (a + c) / 2.0
        right_mid = (c + b) / 2.0
        fl, fr = f(left_mid), f(right_mid)
        left = (c - a) / 6.0 * (fa + 4.0 * fl + fc)
        right = (b - c) / 6.0 * (fc + 4.0 * fr + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, c, fa, fc, fl, left, depth - 1) + recurse(
            c, b, fc, fb, fr, right, depth - 1
        )

    whole = (b - a) / 6.0 * (fa + 4.0 * fc + fb)
    return recurse(a, b, fa, fb, fc, whole, depth)


def t_two_sided_p_quadrature(t: float, df: float, tol: float = 1e-13) -> float:
    """P(|T| >= |t|) by numeric integration of the density over [0, |t|]."""
    t = abs(t)
    if t == 0.0:
        return 1.0
    inner = _adaptive_simpson(lambda u: _t_pdf(u, df), 0.0, t, tol)
    return max(0.0, 1.0 - 2.0 * inner)


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t, from the package's two-sided p-value."""
    p = student_t_two_sided_p(t, df)
    if t >= 0:
        return 1.0 - 0.5 * p
    return 0.5 * p


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_NAIVE_SIDES = {
    "win_loss": ("loss", "win"),
    "close_game": ("close", "normal"),
    "home_away": ("home", "away"),
    "starter_bench": ("starter", "bench"),
}


def naive_matches_label(line, game, label, *, close_threshold: int = 5) -> bool:
    """Whether this (line, game) belongs to the label's side of its split,
    one branch per kind, each written out from the game's scores."""
    if label.kind == "win_loss":
        own, other = (
            (game.home_score, game.away_score)
            if line.team == game.home_team
            else (game.away_score, game.home_score)
        )
        return (own > other) == (label.side == "win")
    if label.kind == "close_game":
        close = abs(game.home_score - game.away_score) <= close_threshold
        return close == (label.side == "close")
    if label.kind == "home_away":
        return (line.team == game.home_team) == (label.side == "home")
    if label.kind == "starter_bench":
        return line.starter == (label.side == "starter")
    return game.competition == label.side


def naive_split_compare(
    player_id: str,
    metric_name: str,
    split_kind: str,
    dataset,
    weights=None,
    alpha: float = 0.05,
    *,
    close_threshold: int = 5,
    competition: str | None = None,
) -> list:
    """A split comparison with (line, game) pair lists: one branch for the
    competition kind, one for the two-sided kinds."""
    if split_kind not in SPLIT_KINDS:
        raise ValueError(f"unknown split kind {split_kind!r}")
    weights = weights or WeightConfig.defaults()
    metric, use_per_minute = parse_metric_name(metric_name)
    lines = naive_lines_for(dataset, player_id)
    if not lines:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    pairs = [(line, dataset.games[line.game_id]) for line in lines]

    def compare(side_a, side_b, pairs_a, pairs_b, *, strict):
        values_a = naive_side_values(pairs_a, metric, use_per_minute, weights)
        values_b = naive_side_values(pairs_b, metric, use_per_minute, weights)
        if len(values_a) < 2 or len(values_b) < 2:
            if strict:
                raise InsufficientSplitError(
                    f"player {player_id!r}, split {split_kind!r}: sides have "
                    f"{len(values_a)} ({side_a}) and {len(values_b)} ({side_b}) "
                    "qualifying games; need at least 2 each"
                )
            return None
        return welch_test(
            values_a,
            values_b,
            alpha,
            metric_name=metric_name,
            group_a_label=side_a,
            group_b_label=side_b,
        )

    if split_kind == "competition":
        names = (
            [competition]
            if competition is not None
            else sorted({g.competition for _, g in pairs})
        )
        results = []
        for name in names:
            inside = [(ln, g) for ln, g in pairs if g.competition == name]
            outside = [(ln, g) for ln, g in pairs if g.competition != name]
            comparison = compare(name, "rest", inside, outside, strict=competition is not None)
            if comparison is not None:
                results.append(comparison)
        return results

    side_a, side_b = _NAIVE_SIDES[split_kind]
    label_a = SplitLabel(split_kind, side_a)
    pairs_a, pairs_b = [], []
    for pair in pairs:
        if naive_matches_label(pair[0], pair[1], label_a, close_threshold=close_threshold):
            pairs_a.append(pair)
        else:
            pairs_b.append(pair)
    return [compare(side_a, side_b, pairs_a, pairs_b, strict=True)]


def _naive_pm_stat(label: str, pairs) -> LabelStat:
    observed = [(ln, g) for ln, g in pairs if ln.plus_minus is not None]
    if not observed:
        return LabelStat(label=label, n=0, mean=None)
    values = [float(ln.plus_minus) for ln, _ in observed]
    dnp = sum(1 for ln, _ in observed if ln.minutes == 0.0)
    return LabelStat(label=label, n=len(values), mean=sum(values) / len(values), dnp_included=dnp)


def naive_plus_minus_summary(
    player_id: str, dataset, labels=None, *, close_threshold: int = 5
) -> PlusMinusSummary:
    """Mean plus_minus overall and per label, filtering missing values itself."""
    if labels is None:
        labels = (
            SplitLabel("close_game", "close"),
            SplitLabel("win_loss", "win"),
            SplitLabel("win_loss", "loss"),
        )
    lines = naive_lines_for(dataset, player_id)
    if not lines:
        raise UnknownPlayerError(f"no lines for player {player_id!r}")
    pairs = [(line, dataset.games[line.game_id]) for line in lines]
    stats = tuple(
        _naive_pm_stat(
            str(label),
            [
                (ln, g)
                for ln, g in pairs
                if naive_matches_label(ln, g, label, close_threshold=close_threshold)
            ],
        )
        for label in labels
    )
    return PlusMinusSummary(
        player_id=player_id, overall=_naive_pm_stat("total", pairs), by_label=stats
    )


def _naive_game_row(game) -> list[str]:
    return [
        game.game_id,
        game.date.isoformat(),
        game.competition,
        game.home_team,
        game.away_team,
        str(game.home_score),
        str(game.away_score),
    ]


def _naive_line_row(line) -> list[str]:
    return [
        line.game_id,
        line.player_id,
        line.player_name,
        line.team,
        repr(line.minutes),
        str(line.t2c),
        str(line.t2f),
        str(line.t3c),
        str(line.t3f),
        str(line.t1c),
        str(line.t1f),
        str(line.rd),
        str(line.ro),
        str(line.a),
        str(line.br),
        str(line.bp),
        str(line.tf),
        str(line.tr),
        str(line.fpc),
        str(line.fpr),
        "" if line.plus_minus is None else str(line.plus_minus),
        "true" if line.starter else "false",
    ]


def naive_serialize_csv(dataset) -> tuple[str, str]:
    """(games, lines) CSV text, every field of every row written by hand."""
    games_buf = io.StringIO()
    writer = csv.writer(games_buf)
    writer.writerow(GAMES_HEADER)
    for game in dataset.games.values():
        writer.writerow(_naive_game_row(game))
    lines_buf = io.StringIO()
    writer = csv.writer(lines_buf)
    writer.writerow(LINES_HEADER)
    for line in dataset.lines:
        writer.writerow(_naive_line_row(line))
    return games_buf.getvalue(), lines_buf.getvalue()


def naive_serialize_json(dataset) -> str:
    """JSON text built from the CSV rows, with the numeric fields' types put back."""
    doc = {
        "games": [dict(zip(GAMES_HEADER, _naive_game_row(g))) for g in dataset.games.values()],
        "lines": [],
    }
    for game_obj, game in zip(doc["games"], dataset.games.values()):
        game_obj["home_score"] = game.home_score
        game_obj["away_score"] = game.away_score
    for line in dataset.lines:
        entry = dict(zip(LINES_HEADER, _naive_line_row(line)))
        entry["minutes"] = line.minutes
        for column in LINES_HEADER[5:20]:
            entry[column] = getattr(line, column)
        entry["plus_minus"] = line.plus_minus
        entry["starter"] = line.starter
        doc["lines"].append(entry)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
