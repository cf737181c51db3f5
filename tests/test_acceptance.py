"""End-to-end acceptance checks.

Each test prints one ``[criterion NN] PASS/FAIL`` line (run with ``-s`` to
see them on passing runs). Reference figures come from the published
2013/14 ACB top-15 leaderboards and from hand-computed oracles; every
expected value is either computed independently here or verified by hand.
"""

from __future__ import annotations

import random
import time
from datetime import date, timedelta

from boxmetrics import (
    BoxscoreLine,
    Dataset,
    GameMeta,
    WeightConfig,
    correlation_significance,
    correlation_table,
    defensive_index,
    filter_min_games,
    is_close_game,
    kendall_tau,
    offensive_index,
    pearson,
    per_minute,
    rank_delta,
    rank_players,
    rank_values,
    regularity_table,
    render,
    rendimiento,
    spearman,
    summarize,
    welch_test,
)
from boxmetrics.ingest import parse_csv, parse_json, serialize_csv, serialize_json
from boxmetrics.report import format_display
from boxmetrics.stats import ConstantInputError
from conftest import build_season, index_fixture_lines, make_game
from oracles import (
    formula_defensive,
    formula_offensive,
    pair_count_kendall,
    positional_midranks,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {label}{suffix}")


# --- 1: regularity reference values -----------------------------------------

def test_criterion_01_regularity_reference_values():
    reg_a = summarize([2, 2, 2, 2, 2, 3]).regularity
    reg_b = summarize([10, 21, 19, 20, 9, 22]).regularity
    ok = abs(reg_a - 5.307) <= 1e-3 and abs(reg_b - 2.914) <= 1e-3
    _report(1, "regularity reference pairs 5.307 / 2.914", ok,
            f"got {reg_a:.4f} / {reg_b:.4f}")
    assert ok


# --- 2: per-minute reproduction of the 2013/14 leaderboard ------------------

# (name, mean valoracion, mean minutes, printed per-minute value)
VAL_PER_MINUTE_ROWS = (
    ("Rodriguez", 14.55, 23.01, "0.63"),
    ("Doblas", 13.85, 29.69, "0.45"),
    ("Doelman", 17.33, 26.74, "0.65"),
    ("Gabriel", 14.76, 26.01, "0.55"),
    ("Kirksay", 14.42, 27.48, "0.49"),
    ("Llull", 15.2, 28.75, "0.52"),
    ("Mirotic", 14.7, 22.62, "0.63"),
    ("Mumbru", 14.03, 31.83, "0.45"),
    ("Nocioni", 14.33, 25.41, "0.56"),
    ("Panko", 16.91, 32.46, "0.51"),
    ("Pleiss", 17.47, 22.28, "0.74"),
    ("Robinson", 16.21, 33.81, "0.46"),
    ("Rudy", 15.64, 24.82, "0.64"),
    ("Satoransky", 15.81, 30.75, "0.51"),
    ("Tomic", 15.07, 20.51, "0.72"),
)


def test_criterion_02a_per_minute_quotients_and_ordering():
    checks = [
        (14.55, 23.01, 0.6323),
        (17.47, 22.28, 0.7841),
        (15.07, 20.51, 0.7348),
    ]
    quotients_ok = all(
        abs(per_minute(value, minutes) - expected) <= 5e-5
        for value, minutes, expected in checks
    )
    entries = [
        (name, name, per_minute(value, minutes))
        for name, value, minutes, _ in VAL_PER_MINUTE_ROWS
    ]
    table = rank_values("valoracion_per_minute", entries)
    order_ok = table.rank_of("Pleiss") == 1 and table.rank_of("Tomic") == 2
    ok = quotients_ok and order_ok
    _report(2, "per-minute quotients and Pleiss/Tomic top-two order", ok)
    assert ok


def test_criterion_02b_per_minute_display_reproduction():
    # The printed per-minute column for Pleiss (0.74) and Tomic (0.72) is an
    # average of per-game quotients over the raw game logs, which are not
    # available here; dividing the printed means by the printed minutes gives
    # 0.78 and 0.73 instead, so these two rows cannot be reproduced. The
    # assertion states the reproduction as required and fails honestly.
    targets = [row for row in VAL_PER_MINUTE_ROWS if row[0] in ("Rodriguez", "Pleiss", "Tomic")]
    rendered = {
        name: format_display(per_minute(value, minutes), 2)
        for name, value, minutes, _ in targets
    }
    expected = {name: printed for name, _, _, printed in targets}
    ok = rendered == expected
    mismatches = {
        name: f"{rendered[name]}!={expected[name]}"
        for name in rendered
        if rendered[name] != expected[name]
    }
    _report(2, "per-minute display reproduction 0.63/0.74/0.72", ok,
            "; ".join(f"{k}: {v}" for k, v in sorted(mismatches.items())) or "exact")
    assert ok, (
        "printed per-minute values are not mean/minutes quotients for: "
        f"{sorted(mismatches)}"
    )


# --- 3: index formulas against an independent evaluator ----------------------

def test_criterion_03_index_formulas_bit_equal():
    weights = WeightConfig.defaults()
    lines = index_fixture_lines()
    ok = True
    for line in lines:
        value = rendimiento(line, weights)
        ok = ok and defensive_index(line, weights) == formula_defensive(line)
        ok = ok and offensive_index(line, weights) == formula_offensive(line)
        ok = ok and value.id_raw == formula_defensive(line)
        ok = ok and value.io_raw == formula_offensive(line)
        ok = ok and value.rend_raw == value.id_raw + value.io_raw
    _report(3, "index formulas bit-equal to literal evaluator on 20 lines", ok)
    assert ok and len(lines) == 20


# --- 4: rank-delta reproduction of the 2013/14 top-15 ------------------------

# (name, mean valoracion, printed rank, mean rend, printed rank). The printed
# rend rank for Pleiss is a misprint: the published column lists 8 twice and
# no 4, and 15.92 is the fourth-largest value in its own column, so 4 is the
# only rank consistent with the table's data.
TOP15_INDEX_ROWS = (
    ("Rodriguez", 14.55, 11, 15.58, 5),
    ("Doblas", 13.85, 15, 13.53, 10),
    ("Doelman", 17.33, 2, 16.76, 2),
    ("Gabriel", 14.76, 9, 13.19, 11),
    ("Kirksay", 14.42, 12, 14.05, 8),
    ("Llull", 15.2, 7, 14.43, 7),
    ("Mirotic", 14.7, 10, 13.83, 9),
    ("Mumbru", 14.03, 14, 11.96, 14),
    ("Nocioni", 14.33, 13, 10.05, 15),
    ("Panko", 16.91, 3, 12.8, 13),
    ("Pleiss", 17.47, 1, 15.92, 4),
    ("Robinson", 16.21, 4, 12.94, 12),
    ("Rudy", 15.64, 6, 15.96, 3),
    ("Satoransky", 15.81, 5, 17.43, 1),
    ("Tomic", 15.07, 8, 14.51, 6),
)


def test_criterion_04_rank_delta_reproduction():
    val_table = rank_values(
        "valoracion", [(n, n, v) for n, v, _, _, _ in TOP15_INDEX_ROWS]
    )
    rend_table = rank_values(
        "rend", [(n, n, r) for n, _, _, r, _ in TOP15_INDEX_ROWS]
    )
    ok = True
    for name, _, val_rank, _, rend_rank in TOP15_INDEX_ROWS:
        ok = ok and val_table.rank_of(name) == val_rank
        ok = ok and rend_table.rank_of(name) == rend_rank
    deltas = {row[0]: row[4] for row in rank_delta(val_table, rend_table).rows}
    ok = ok and deltas["Rodriguez"] == 6    # 11 -> 5
    ok = ok and deltas["Panko"] == -10      # 3 -> 13
    ok = ok and deltas["Satoransky"] == 4   # 5 -> 1
    _report(4, "top-15 position pairs and deltas reproduced", ok)
    assert ok


# --- 5: correlation oracles ---------------------------------------------------

def test_criterion_05_correlation_oracles():
    rng = random.Random(7)
    kendall_trials = 0
    kendall_ok = True
    while kendall_trials < 1000:
        n = rng.randint(3, 12)
        xs = [rng.randint(-6, 6) for _ in range(n)]
        ys = [rng.randint(-6, 6) for _ in range(n)]
        try:
            ours = kendall_tau(xs, ys)
        except ConstantInputError:
            continue
        kendall_trials += 1
        if ours != pair_count_kendall(xs, ys):
            kendall_ok = False
            break

    spearman_ok = True
    bounds_ok = True
    for _ in range(500):
        n = rng.randint(4, 15)
        xs = [float(rng.randint(-9, 9)) for _ in range(n)]
        ys = [float(rng.randint(-9, 9)) for _ in range(n)]
        try:
            ours = spearman(xs, ys)
            composed = pearson(positional_midranks(xs), positional_midranks(ys))
        except ConstantInputError:
            continue
        if abs(ours - composed) > 1e-12:
            spearman_ok = False
        for fn in (pearson, kendall_tau, spearman):
            try:
                value = fn(xs, ys)
            except ConstantInputError:
                continue
            if not -1.0 <= value <= 1.0:
                bounds_ok = False

    league = correlation_significance(0.752, 221, "pearson", 0.05)
    significance_ok = league.significant and league.p_value < 1e-6

    ok = kendall_ok and spearman_ok and bounds_ok and significance_ok
    _report(
        5,
        "kendall pair-count oracle (1000 trials), spearman composition, bounds, "
        "r=0.752 @ n=221 significant",
        ok,
    )
    assert ok


# --- 6: welch test behaviour --------------------------------------------------

def test_criterion_06_welch_symmetry_and_discrimination():
    a = [0.41, 0.52, 0.47, 0.66, 0.58, 0.49]
    b = [0.55, 0.61, 0.44, 0.50]
    forward = welch_test(a, b)
    backward = welch_test(b, a)
    symmetry_ok = abs(forward.p_value - backward.p_value) <= 1e-12
    identical_ok = welch_test(a, a).p_value == 1.0

    correct = 0
    for i in range(100):
        rng = random.Random(5000 + i)
        planted_a = [rng.gauss(0.49, 0.05) for _ in range(15)]
        planted_b = [rng.gauss(0.68, 0.05) for _ in range(15)]
        null_a = [rng.gauss(0.49, 0.05) for _ in range(15)]
        null_b = [rng.gauss(0.49, 0.05) for _ in range(15)]
        planted_hit = welch_test(planted_a, planted_b, 0.05).significant
        null_quiet = not welch_test(null_a, null_b, 0.05).significant
        if planted_hit and null_quiet:
            correct += 1
    discrimination_ok = correct >= 95

    ok = symmetry_ok and identical_ok and discrimination_ok
    _report(6, "welch symmetry, identical-group p=1, planted-effect discrimination",
            ok, f"{correct}/100 fixtures correct")
    assert ok


# --- 7: close-game boundary ---------------------------------------------------

def test_criterion_07_close_game_boundary():
    five = make_game(home_score=80, away_score=75)
    six = make_game(home_score=81, away_score=75)
    ok = is_close_game(five) and not is_close_game(six)
    _report(7, "margin 5 close, margin 6 not", ok)
    assert ok


# --- 8: round-trip determinism --------------------------------------------------

def test_criterion_08_round_trip_determinism():
    season = build_season()
    games_text, lines_text = serialize_csv(season)
    csv_again = parse_csv(games_text, lines_text)
    csv_ok = csv_again == season and serialize_csv(csv_again) == (games_text, lines_text)

    json_text = serialize_json(season)
    json_again = parse_json(json_text)
    json_ok = json_again == season and serialize_json(json_again) == json_text

    weights = WeightConfig.defaults()
    table = rank_players(season, "rend", weights, per_minute=True, min_games=1)
    renders_ok = all(
        render(table, fmt)
        == render(rank_players(build_season(), "rend", weights, per_minute=True, min_games=1), fmt)
        for fmt in ("csv", "json", "text")
    )
    ok = csv_ok and json_ok and renders_ok
    _report(8, "CSV/JSON round-trip identity and byte-identical renders", ok)
    assert ok


# --- 9: scale invariance --------------------------------------------------------

def test_criterion_09_scale_invariance():
    series = [0.41, 0.52, 0.47, 0.66, 0.58, 0.49]
    base = summarize(series).regularity
    regularity_ok = all(
        abs(summarize([k * v for v in series]).regularity - base) <= 1e-12 * abs(base)
        for k in (1e-6, 0.25, 3.0, 7.5, 1e6)
    )

    season = build_season()
    weights = WeightConfig.defaults()
    ranking_ok = True
    for k in (0.5, 2.0, 4.0, 3.0):
        for metric, per_min in (("rend", False), ("rend", True), ("valoracion", False)):
            base_table = rank_players(season, metric, weights, per_minute=per_min, min_games=1)
            moved_table = rank_players(
                season, metric, weights.scaled(k), per_minute=per_min, min_games=1
            )
            if [r[:2] for r in base_table.rows] != [r[:2] for r in moved_table.rows]:
                ranking_ok = False
    ok = regularity_ok and ranking_ok
    _report(9, "regularity scale-invariant, rankings weight-scale-invariant", ok)
    assert ok


# --- 10: performance on a full synthetic season ---------------------------------

def _synthetic_season(n_players: int = 221, rounds: int = 34) -> Dataset:
    """A full league: 18 teams, 34 rounds, every player plays every round."""
    rng = random.Random(42)
    teams = [f"T{i:02d}" for i in range(18)]
    rosters = {team: [] for team in teams}
    for p in range(n_players):
        rosters[teams[p % len(teams)]].append(f"p{p:03d}")
    games: dict[str, GameMeta] = {}
    lines: list[BoxscoreLine] = []
    start = date(2013, 10, 5)
    for rnd in range(rounds):
        order = teams[:]
        rng.shuffle(order)
        for g in range(len(teams) // 2):
            home, away = order[2 * g], order[2 * g + 1]
            home_score = rng.randint(60, 100)
            away_score = rng.randint(60, 100)
            while away_score == home_score:
                away_score = rng.randint(60, 100)
            gid = f"R{rnd:02d}G{g}"
            games[gid] = GameMeta(
                game_id=gid,
                date=start + timedelta(days=7 * rnd),
                competition="liga",
                home_team=home,
                away_team=away,
                home_score=home_score,
                away_score=away_score,
            )
            for team in (home, away):
                for i, player_id in enumerate(rosters[team]):
                    lines.append(BoxscoreLine(
                        player_id=player_id,
                        player_name=player_id.upper(),
                        team=team,
                        game_id=gid,
                        minutes=round(rng.uniform(4.0, 36.0), 2),
                        t2c=rng.randint(0, 9), t2f=rng.randint(0, 8),
                        t3c=rng.randint(0, 5), t3f=rng.randint(0, 6),
                        t1c=rng.randint(0, 8), t1f=rng.randint(0, 4),
                        rd=rng.randint(0, 9), ro=rng.randint(0, 5),
                        a=rng.randint(0, 9), br=rng.randint(0, 4),
                        bp=rng.randint(0, 5), tf=rng.randint(0, 3),
                        tr=rng.randint(0, 2), fpc=rng.randint(0, 5),
                        fpr=rng.randint(0, 6),
                        plus_minus=rng.randint(-20, 20),
                        starter=i < 5,
                    ))
    return Dataset(games=games, lines=tuple(lines))


def test_criterion_10_full_pipeline_under_five_seconds():
    season = _synthetic_season()
    assert len(season.lines) == 221 * 34

    start = time.perf_counter()
    games_text, lines_text = serialize_csv(season)
    parsed = parse_csv(games_text, lines_text)            # validate
    weights = WeightConfig.defaults()
    rank_players(parsed, "valoracion", weights, per_minute=True, min_games=10)
    regularity_table(parsed, "rend", weights, per_minute=True, min_games=10)
    correlation_table(parsed, [("valoracion", "points"), ("rend", "points")],
                      weights, min_games=10)
    elapsed = time.perf_counter() - start

    filtered = filter_min_games(parsed, 10)
    ok = elapsed < 5.0 and len(filtered.player_ids()) == 221
    _report(10, "validate+rank+regularity+correlate on 221x34 season", ok,
            f"{elapsed:.2f}s")
    assert ok
