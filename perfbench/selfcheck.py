"""Checks of the benchmark itself, run from the repository root.

    python3 perfbench/selfcheck.py

1. ``gen.synthetic_season`` at seed 42 writes the same CSV bytes as
   ``serialize_csv(tests/test_acceptance.py::_synthetic_season(n, 34))`` for
   n = 221 and n = 884 (needs ``tests/`` and pytest).
2. A traced ``report-all --format text`` on the season_report input at
   seed 42 makes exactly the calls in ``PROFILE``, the profile of the
   program taken when the benchmark was defined. A change that removes work
   is expected to move these counts; the check then shows by how much.

Exits 1 if either check fails.
"""

from __future__ import annotations

import hashlib
import io
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gen
import tracer
from workloads import WORKLOADS, write_inputs

ROOT = Path.cwd()
PROFILE = {
    "ingest.lines_for_calls": 9_724,
    "indices.series_calls": 4_199,
    "indices.metric_evals": 172_822,
    "indices.evals_per_line": 23.0,
    "ingest.filter_calls": 21,
    "ingest.dataset_builds": 22,
    "splits.compare_calls": 884,
    "report.render_calls": 20,
    "lines_returned": 330_616,
    "lines_scanned": 73_066_136,
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_generator() -> bool:
    sys.path[:0] = [str(ROOT / "tests")]
    from boxmetrics.ingest import serialize_csv
    from test_acceptance import _synthetic_season

    ok = True
    for players in (221, 884):
        ours = [sha(t) for t in gen.to_csv(gen.synthetic_season(42, players, 34))]
        theirs = [sha(t) for t in serialize_csv(_synthetic_season(players, 34))]
        same = ours == theirs
        ok &= same
        print(f"generator {players}x34: lines.csv sha256 {ours[1][:16]} vs test helper "
              f"{theirs[1][:16]}: {'same' if same else 'DIFFERENT'}")
    return ok


def check_profile() -> bool:
    from boxmetrics import cli

    work = ROOT / ".perfbench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    write_inputs(WORKLOADS["season_report"], 42, work)
    data = work / "full"
    argv = ["report-all", "--format", "text", "--out", str(work / "reports"),
            "--games", str(data / "games.csv"), "--lines", str(data / "lines.csv")]
    spans = tracer.Tracer()
    spans.install()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        spans.uninstall()
    lines = sum(1 for _ in open(data / "lines.csv", encoding="utf-8")) - 1
    got = tracer.layer_metrics(spans, lines, 0, 0.0)
    got["lines_returned"] = spans.lines_returned
    got["lines_scanned"] = spans.lines_scanned
    ok = code == 0
    for name, want in PROFILE.items():
        same = got[name] == want
        ok &= same
        print(f"report-all seed 42 {name:24s} {got[name]:>12,} profile {want:>12,}"
              f"{'' if same else '  DIFFERENT'}")
    return ok


def main() -> int:
    sys.path[:0] = [str(ROOT / "src")]
    ok = check_profile()
    if (ROOT / "tests" / "test_acceptance.py").is_file():
        ok &= check_generator()
    else:
        print("generator check skipped: no tests/test_acceptance.py")
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
