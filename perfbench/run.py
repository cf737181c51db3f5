"""Benchmark of the boxmetrics CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

With ``--trace 0`` every command runs as a user runs it: a fresh
``python -m boxmetrics.cli`` process with ``src`` on ``PYTHONPATH``, one
child at a time, timed from spawn to exit, peak RSS from ``os.wait4``.
Repetitions of the workload's command chain (each command at full size, then
at quarter size) run until the next one would end after ``--seconds``; each
command's time is its median over repetitions. With ``--trace 1`` the
full-size chain runs in this process, each command once untraced and once
under ``tracer.Tracer``, and the per-layer metrics come from the traced
runs; ``--seconds`` is not used. Every command's output is checked
(``checks.py``) and its sha256 is written to the results file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs, outputs and
results are written under ``.perfbench_work/`` in the current directory.
``--all`` runs every workload with and without tracing and prints every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracer
from workloads import WORKLOADS, Command, Workload, commands

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SIZES = ("full", "quarter")
# setup_s samples are spread over the run, one before a command whenever
# SETUP_INTERVAL_S has passed, so the median is not set by the machine's
# state during one second; at least SETUP_SAMPLES are taken.
SETUP_SAMPLES = 7
SETUP_INTERVAL_S = 1.0
COMMAND_TIMEOUT_S = 120
# The first command of every chain is validate, a short command. It runs
# this many times per repetition, so its median (validate_s) rests on more
# samples.
VALIDATE_SAMPLES = 3
# wide_league's chain takes about half of --seconds; at least two
# repetitions keep one slow sample from setting its times alone.
MIN_REPETITIONS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "scale_ratio": "ratio",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    exit_code: int
    seconds: float
    rss_mb: float
    digest: str  # sha256 over stdout and any report files
    files: dict[str, str]  # output name -> sha256


def child_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict[str, str]):
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = select.select([pidfd], [], [], COMMAND_TIMEOUT_S)[0]
        finally:
            os.close(pidfd)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    elapsed = perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024.0


def digest_outputs(stdout: Path, cmd: Command) -> tuple[str, dict[str, str]]:
    files = {"stdout": hashlib.sha256(stdout.read_bytes()).hexdigest()}
    if cmd.out_dir:
        for path in sorted(Path(cmd.out_dir).iterdir()):
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    combined = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
    return combined, files


def prepare(workload: Workload, seed: int, work: Path) -> dict:
    """Generate the inputs in a child process and return their description."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent)}
    code, _, _ = spawn([sys.executable, str(Path(__file__).parent / "workloads.py"),
                        workload.name, str(seed), str(work / "data")],
                       work / "generate.out", work / "generate.err", env)
    if code != 0:
        raise SystemExit(f"input generation failed:\n{(work / 'generate.err').read_text()}")
    return json.loads((work / "data" / "meta.json").read_text(encoding="utf-8"))


def chains(workload: Workload, work: Path, meta: dict) -> dict[str, list[Command]]:
    return {size: commands(workload, work / "data" / size, work / "out" / size, meta[size])
            for size in SIZES}


def stdout_path(work: Path, size: str, index: int) -> Path:
    return work / "out" / size / f"{index:02d}.stdout"


def run_child_command(cmd: Command, stdout: Path, env: dict[str, str]) -> Outcome:
    if cmd.out_dir:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
    argv = [sys.executable, "-m", "boxmetrics.cli", *cmd.argv]
    code, seconds, rss = spawn(argv, stdout, stdout.with_suffix(".stderr"), env)
    return Outcome(code, seconds, rss, *digest_outputs(stdout, cmd))


def check_outcomes(workload: Workload, seed: int, work: Path, chain_of: dict,
                   runs: list[dict[str, list[list[Outcome]]]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command run.

    ``runs[r][size][i]`` holds the outcomes of command ``i`` in repetition
    ``r``. The files on disk are those of the last run of each command; an
    earlier run passes only if its outputs are byte-identical to the last.
    """
    attempted = failed = 0
    problems: list[str] = []
    for size, chain in chain_of.items():
        expected = checks.Expected(workload.season(seed, size))
        for i, cmd in enumerate(chain):
            outcomes = [o for run in runs for o in run[size][i]]
            last = outcomes[-1]
            found = checks.check(cmd.argv, last.exit_code, stdout_path(work, size, i).read_bytes(),
                                 cmd.out_dir, expected)
            problems += [f"{size} {' '.join(cmd.argv[:4])}: {p}" for p in found]
            attempted += len(outcomes)
            failed += sum(bool(found) or o.digest != last.digest for o in outcomes)
    return attempted, failed, problems


def timed_run(workload: Workload, seed: int, seconds: float, work: Path, meta: dict) -> dict:
    env = child_env()
    chain_of = chains(workload, work, meta)
    for size in SIZES:
        (work / "out" / size).mkdir(parents=True, exist_ok=True)
        # Untimed warm-up: compiles bytecode and reads the inputs into the file cache.
        run_child_command(chain_of[size][0], stdout_path(work, size, 0), env)
    setup: list[tuple[int, float, float]] = []
    last_setup = -SETUP_INTERVAL_S

    def measure_setup() -> None:
        nonlocal last_setup
        setup.append(spawn([sys.executable, "-c", "import boxmetrics.cli"], work / "setup.out",
                           work / "setup.err", env))
        last_setup = perf_counter()

    def repetition() -> dict[str, list[list[Outcome]]]:
        # Each full-size command is followed at once by its quarter-size
        # twin, so both sides of scale_ratio see the same machine state.
        rep: dict[str, list[list[Outcome]]] = {size: [] for size in SIZES}
        for i, cmd in enumerate(chain_of["full"]):
            if perf_counter() - last_setup >= SETUP_INTERVAL_S:
                measure_setup()
            samples = {size: [] for size in SIZES}
            for _ in range(VALIDATE_SAMPLES if cmd.name == "validate" else 1):
                for size in SIZES:
                    samples[size].append(run_child_command(
                        chain_of[size][i], stdout_path(work, size, i), env))
            for size in SIZES:
                rep[size].append(samples[size])
        return rep

    runs: list[dict[str, list[list[Outcome]]]] = []
    start = perf_counter()
    while True:
        rep_start = perf_counter()
        runs.append(repetition())
        rep_s = perf_counter() - rep_start
        if len(runs) >= MIN_REPETITIONS and perf_counter() - start + rep_s > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        measure_setup()

    attempted, failed, problems = check_outcomes(workload, seed, work, chain_of, runs)
    # Each command's time is its median over repetitions, so one slow sample
    # in one command does not move the sums.
    median_s = {size: [statistics.median(o.seconds for run in runs for o in run[size][i])
                       for i in range(len(chain_of[size]))] for size in SIZES}
    total = sum(median_s["full"])
    per_command: dict[str, float] = {}
    for cmd, elapsed in zip(chain_of["full"], median_s["full"]):
        per_command[f"{cmd.name}_s"] = per_command.get(f"{cmd.name}_s", 0.0) + elapsed
    metrics = {
        "setup_s": statistics.median(s for _, s, _ in setup),
        "total_s": total,
        "scale_ratio": total / sum(median_s["quarter"]),
        "lines_per_s": len(chain_of["full"]) * meta["full"]["lines"] / total,
        "peak_rss_mb": max(o.rss_mb for run in runs for size in SIZES
                           for samples in run[size] for o in samples),
    }
    if any(code != 0 for code, _, _ in setup):
        problems.append("import boxmetrics.cli failed")
        failed += 1
    return {
        "repetitions": len(runs),
        "metrics": metrics,
        "setup_samples_s": [s for _, s, _ in setup],
        "per_command_s": per_command,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "outputs": {size: [{"argv": list(cmd.argv), "sha256": runs[-1][size][i][-1].files,
                            "seconds": [o.seconds for run in runs for o in run[size][i]],
                            "rss_mb": [o.rss_mb for run in runs for o in run[size][i]]}
                           for i, cmd in enumerate(chain_of[size])]
                    for size in SIZES},
    }


def run_in_process(cli, cmd: Command, stdout: Path) -> Outcome:
    if cmd.out_dir:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    seconds = perf_counter() - start
    stdout.write_bytes(out.getvalue().encode("utf-8"))
    return Outcome(code, seconds, 0.0, *digest_outputs(stdout, cmd))


def traced_run(workload: Workload, seed: int, work: Path, meta: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from boxmetrics import cli

    chain = chains(workload, work, meta)["full"]
    (work / "out" / "full").mkdir(parents=True, exist_ok=True)
    run_in_process(cli, chain[0], stdout_path(work, "full", 0))  # warm-up
    # Each command runs untraced, then traced, so drift during the run
    # affects both sides of trace.overhead_frac alike.
    spans = tracer.Tracer()
    untraced, traced = [], []
    for i, cmd in enumerate(chain):
        untraced.append(run_in_process(cli, cmd, stdout_path(work, "full", i)))
        spans.install()
        try:
            traced.append(run_in_process(cli, cmd, stdout_path(work, "full", i)))
        finally:
            spans.uninstall()
    untraced_s = sum(o.seconds for o in untraced)
    traced_s = sum(o.seconds for o in traced)

    runs = [{"full": [[u, t] for u, t in zip(untraced, traced)]}]
    attempted, failed, problems = check_outcomes(workload, seed, work, {"full": chain}, runs)
    bytes_written = sum(
        stdout_path(work, "full", i).stat().st_size
        + (sum(p.stat().st_size for p in Path(cmd.out_dir).iterdir()) if cmd.out_dir else 0)
        for i, cmd in enumerate(chain)
    )
    spans_path = WORK / "results" / f"{workload.name}.spans.tsv.gz"
    spans.write(spans_path)
    metrics = tracer.layer_metrics(spans, meta["full"]["lines"], bytes_written,
                                  traced_s / untraced_s - 1.0)
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "outputs": {"full": [{"argv": list(cmd.argv), "sha256": o.files,
                              "untraced_s": u.seconds, "traced_s": o.seconds}
                             for cmd, u, o in zip(chain, untraced, traced)]},
    }


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "boxmetrics" / "cli.py").is_file():
        print(f"error: no boxmetrics sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    meta = prepare(workload, args.seed, work)
    if args.trace:
        result = traced_run(workload, args.seed, work, meta)
        units = tracer.UNITS
    else:
        result = timed_run(workload, args.seed, args.seconds, work, meta)
        units = END_TO_END_UNITS
    environment = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": meta,
    }
    results_path = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps({"environment": environment, **result}, indent=1),
                            encoding="utf-8")

    print(f"# workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"python {environment['python']}  nproc {environment['nproc']}")
    for size in SIZES:
        m = meta[size]
        print(f"# {size:7s} input: {m['players']} players, {m['rounds']} rounds, "
              f"{m['lines']} lines, {m['input_bytes']} bytes")
    if args.trace:
        print(f"# in-process chain: untraced {result['untraced_s']:.3f} s, "
              f"traced {result['traced_s']:.3f} s; spans in {result['spans_file']}")
    else:
        print(f"# {result['repetitions']} repetition(s); per-command medians (not gated): "
              + "  ".join(f"{k} {v:.4f} s" for k, v in result["per_command_s"].items()))
    for name, unit in units.items():
        print(f"{name:32s} {result['metrics'][name]:>16.6g} {unit}")
    print(f"# checks: {result['attempted']} commands, {result['failed']} failed "
          f"(failed_frac {result['failed'] / max(result['attempted'], 1):.4f})")
    for problem in result["problems"][:20]:
        print(f"# FAILED {problem}")
    print(f"# results: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; a summary of every metric at the end."""
    rows, status = [], 0
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            check = "failed_frac" if trace_flag == 0 else "trace.failed_frac"
            rows.append((name, check, result["failed"] / result["attempted"], "ratio"))
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()]
    print(f"\n{'workload':14s} {'metric':32s} {'value':>16s} unit")
    for workload, metric, value, unit in rows:
        print(f"{workload:14s} {metric:32s} {value:>16.6g} {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
