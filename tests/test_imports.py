"""What importing the package, and running one CLI command, loads."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxmetrics
from boxmetrics.ingest import serialize_json
from conftest import build_season

MODULES = ("model", "ingest", "indices", "stats", "splits", "report")
ANALYSIS = tuple(
    f"boxmetrics.{name}" for name in ("indices", "stats", "splits", "report", "distributions")
)
# Standard-library modules no command needs; their import alone cost each
# command several milliseconds.
UNUSED = ("dataclasses", "inspect", "logging", "decimal")

# Runs the CLI as ``python -m boxmetrics.cli`` does, on the arguments given
# (none: a bare import), and prints the exit code and the loaded modules.
PROBE = """
import json, runpy, sys
code = None
if len(sys.argv) > 1:
    sys.argv = ["boxmetrics", *sys.argv[1:]]
    try:
        runpy.run_module("boxmetrics.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import boxmetrics.cli
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_every_export_is_the_object_of_its_module():
    modules = [importlib.import_module(f"boxmetrics.{name}") for name in MODULES]
    for name in boxmetrics.__all__:
        value = getattr(boxmetrics, name)
        owners = [vars(module)[name] for module in modules if name in vars(module)]
        assert owners and all(owner is value for owner in owners), name
    assert set(boxmetrics.__all__) <= set(dir(boxmetrics))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        boxmetrics.no_such_name


def test_star_import_binds_every_export():
    namespace: dict[str, object] = {}
    exec("from boxmetrics import *", namespace)
    assert set(boxmetrics.__all__) <= set(namespace)


def _loaded(*argv: str) -> set[str]:
    """The modules a fresh process holds after running the CLI on ``argv``."""
    paths = [str(Path(boxmetrics.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    # -S: a site hook of the environment may import anything; what counts
    # here is what the package imports.
    cmd = [sys.executable, "-S", "-c", PROBE, *argv]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    assert code in (None, 0), out.stderr
    return set(modules)


@pytest.fixture
def season_json(tmp_path: Path) -> str:
    path = tmp_path / "season.json"
    path.write_text(serialize_json(build_season()), encoding="utf-8")
    return str(path)


def test_bare_import_and_validate_load_no_analysis_layer(season_json):
    for modules in (_loaded(), _loaded("validate", "--json", season_json)):
        assert "boxmetrics.ingest" in modules
        assert modules.isdisjoint((*ANALYSIS, *UNUSED, "hashlib"))


def test_a_split_loads_no_unused_standard_module(season_json):
    modules = _loaded("splits", "p1", "rend_per_minute", "win_loss", "--format", "json",
                      "--json", season_json)
    assert "boxmetrics.splits" in modules and modules.isdisjoint(UNUSED)


def test_no_report_command_loads_the_openssl_hash_module(season_json, tmp_path):
    """Each command prints the weights fingerprint; its SHA-256 comes from the
    interpreter's own module, not from ``hashlib`` and OpenSSL's libcrypto."""
    for argv in (
        ("splits", "p1", "rend_per_minute", "win_loss", "--format", "json"),
        ("rank", "rend", "--format", "csv", "--min-games", "1"),
        ("report-all", "--min-games", "1", "--out", str(tmp_path / "reports")),
    ):
        modules = _loaded(*argv, "--json", season_json)
        assert modules.isdisjoint(("hashlib", "_hashlib")), argv
    assert len(list((tmp_path / "reports").iterdir())) == 20
