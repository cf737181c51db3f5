"""What importing the package, and running one CLI command, loads."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
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


# Every public name of the package, and the public attributes that each
# exported class defines in its own namespace or in a package base (not those
# it inherits from tuple or Exception). A name leaves this list on purpose only.
PUBLIC_NAMES = [
    "BoxscoreLine", "ConstantInputError", "CorrelationTest", "DEFAULT_CLOSE_THRESHOLD",
    "DEFAULT_WEIGHTS", "DEFENSIVE_KEYS", "Dataset", "EmptyAfterFilterError", "EmptySeriesError",
    "GameMeta", "IndexValue", "IngestError", "InsufficientSplitError", "LengthMismatchError",
    "METRICS", "MetricSeries", "OFFENSIVE_KEYS", "PlayerSetMismatchError", "Provenance",
    "RankedTable", "SPLIT_KINDS", "STAT_KEYS", "SeriesSummary", "SplitComparison",
    "SplitLabel", "Table", "TiedScoreError", "TooFewSamplesError", "UnknownPlayerError",
    "UnknownTeamError", "WeightConfig", "ZeroMinutesError", "comparable_means",
    "correlation_significance", "correlation_table", "defensive_index", "derived_points",
    "filter_min_games", "game_outcome", "is_close_game", "kendall_tau", "load_dataset",
    "metric_value", "offensive_index", "parse_csv", "parse_json", "pearson",
    "per_minute", "player_series", "plus_minus_overview", "plus_minus_summary",
    "rank_delta", "rank_players", "rank_values", "regularity_table", "render", "rendimiento",
    "serialize_csv", "serialize_json", "spearman", "split_compare", "summarize",
    "valoracion_acb", "welch_test", "win_loss_table",
]
CLASS_ATTRIBUTES = {
    "BoxscoreLine": [
        "a", "bp", "br", "dnp", "fpc", "fpr", "game_id", "minutes", "player_id", "player_name",
        "plus_minus", "rd", "ro", "starter", "t1c", "t1f", "t2c", "t2f", "t3c", "t3f", "team",
        "tf", "tr",
    ],
    "ConstantInputError": [],
    "CorrelationTest": ["alpha", "exact", "kind", "n", "p_value", "r", "significant", "statistic"],
    "Dataset": ["lines", "lines_for", "player_ids"],
    "EmptyAfterFilterError": [],
    "EmptySeriesError": [],
    "GameMeta": [
        "away_score", "away_team", "competition", "date", "game_id", "home_score", "home_team",
        "margin",
    ],
    "IndexValue": [
        "game_id", "id_raw", "io_raw", "minutes", "player_id", "rend_raw", "valoracion_raw",
    ],
    "IngestError": [],
    "InsufficientSplitError": [],
    "LengthMismatchError": [],
    "MetricSeries": ["game_ids", "metric_name", "player_id", "values"],
    "PlayerSetMismatchError": [],
    "Provenance": ["format", "source"],
    "RankedTable": [
        "columns", "display_decimals", "meta", "metric_name", "player_ids", "rank_of", "rows",
        "title",
    ],
    "SeriesSummary": ["constant_series", "mean", "n", "regularity", "sd_population", "sd_sample"],
    "SplitComparison": [
        "alpha", "degenerate", "group_a_label", "group_b_label", "mean_a", "mean_b", "metric_name",
        "n_a", "n_b", "p_value", "significant", "t_stat",
    ],
    "SplitLabel": ["kind", "side"],
    "Table": ["columns", "display_decimals", "meta", "rows", "title"],
    "TiedScoreError": [],
    "TooFewSamplesError": [],
    "UnknownPlayerError": [],
    "UnknownTeamError": [],
    "WeightConfig": [
        "defaults", "fingerprint", "from_json", "scaled", "to_json", "with_overrides",
    ],
    "ZeroMinutesError": [],
}


def test_public_names_and_class_attributes_are_pinned():
    assert sorted(boxmetrics.__all__) == PUBLIC_NAMES
    attributes = {}
    for name in PUBLIC_NAMES:
        value = getattr(boxmetrics, name)
        if isinstance(value, type):
            attributes[name] = sorted({
                attr
                for cls in value.__mro__ if cls.__module__.startswith("boxmetrics")
                for attr in vars(cls) if not attr.startswith("_")
            })
    assert attributes == CLASS_ATTRIBUTES


def _named(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_function_and_class_is_named_outside_itself():
    # A top-level function or class, or a private module constant, that no
    # code of the package names other than its own statement, is dead; the
    # exports are named by their callers. So is a module-level import that no
    # code of its own module names.
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(boxmetrics.__file__).parent.glob("*.py"))
    ]
    named = sum(map(_named, trees), Counter())
    unused = [
        node.name
        for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in boxmetrics.__all__
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == _named(node)[node.name]
    ]
    for tree in trees:
        in_module = _named(tree)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unused += [
                    name.id
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and name.id.startswith("_")
                    and not name.id.endswith("__") and named[name.id] == _named(node)[name.id]
                ]
            elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [name for name in bound if not in_module[name]]
    assert unused == []


def _private(*names: str) -> bool:
    """Whether any of ``names`` (a module, class or function) is private."""
    return any(name.startswith("_") and not name.endswith("__") for name in names)


def _name_of(node: ast.AST) -> str | None:
    """The name a variable or an attribute reads."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _defaulted(function: ast.FunctionDef, bound: int) -> list[tuple[str, int | None]]:
    """Each parameter of ``function`` that has a default, with its position in
    a call once the first ``bound`` are bound, or None if it is keyword-only."""
    positional = [arg.arg for arg in function.args.posonlyargs + function.args.args]
    first = len(positional) - len(function.args.defaults)
    keyword_only = zip(function.args.kwonlyargs, function.args.kw_defaults)
    return [(name, i - bound) for i, name in enumerate(positional) if i >= first] + [
        (arg.arg, None) for arg, default in keyword_only if default is not None
    ]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``, or may
    (through ``*args`` or ``**kwargs``)."""
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (starred or len(call.args) > position)


def test_every_defaulted_parameter_of_a_private_function_is_passed():
    # A parameter with a default, of a private function or method, that no
    # call in the package passes, by position or by keyword, is a knob no code
    # turns. A function that is named other than as the callee of a call
    # (given to partial() or map(), say) may be called any way; it is skipped.
    calls, named_otherwise, functions = {}, set(), []
    for path in sorted(Path(boxmetrics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        for call in found:
            calls.setdefault(_name_of(call.func), []).append(call)
        callees = set(map(id, (call.func for call in found)))
        named_otherwise.update(
            _name_of(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees
        )
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node, 0, _private(path.stem, node.name)))
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef):
                    static = "staticmethod" in map(_name_of, method.decorator_list)
                    private = _private(path.stem, node.name, method.name)
                    functions.append((method, 0 if static else 1, private))
    unused = [
        f"{function.name}({name})"
        for function, bound, private in functions
        if private and not function.name.startswith("__")
        and function.name not in named_otherwise
        for name, position in _defaulted(function, bound)
        if not any(_passes(call, name, position) for call in calls.get(function.name, ()))
    ]
    assert unused == []


def test_no_value_is_squared_with_the_power_operator():
    # For a float, x ** 2 calls the C library's pow, which need not round
    # correctly, so its last bits may differ between platforms; x * x is the
    # correctly rounded square everywhere.
    squares = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(boxmetrics.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant) and node.right.value == 2
    ]
    assert squares == []


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
