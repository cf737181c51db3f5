"""The benchmark's traced run patches named functions; each must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span,target", sorted(_targets().items()))
def test_trace_target_resolves(span, target):
    module_name, attr = target
    owner = importlib.import_module(f"boxmetrics.{module_name}")
    if "." in attr:
        # The tracer patches a method found in its class's own namespace.
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method)), span
    else:
        assert callable(getattr(owner, attr, None)), span
