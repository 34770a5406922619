"""The benchmark tracer wraps package functions by name; each must still resolve.

Tier-1 never runs the benchmark with tracing on, so a deleted or renamed
traced function would otherwise go unnoticed until the benchmark runs.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{mod}.{name}" for mod, names in module.TARGETS.items() for name in names]


@pytest.mark.parametrize("name", traced_names())
def test_traced_function_resolves(name):
    module, *path = name.split(".")
    owner = importlib.import_module(f"koopmetrics.{module}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)
