"""Every function or class the benchmark declares a per-layer metric for is
still a public name of its fluctlab module, so a change that deletes or
renames one fails here rather than only in the benchmark's own tests.
BENCHMARK.json is read, never written."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
MODULES = {"kernels": "_kernels"}  # metric layer -> module, where they differ


def _declared_names():
    """The "<layer>.<name>" of every "<layer>.<name>.calls" metric."""
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    return [m["name"].removesuffix(".calls") for m in metrics if m["name"].endswith(".calls")]


def test_the_benchmark_declares_call_counts():
    assert len(_declared_names()) >= 20


@pytest.mark.parametrize("declared", _declared_names())
def test_declared_name_is_public_in_its_module(declared):
    layer, name = declared.split(".")
    module = importlib.import_module(f"fluctlab.{MODULES.get(layer, layer)}")
    obj = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(obj) or inspect.isclass(obj), f"{module.__name__}.{name} is gone"
