"""Every layer function the benchmark traces by name stays a public function.

``BENCHMARK.json`` names per-layer metrics ``<layer>.<function>.calls`` and
``.self_ms``.  The benchmark's tracer wraps the functions listed in each
``trigreg.<layer>.__all__`` (and ``cli.main``) and defined in that module, so
a traced name that leaves ``__all__`` or becomes an alias makes a traced
benchmark run fail on the missing metric.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TRACED = sorted({
    tuple(entry["name"].split(".")[:2])
    for entry in json.loads(SPEC.read_text())["per_layer"]
    if entry["name"].endswith((".calls", ".self_ms"))
})


def test_benchmark_traces_every_layer():
    assert {layer for layer, _ in TRACED} == {
        "approximant", "cli", "experiment", "grid", "penalty", "selection"
    }


@pytest.mark.parametrize("layer, name", TRACED, ids=[".".join(pair) for pair in TRACED])
def test_traced_name_is_a_public_function_of_its_layer(layer, name):
    module = importlib.import_module(f"trigreg.{layer}")
    if layer != "cli":  # the tracer takes cli.main alone, not cli's __all__
        assert name in module.__all__
    func = getattr(module, name, None)
    assert inspect.isfunction(func)
    assert func.__module__ == module.__name__
