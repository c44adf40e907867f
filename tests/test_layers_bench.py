"""The layer benchmark, ``bench/layers.py``, times two copies of the package side by side."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import trigreg

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("projection", "path_sums", "lcurve", "gcv", "morozov", "l2_error", "uniform_errors",
          "synthesis", "evaluation", "write_evaluation", "write_coefficients", "read_samples")
NAMES = ("layers_bench_this", "layers_bench_other")


@pytest.fixture
def layers():
    spec = importlib.util.spec_from_file_location("layers_bench_script", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(layers):
    try:
        yield [layers.load(ROOT / "src", name) for name in NAMES]
    finally:
        for key in [key for key in sys.modules if key.split(".")[0] in NAMES]:
            del sys.modules[key]


def test_a_size_row_times_every_layer_on_both_trees(layers, trees, tmp_path):
    this, other = trees
    assert this is not other and this.cli is not other.cli
    assert this.RegularizationPath is not other.RegularizationPath
    assert sys.modules["trigreg"] is trigreg

    row = layers.size_row(trees, 101, str(tmp_path))
    assert row["K"] == 10_000
    for name in LAYERS:
        entry = row[name]
        assert entry["ms"] > 0 and entry["other_ms"] > 0, name
        assert math.isfinite(entry["ratio"]) and entry["ratio"] > 0, name
    uniform = row["uniform_errors"]
    assert uniform["irfft_calls"] == uniform["other_irfft_calls"] > 0
    assert uniform["peak_mb"] > 0 and row["write_evaluation"]["other_peak_mb"] > 0


def test_calls_alternate_and_the_first_tree_switches_each_repeat(layers):
    order = []
    times = layers._alternate([lambda: order.append(0), lambda: order.append(1)], 3)
    assert order == [0, 1, 1, 0, 0, 1]
    assert [len(t) for t in times] == [3, 3]


def test_one_tree_entry_has_no_ratio(layers):
    assert layers._entry([{"ms": 2.0, "peak_mb": 1.5}]) == {"ms": 2.0, "peak_mb": 1.5}
    assert layers._entry([{"ms": 2.0}, {"ms": 4.0}]) == {"ms": 2.0, "other_ms": 4.0, "ratio": 0.5}
