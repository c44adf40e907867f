"""The 288-case pick gate: every strategy keeps the golden file's picks.

The cases and the golden file's shape are defined in ``tests/data/pick_gate.py``.
Indices and failures must be equal, the refined Morozov lambda within 1e-10
relative, and J, V and F at each pick within 1e-12 relative.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pick_gate", Path(__file__).resolve().parent / "data" / "pick_gate.py"
)
pick_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pick_gate)

GOLDEN = json.loads(pick_gate.GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return pick_gate.compute_cases()


def test_gate_covers_every_case(computed):
    assert len(GOLDEN) == 288
    assert sorted(computed) == sorted(GOLDEN)


@pytest.mark.parametrize("size", pick_gate.SIZES)
def test_picks_match_the_golden_file(computed, size):
    for key, golden in GOLDEN.items():
        if f"/n{size}/" not in key:
            continue
        case = computed[key]
        assert sorted(case) == sorted(golden), key
        for strategy, want in golden.items():
            got = case[strategy]
            where = f"{key} {strategy}"
            assert got.get("failure") == want.get("failure"), where
            assert got.get("index") == want.get("index"), where
            if "lambda" in want:
                assert math.isclose(float(got["lambda"]), float(want["lambda"]), rel_tol=1e-10), where
            for column in ("J", "V", "F"):
                if column in want:
                    assert math.isclose(got[column], want[column], rel_tol=1e-12), f"{where} {column}"
