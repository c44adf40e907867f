"""The 288-case pick gate: what every strategy chooses on a fixed set of rows.

Each case is one gallery signal, a sample count N in {101, 501, 2001}, an
SNR level of 10..80 dB and a noise seed in {0, 1}: 6 * 3 * 8 * 2 = 288
rows.  Each row is analyzed once (degree (N-1)/2, s = 1, the default
parameter grid) and every strategy runs on that one path through
``run_strategies``, with Morozov refined and the oracle evaluated on
K = 10**4 points.  Per case the golden file holds, for each strategy, its
grid index or its failure message, and J, V and F at its index; for Morozov
also the refined lambda as ``repr``.

``tests/test_pick_gate.py`` recomputes the set and compares it with the
golden file.  Regenerate that file only to move picks on purpose:

    PYTHONPATH=src python3 tests/data/pick_gate.py

which rewrites ``tests/data/pick_gate.json`` next to this script.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import trigreg as tr

GOLDEN = Path(__file__).resolve().parent / "pick_gate.json"
SIZES = (101, 501, 2001)
LEVELS = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0)
SEEDS = (0, 1)
EVAL_POINTS = 10_000


def case_key(name: str, n: int, snr_db: float, seed: int) -> str:
    return f"{name}/n{n}/{snr_db:g}dB/seed{seed}"


def compute_cases() -> dict:
    """Every case's picks, keyed by :func:`case_key`, in the golden file's shape."""
    params = tr.parameter_grid()
    cases = {}
    for name in tr.gallery_names():
        func = tr.gallery(name)
        truth = tr.uniform_rfft(func(tr.uniform_eval_points(EVAL_POINTS)))
        for n in SIZES:
            grid, degree = tr.make_grid(n), (n - 1) // 2
            penalty = tr.laplace_penalty(degree)
            clean = func(grid.nodes)
            for snr_db in LEVELS:
                for seed in SEEDS:
                    realization = tr.add_noise_snr(clean, snr_db, seed)
                    path = tr.RegularizationPath.from_samples(
                        realization.noisy, grid, degree, penalty, params.lambdas
                    )
                    reports, failures = tr.run_strategies(
                        path, params, list(tr.STRATEGIES), noise_norm=realization.eps_wnorm,
                        truth=truth, refine=True,
                    )
                    j_vals, v_vals = path.residual_sq(), path.gcv()
                    f_vals = j_vals - realization.eps_wnorm**2
                    case = {}
                    for strategy in tr.STRATEGIES:
                        if strategy in failures:
                            case[strategy] = {"failure": failures[strategy]}
                            continue
                        report = reports[strategy]
                        k = report.chosen_index
                        case[strategy] = {"index": k, "J": float(j_vals[k]),
                                          "V": float(v_vals[k]), "F": float(f_vals[k])}
                        if strategy == "morozov":
                            case[strategy]["lambda"] = repr(report.chosen_lambda)
                    cases[case_key(name, n, snr_db, seed)] = case
    return cases


if __name__ == "__main__":
    cases = compute_cases()
    lines = (f"{json.dumps(key)}: {json.dumps(case, sort_keys=True)}" for key, case in sorted(cases.items()))
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one case per line
    print(f"wrote {len(cases)} cases to {GOLDEN}")
