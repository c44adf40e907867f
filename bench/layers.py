"""Time each layer of a select/approximate command on its own, from N = 501 to 10**6 + 1.

Usage, from the repository root (stdlib and numpy only):

    python3 bench/layers.py [--src /path/to/another/src] [--sizes 501,4001]

For each sample count N (default 501, 4001, 10**5 + 1 and 10**6 + 1) it
builds one noisy f1 row (20 dB, seed N, s = 1, default parameter grid,
T = 400) and reports the median wall time in ms of:

* ``projection``: ``grid.uniform_projection`` of the N samples (the
  coefficients and the remainder r0);
* ``path_sums``: the path scan, ``RegularizationPath._sums`` on a fresh
  path, which every diagnostic of the L-curve, GCV and Morozov reads;
* ``l2_error``: the oracle's L2 curve over all T lambdas, against the
  projection of f1 on K = max(10**4, N) points;
* ``morozov_bisection``: Morozov with refinement on a path whose sums are
  already cached, so what remains is the bisection (|F| <= 1e-10 * delta**2
  or 60 steps of one O(L) residual each) and the noise bounds;
* ``synthesis``: ``grid.uniform_synthesis`` of the Morozov solution on the N
  nodes (the CLI's node residual);
* ``write_csv``: ``cli._write_csv`` of the evaluation-shaped table, N rows
  of two float columns, into a temporary directory.

Work outside the timed call, such as sampling f1, is done once.  Large N
gets fewer repeats.  ``--src`` imports ``trigreg`` from another source tree,
so two trees can be compared on one machine.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (501, 4001, 100_001, 1_000_001)


def _median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layer_calls(trigreg, n: int, workdir: str) -> dict:
    """No-argument calls of each timed layer on one noisy f1 row of N samples."""
    from trigreg import cli, selection

    grid, degree = trigreg.make_grid(n), (n - 1) // 2
    func = trigreg.gallery("f1")
    realization = trigreg.add_noise_snr(func(grid.nodes), 20.0, seed=n)
    params = trigreg.parameter_grid()
    path = trigreg.RegularizationPath.from_samples(
        realization.noisy, grid, degree, trigreg.laplace_penalty(degree), params.lambdas
    )
    truth = trigreg.uniform_projection(func(trigreg.uniform_eval_points(max(10_000, n))), degree)
    path._sums  # cached from here on: the Morozov call below then times its bisection
    morozov = selection.STRATEGIES["morozov"].run
    alpha = path.alpha(morozov(path, params, noise_norm=realization.eps_wnorm).chosen_lambda)
    x, values = trigreg.uniform_eval_points(n), trigreg.uniform_synthesis(alpha, n)
    table = os.path.join(workdir, "evaluation.csv")

    def fresh_sums():
        return trigreg.RegularizationPath(path.coeffs, path.beta_sq, path.lambdas, path.r0, n)._sums

    return {
        "projection": lambda: trigreg.uniform_projection(realization.noisy, degree),
        "path_sums": fresh_sums,
        "l2_error": lambda: path.l2_error(*truth),
        "morozov_bisection": lambda: morozov(path, params, noise_norm=realization.eps_wnorm),
        "synthesis": lambda: trigreg.uniform_synthesis(alpha, n),
        "write_csv": lambda: cli._write_csv(table, {"n_points": n}, ["x", "p"], [x, values]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import trigreg from")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)),
                        help="comma-separated odd sample counts N")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import trigreg

    report = {"python": sys.version.split()[0], "numpy": np.__version__, "lambdas": 400, "rows_ms": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for n in (int(size) for size in args.sizes.split(",")):
            calls = layer_calls(trigreg, n, workdir)
            repeats = 15 if n < 10_000 else 5 if n < 500_000 else 3
            row = {}
            for name, call in calls.items():
                call()  # warm-up: FFT plan caches, allocator
                row[name] = round(_median_ms(call, repeats), 3)
            report["rows_ms"][f"N={n}"] = row
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
