"""Time the sweep's uniform-error layer: one row's max |p_lam - f| over the lambda grid.

Usage, from the repository root (stdlib and numpy only):

    python3 bench/uniform_errors.py [--src /path/to/another/src]

For each sample count N in 501 and 4001 and each evaluation grid size K in
10**4 and 10**5 + 1 it builds the regularization path of one noisy f1 row
(20 dB, default parameter grid, T = 400) and reports the median time of
``experiment.uniform_error_curve`` over all T lambdas, as ``sweep`` runs it
with ``emit_curves``, the peak memory one such call allocates
(tracemalloc), and the number of irfft calls in one row with their median
wall time per call (the per-call set-up cost grows with K).  Work done once
per sweep, such as sampling the true function and its real FFT, is outside
the timed call.  ``workers`` is the number of threads the curve spreads
its lambdas over (1 for trees that use one).

``--src`` imports ``trigreg`` from another source tree, so two trees can be
compared on one machine.  Older trees name the function ``_uniform_errors``,
and the oldest take the sampled truth instead of its spectrum; each is called
its own way.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_COUNTS = (501, 4001)
EVAL_POINTS = (10_000, 100_001)


def _median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _irfft_calls(call) -> tuple:
    """Run ``call`` once with each numpy irfft call timed; (calls, median ms per call)."""
    irfft, times = np.fft.irfft, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return irfft(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)  # list.append is thread-safe

    np.fft.irfft = timed
    try:
        call()
    finally:
        np.fft.irfft = irfft
    return len(times), 1e3 * statistics.median(times)


def row_call(trigreg, n: int, k: int):
    """A no-argument call of the uniform-error curve on one sweep row."""
    experiment = trigreg.experiment
    curve = getattr(experiment, "uniform_error_curve", None) or experiment._uniform_errors
    grid, degree = trigreg.make_grid(n), (n - 1) // 2
    func = trigreg.gallery("f1")
    noisy = trigreg.add_noise_snr(func(grid.nodes), 20.0, seed=n).noisy
    lambdas = trigreg.parameter_grid().lambdas
    path = trigreg.RegularizationPath.from_samples(
        noisy, grid, degree, trigreg.laplace_penalty(degree), lambdas
    )
    truth = np.asarray(func(trigreg.uniform_eval_points(k)), dtype=float)
    if "truth_spectrum" in inspect.signature(curve).parameters:
        spectrum = np.fft.rfft(truth)
        return lambda: curve(path, lambdas, spectrum, k)
    return lambda: curve(path, lambdas, truth)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import trigreg from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import trigreg

    lambdas = 400
    worker_count = getattr(trigreg.experiment, "_worker_count", lambda count: 1)
    report = {"python": sys.version.split()[0], "numpy": np.__version__, "lambdas": lambdas,
              "workers": worker_count(lambdas), "rows": {}}
    for n in SAMPLE_COUNTS:
        for k in EVAL_POINTS:
            call = row_call(trigreg, n, k)
            call()  # warm-up: FFT plan caches, allocator
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            irfft_calls, irfft_ms = _irfft_calls(call)
            report["rows"][f"N={n},K={k}"] = {
                "row_ms": _median_ms(call, 15 if k < 50_000 else 5),
                "peak_mb": peak / 1e6,
                "irfft_calls": irfft_calls,
                "irfft_ms": irfft_ms,
            }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
