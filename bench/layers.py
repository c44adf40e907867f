"""Time each layer behind the select, approximate and sweep commands, on one tree or two.

Usage, from the repository root (stdlib and numpy only):

    python3 bench/layers.py [--src /path/to/another/src] [--sizes 501,4001]

For each sample count N (default 501, 4001, 10**5 + 1 and 10**6 + 1) it
builds one noisy f1 row on the N nodes (20 dB, seed N, s = 1, default
parameter grid, T = 400) and samples f1 on K = max(10**4, N) points, the
smallest evaluation grid every command accepts at that N.  Every layer
reads these, and reports the median wall time of one call as ``ms``:

* ``projection``: ``grid.uniform_projection`` of the N samples;
* ``path_sums``: ``RegularizationPath._sums`` on a fresh path, the scan
  that every L-curve, GCV and Morozov diagnostic reads;
* ``lcurve``, ``gcv``, ``morozov``: each ``selection.STRATEGIES`` entry on
  a path whose sums are cached, so Morozov's entry is its bisection (|F| <=
  1e-10 * delta**2 or 60 O(L) steps) and its noise bounds;
* ``l2_error``: the oracle's L2 curve over all T lambdas against f1 on K;
* ``uniform_errors``: ``experiment.uniform_error_curve`` over all T
  lambdas on the K points, as ``sweep --emit-curves`` runs it, with the
  peak memory of one call (``peak_mb``, tracemalloc), its number of irfft
  calls and their median ms per call (``irfft_calls``, ``irfft_ms``: each
  call pays a set-up cost that grows with K).  Only for N <= 10**5 + 1: at
  10**6 + 1 one call takes minutes;
* ``synthesis``: ``grid.uniform_synthesis`` of the Morozov solution on the
  N nodes (approximate's node residual), and ``evaluation``: the same on
  the K points, the synthesis behind evaluation.csv;
* ``write_evaluation``: ``cli._write_csv`` of an N-row table of two float
  columns, with its ``peak_mb``; ``write_coefficients``: the same for the
  N-row coefficients table (two int and two float columns); and
  ``read_samples``: ``cli._read_samples_csv`` of the row as an x,y file.

Then ``commands`` runs the first 6 commands of each benchmark workload (the
command lists of ``perfbench/workloads.py``, seed 1) in this process and
reports the mean ``ms`` per command and the part of it spent in
``cli._write_csv`` (``write_csv_ms``), which the benchmark's traces do not
wrap.  With ``--src`` each command runs on both trees back to back, and its
``ratio`` is the median of the per-command ratios, so one slow call does
not set it.  Each call runs once untimed first, then 15 timed repeats for
N < 10**4, 11 for N < 5*10**5 (with 5, layers both trees shared read
ratios of 1.19 and 1.33 at N = 10**5 + 1) and 3 above.

``--src`` names a second source tree.  Its ``trigreg`` is imported as a
second package, ``other_trigreg``, beside this checkout's, and every timed
call alternates between the two trees, the first tree switching on each
repeat.  Both trees then see the same host phases, and each entry also
holds the other tree's figures (``other_ms``, ...) and ``ratio`` = ms /
other_ms, which resolves far smaller changes than two separate runs.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (501, 4001, 100_001, 1_000_001)
UNIFORM_MAX_N = 100_001
COMMANDS = 6  # per workload


def load(src, name: str):
    """Import the ``trigreg`` package under the source tree ``src`` as a package called ``name``."""
    init = Path(src, "trigreg", "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # the package's relative imports resolve through it
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _alternate(calls, repeats: int) -> list:
    """ms of each of ``repeats`` runs of each call (one per tree), alternated, the first switching each repeat."""
    times = [[] for _ in calls]
    for repeat in range(repeats):
        order = list(enumerate(calls))
        for index, call in order[::-1] if repeat % 2 else order:
            start = time.perf_counter()
            call()
            times[index].append(1e3 * (time.perf_counter() - start))
    return times


def _entry(figures: list) -> dict:
    """One entry from each tree's figures: this tree's, the other's as ``other_*``, and ``ratio``."""
    this, *other = ({key: round(value, 4) for key, value in tree.items()} for tree in figures)
    if other:
        this.update({f"other_{key}": value for key, value in other[0].items()})
        this["ratio"] = round(figures[0]["ms"] / figures[1]["ms"], 4)
    return this


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _irfft_calls(call) -> dict:
    """Run ``call`` once with each numpy irfft call timed."""
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
    return {"irfft_calls": len(times), "irfft_ms": 1e3 * statistics.median(times)}


def layer_calls(tree, noisy, eps_wnorm: float, dense, samples: str, table: str) -> dict:
    """No-argument calls of each timed layer of ``tree`` on one row of N samples and K dense values."""
    n, k, degree = noisy.size, dense.size, (noisy.size - 1) // 2
    params, strategies, write = tree.parameter_grid(), tree.selection.STRATEGIES, tree.cli._write_csv
    path = tree.RegularizationPath.from_samples(noisy, tree.laplace_penalty(degree), params.lambdas)
    path._sums  # cached from here on: the selectors below then time what follows the scan
    truth = tree.uniform_rfft(dense)  # the oracle's (rfft, K) pair
    spectrum = np.fft.rfft(dense)
    alpha = path.alpha(strategies["morozov"].run(path, params, noise_norm=eps_wnorm).chosen_lambda)
    x, values = tree.uniform_eval_points(n), tree.uniform_synthesis(alpha, n)
    coefficients = [*tree.mode_layout(degree), alpha, path.coeffs]
    calls = {
        "projection": lambda: tree.uniform_projection(noisy, degree),
        "path_sums": lambda: tree.RegularizationPath(path.coeffs, path.beta_sq, path.lambdas, path.r0, n)._sums,
        "lcurve": lambda: strategies["lcurve"].run(path, params),
        "gcv": lambda: strategies["gcv"].run(path, params),
        "morozov": lambda: strategies["morozov"].run(path, params, noise_norm=eps_wnorm),
        "l2_error": lambda: path.l2_error(*truth),
        "uniform_errors": lambda: tree.uniform_error_curve(path, params.lambdas, spectrum, k),
        "synthesis": lambda: tree.uniform_synthesis(alpha, n),
        "evaluation": lambda: tree.uniform_synthesis(alpha, k),
        "write_evaluation": lambda: write(table, {"n_points": n}, ["x", "p"], [x, values]),
        "write_coefficients": lambda: write(table, {"n_points": n}, ["ell", "k", "alpha", "source_coeff"],
                                            coefficients),
        "read_samples": lambda: tree.cli._read_samples_csv(samples),
    }
    if n > UNIFORM_MAX_N:
        del calls["uniform_errors"]
    return calls


def size_row(trees, n: int, workdir: str) -> dict:
    """The entry of each layer at N = ``n``; ``trees`` is this tree's package, then the other's."""
    this = trees[0]
    f1, nodes = this.gallery("f1"), this.make_grid(n).nodes
    realization = this.add_noise_snr(f1(nodes), 20.0, seed=n)
    dense = f1(this.uniform_eval_points(max(10_000, n)))
    samples = os.path.join(workdir, f"row_{n}.csv")
    this.cli._write_csv(samples, {}, ["x", "y"], [nodes, realization.noisy])
    calls = [layer_calls(tree, realization.noisy, realization.eps_wnorm, dense, samples,
                         os.path.join(workdir, f"{tree.__name__}.csv")) for tree in trees]
    repeats = 15 if n < 10_000 else 11 if n < 500_000 else 3
    row = {"K": dense.size}
    for name in calls[0]:
        layer = [tree_calls[name] for tree_calls in calls]
        for call in layer:
            call()  # warm-up: FFT plan caches, allocator
        figures = [{"ms": statistics.median(ms)} for ms in _alternate(layer, repeats)]
        for figure, call in zip(figures, layer):
            if name in ("uniform_errors", "write_evaluation"):
                figure["peak_mb"] = _peak_mb(call)
            if name == "uniform_errors":
                figure.update(_irfft_calls(call))
        row[name] = _entry(figures)
    return row


def command_entries(trees, workdir: str) -> dict:
    """Mean ms per command, and in ``cli._write_csv``, of each benchmark workload on each tree."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    spent, writers = [0.0] * len(trees), [tree.cli._write_csv for tree in trees]

    def timed(index):
        def write(*args):
            start = time.perf_counter()
            try:
                return writers[index](*args)
            finally:
                spent[index] += 1e3 * (time.perf_counter() - start)
        return write

    def runner(tree, argvs):
        queue = iter(argvs)

        def run():
            argv = next(queue)
            if tree.cli.main(argv) != 0:
                raise RuntimeError(f"command failed on {tree.__name__}: {argv}")
        return run

    result = {}
    for index, tree in enumerate(trees):
        tree.cli._write_csv = timed(index)
    try:
        for name, workload in workloads.WORKLOADS.items():
            commands, calls = workload.prepare(1, workdir)[:COMMANDS], []
            with contextlib.redirect_stdout(io.StringIO()):
                for tree in trees:
                    outdir = ["--output-dir", os.path.join(workdir, tree.__name__, name)]
                    argvs = [cmd.argv + outdir for cmd in commands]
                    runner(tree, argvs[:1])()  # warm-up
                    calls.append(runner(tree, argvs))
                spent[:] = [0.0] * len(trees)
                times = _alternate(calls, COMMANDS)
            result[name] = _entry([{"ms": statistics.mean(ms), "write_csv_ms": total / COMMANDS}
                                   for ms, total in zip(times, spent)])
            if len(trees) > 1:
                result[name]["ratio"] = round(statistics.median(a / b for a, b in zip(*times)), 4)
    finally:
        for tree, writer in zip(trees, writers):
            tree.cli._write_csv = writer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="another source tree to time against this checkout, call by call")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)),
                        help="comma-separated odd sample counts N")
    args = parser.parse_args(argv)
    trees = [load(ROOT / "src", "trigreg")]
    if args.src:
        trees.append(load(args.src, "other_trigreg"))

    lambdas = len(trees[0].parameter_grid().lambdas)
    report = {"python": sys.version.split()[0], "numpy": np.__version__,
              "src": [str(Path(tree.__file__).parent.parent) for tree in trees],
              "lambdas": lambdas, "workers": trees[0].experiment._worker_count(lambdas), "rows": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for n in (int(size) for size in args.sizes.split(",")):
            report["rows"][f"N={n}"] = size_row(trees, n, workdir)
        report["commands"] = command_entries(trees, workdir)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
