"""Time the CLI's CSV layer: table writes, sample-file reads, and its share of commands.

Usage, from the repository root (stdlib and numpy only):

    python3 bench/csv_io.py [--src /path/to/another/src]

For each size N in 501, 4001 and 100001 it reports the median time of
``cli._write_csv`` on an evaluation-shaped table (N rows of two float
columns) and on a coefficients-shaped one (two int and two float columns),
the peak memory one evaluation-shaped write allocates (tracemalloc), and the
median time of ``cli._read_samples_csv`` on an N-row ``x,y`` sample file.
It also runs the first six commands of each benchmark workload (the command
lists of ``perfbench/workloads.py``, seed 1) in this process and reports the
mean time per command and the part of it spent in ``_write_csv``, which the
benchmark's traces do not wrap.

``--src`` imports ``trigreg`` from another source tree, so two trees can be
compared on one machine.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
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
SIZES = (501, 4001, 100_001)
COMMANDS = 6  # per workload


def _median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _sample_file(workdir: str, n: int) -> str:
    x = -np.pi + 2 * np.pi * np.arange(n) / n
    y = np.cos(3 * x) + 0.1 * np.random.default_rng(n).standard_normal(n)
    path = os.path.join(workdir, f"samples_{n}.csv")
    with open(path, "w") as fh:
        fh.write("x,y\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    return path


def size_timings(cli, workdir: str, n: int) -> dict:
    write = cli._write_csv
    repeats = 3 if n > 50_000 else 15
    rng = np.random.default_rng(n)
    meta = {"tool": "trigreg", "n_points": n, "s": 1.0}
    slots = np.arange(n)
    evaluation = [-np.pi + 2 * np.pi * slots / n, rng.standard_normal(n)]
    coefficients = [(slots + 1) // 2, np.where(slots % 2 == 0, 2, 1), *rng.standard_normal((2, n))]
    out = os.path.join(workdir, "table.csv")
    samples = _sample_file(workdir, n)
    tracemalloc.start()
    try:
        write(out, meta, ["x", "p"], evaluation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "write_evaluation_ms": _median_ms(lambda: write(out, meta, ["x", "p"], evaluation), repeats),
        "write_coefficients_ms": _median_ms(
            lambda: write(out, meta, ["ell", "k", "alpha", "source_coeff"], coefficients), repeats),
        "write_evaluation_peak_mb": peak / 1e6,
        "read_samples_ms": _median_ms(lambda: cli._read_samples_csv(samples), repeats),
    }


def command_timings(cli, workdir: str) -> dict:
    """Mean ms per command, and in _write_csv, for each benchmark workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    original = cli._write_csv
    spent = [0.0]

    def timed(*args):
        start = time.perf_counter()
        try:
            return original(*args)
        finally:
            spent[0] += time.perf_counter() - start

    def run(argv):
        if cli.main(argv) != 0:
            raise RuntimeError(f"command failed: {argv}")

    result = {}
    cli._write_csv = timed
    try:
        for name, workload in workloads.WORKLOADS.items():
            commands = workload.prepare(1, workdir)[:COMMANDS]
            outdir = ["--output-dir", os.path.join(workdir, name)]
            with contextlib.redirect_stdout(io.StringIO()):
                run(commands[0].argv + outdir)  # warm-up
                spent[0] = 0.0
                start = time.perf_counter()
                for cmd in commands:
                    run(cmd.argv + outdir)
                total = time.perf_counter() - start
            result[name] = {"command_ms": 1e3 * total / COMMANDS,
                            "write_csv_ms": 1e3 * spent[0] / COMMANDS}
    finally:
        cli._write_csv = original
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import trigreg from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from trigreg import cli

    report = {"python": sys.version.split()[0], "numpy": np.__version__, "sizes": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for n in SIZES:
            report["sizes"][str(n)] = size_timings(cli, workdir, n)
        report["commands"] = command_timings(cli, workdir)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
