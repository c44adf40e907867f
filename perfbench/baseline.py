"""Run the whole benchmark over several seeds and summarize it as a baseline.

Usage, from the repository root:

    python3 perfbench/baseline.py --run --seeds 101-110 --output perfbench/baseline.json

With ``--run`` every workload runs once per seed, untraced, each in a fresh
``run.py`` process of BENCHMARK.json's ``run_seconds``, and once traced on
each of the first three seeds.  Without it only the records earlier runs left in
``.perfbench_out/`` are read.  Prints, per workload and metric, the median
with its unit and the quartile spread (Python's
``statistics.quantiles(values, n=4)``, as a share of the median), and
writes the same as JSON to ``--output``.  Beside the metrics it summarizes
the untraced sample count, the percentile op_tail_ms stands for, and
setup_s_first_only, the set-up time of the measuring process alone, without
the two probe processes whose median setup_s reports.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT, SPEC, WORKLOAD_NAMES

RUN_TIMEOUT_S = 900
TRACED_SEEDS = 3  # the per-layer figures and trace.overhead_pct are medians over these


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _summary(values: list, unit: str) -> dict:
    median = statistics.median(values)
    out = {"median": median, "unit": unit, "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def _run(workload: str, seed: int, seconds: int, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
    print(f"ran {workload} seed {seed} trace {trace}: {done.stdout.strip().splitlines()[-1][:120]}",
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="seed range, e.g. 101-110")
    parser.add_argument("--run", action="store_true", help="run the benchmark first")
    parser.add_argument("--output", help="write the summary JSON here")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    seeds = _seeds(args.seeds)
    if args.run:
        for workload in WORKLOAD_NAMES:
            for seed in seeds:
                _run(workload, seed, spec["run_seconds"], 0)
            for seed in seeds[:TRACED_SEEDS]:
                _run(workload, seed, spec["run_seconds"], 1)

    table, machine = {}, None
    for workload in WORKLOAD_NAMES:
        entry, ratios = {}, []
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            runs = [json.loads(p.read_text()) for p in
                    (OUT / f"{workload}-seed{seed}-trace{trace}.json" for seed in seeds) if p.is_file()]
            if not runs:
                continue
            machine = machine or runs[0]["machine"]
            entry["traced_seeds" if trace else "seeds"] = [r["seed"] for r in runs]
            ratios += [r["failed_ratio"] for r in runs]
            for metric in spec[section]:
                name = metric["name"]
                entry[name] = _summary([r["metrics"][name]["value"] for r in runs], metric["unit"])
            if not trace:
                entry["samples"] = _summary([r["samples"] for r in runs], "count")
                entry["tail_percentile"] = _summary([r["tail_percentile"] for r in runs], "%")
                # setup_s without the probe processes: this process's own set-up alone
                entry["setup_s_first_only"] = _summary([r["setup_samples_s"][0] for r in runs], "s")
        if ratios:
            entry["failed_ratio"] = _summary(ratios, "ratio")
            table[workload] = entry
    if not table:
        print(f"error: no run records for seeds {args.seeds} in {OUT}", file=sys.stderr)
        return 1
    for workload, entry in table.items():
        for name, stats in entry.items():
            if isinstance(stats, dict):
                spread = stats.get("spread")
                print(f"{workload} {name} {stats['median']!r} {stats['unit']} runs={stats['runs']}"
                      + ("" if spread is None else f" spread={spread:.4f}"))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"run_seconds": spec["run_seconds"], "machine": machine, "workloads": table}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
