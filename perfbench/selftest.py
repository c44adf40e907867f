"""Quick self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that
1. a very short run of every workload, untraced and traced, prints every
   metric BENCHMARK.json declares, with its unit, and no failures;
2. deliberately corrupted output files of each workload are caught, so
   failed_ratio rises above 0 while the untouched outputs still pass; the
   corruptions include a strategy moved into "failed" and a blanked sweep
   cell, failures the reference does not predict;
3. without the package sources the benchmark exits nonzero and prints no
   result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

RUN_TIMEOUT_S = 300


def _short_runs() -> list:
    spec = json.loads(run.SPEC.read_text())
    problems = []
    for workload in run.WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "0.2", "--trace", str(trace)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False, cwd=run.ROOT)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            lines = done.stdout.strip().splitlines()
            summary = json.loads(lines[-1])
            printed = {tuple(line.split()[1::2]) for line in lines if line.startswith("metric ")}
            for entry in spec[section]:
                got = summary["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{where}: {entry['name']} missing or not in {entry['unit']}")
                if (entry["name"], entry["unit"]) not in printed:
                    problems.append(f"{where}: no 'metric {entry['name']} ... {entry['unit']}' line")
            if set(summary) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: summary keys {sorted(summary)}")
            if summary["failed"] or not summary["correct"] or summary["attempted"] < 1:
                problems.append(f"{where}: {summary['failed']} of {summary['attempted']} failed")
            print(f"short run {where}: {len(summary['metrics'])} metrics, attempted {summary['attempted']}")
    return problems


def _edit_row(path: Path, column: str, pick, scale: float):
    """Multiply one cell of a CLI CSV; ``pick`` chooses the row from the column values."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    rows = [line.split(",") for line in lines[head + 1:]]
    target = pick([float(r[col]) for r in rows])
    rows[target][col] = repr(float(rows[target][col]) * scale)
    path.write_text("\n".join(lines[: head + 1] + [",".join(r) for r in rows]) + "\n")


def _corrupt_chosen(outdir: Path):
    path = outdir / "chosen.json"
    payload = json.loads(path.read_text())
    entry = payload["chosen"]["gcv"]
    entry["k"] = entry["k"] + 7 if entry["k"] <= 200 else entry["k"] - 7
    path.write_text(json.dumps(payload))


def _fail_strategy(outdir: Path):
    """Move the oracle into "failed", as if the CLI had reported a selection error."""
    path = outdir / "chosen.json"
    payload = json.loads(path.read_text())
    del payload["chosen"]["oracle"]
    payload.setdefault("failed", {})["oracle"] = "SelectionError: injected"
    path.write_text(json.dumps(payload))


def _blank_cell(path: Path, column: str, row: int):
    """Empty one cell of a CLI CSV, the way the sweep writes a failed strategy."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    cells = lines[head + 1 + row].split(",")
    cells[col] = ""
    lines[head + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# Per workload, the corruptions applied to its first ops, one op each.
CORRUPTIONS = {
    "select-n501": (_corrupt_chosen, _fail_strategy),
    "sweep-paper": (
        lambda out: _edit_row(out / "curves_40dB.csv", "l2_error", lambda v: 17, 1.001),
        lambda out: _blank_cell(out / "report.csv", "lambda_gcv", 2),
    ),
    "approximate-n2001": (lambda out: _edit_row(
        out / "coefficients.csv", "alpha", lambda v: max(range(len(v)), key=lambda i: abs(v[i])), 1 + 1e-6),),
}


def _corruption() -> list:
    problems = []
    for name, corruptions in CORRUPTIONS.items():
        workdir = run.make_tempdir(f"selftest-{name}-")
        try:
            (cli, workload, commands), _ = run.set_up(name, 0, workdir)
            records = []
            for i in range(len(corruptions) + 1):  # one untouched op last
                records += run.run_loop(cli, commands[i:], 0.0, workdir / f"r{i}")[0]
            for rec, corrupt in zip(records, corruptions):
                corrupt(rec["outdir"])
            run.check_all(workload, records)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed = [r for r in records if r["failure"]]
        ratio = len(failed) / len(records)
        print(f"corrupted {name}: failed_ratio {ratio}")
        for rec in failed:
            print(f"  op caught: {rec['failure']}")
        if failed != records[: len(corruptions)]:
            problems.append(f"{name}: expected exactly the {len(corruptions)} corrupted ops to fail, "
                            f"got {len(failed)} of {len(records)}")
    return problems


def _bare_directory() -> list:
    bare = run.make_tempdir("selftest-bare-")
    try:
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "select-n501", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {done.returncode}, stdout {len(done.stdout)} bytes")
    if done.returncode == 0 or done.stdout.strip():
        return ["bare directory: the benchmark ran without the package sources"]
    return []


def main() -> int:
    if not (run.SRC / "trigreg" / "__init__.py").is_file():
        print("error: run the self-test from a full checkout", file=sys.stderr)
        return 2
    run.configure()
    problems = _bare_directory() + _short_runs() + _corruption()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
