"""trigreg benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload select-n501 --seed 1 --seconds 34 --trace 0

One client sends one ``trigreg`` command at a time through ``trigreg.cli.main``
in this process, each with a fresh output directory under ``.perfbench_out/``,
until ``--seconds`` have passed.  Inputs (signals, noise levels and seeds,
sample files) come from ``--seed`` only.  After the timed loop every
command's output files are checked against an independent FFT/closed-form
reference (``reference.py``); a command that raised, exited nonzero or
failed its check counts as failed.

``--trace 0`` reports the end-to-end metrics: ops_per_s, op_p50_ms,
op_tail_ms (the highest percentile with at least 10 samples beyond it; the
percentile and sample count are printed), peak_rss_mb and setup_s (import,
input generation and one fixed warm-up command on a small grid, median of
five fresh processes).  failed_ratio is printed beside them; the last stdout line is
the JSON summary.

``--trace 1`` pairs untraced and traced runs of the same commands, in
alternating order, and reports per command the calls and self time of every
wrapped layer function, the computed bytes of the basis matrices built, the
bytes the CLI read and wrote, and trace.overhead_pct, the traced median
against the untraced one.  Spans and the per-layer table go to ``.perfbench_out/``.

The BLAS pool is capped at the number of usable cores before numpy loads.
The package is imported from ``src/`` beside this directory and nowhere
else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"
# The keys of workloads.WORKLOADS, spelled out so argument parsing imports no numpy.
WORKLOAD_NAMES = ("select-n501", "sweep-paper", "approximate-n2001")
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure() -> str:
    """Cap the BLAS pool at the usable cores and put ``src/`` first on the path.

    Must run before numpy is imported.  Returns the cap.
    """
    blas_threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = blas_threads
    sys.path[:0] = [str(SRC), str(HERE)]
    return blas_threads


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="trigreg CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload_name: str, seed: int, workdir: Path):
    """Import, generate inputs and run the fixed warm-up; returns (state, seconds)."""
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed: part of what a user waits for)

    from trigreg import cli
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    commands = workload.prepare(seed, str(workdir))
    warm = workload.warmup(str(workdir))
    code, _, error = _invoke(cli, warm.argv + ["--output-dir", str(workdir / "warmup")])
    if code != 0:
        raise RuntimeError(f"warm-up command failed ({code}): {error}")
    return (cli, workload, commands), time.perf_counter() - start


def _invoke(cli, argv):
    """Run one command in-process; returns (exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().strip()


def _probe_setup(args) -> float:
    """Set-up time of one fresh process, measured inside that process."""
    probe_dir = make_tempdir("probe-")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(probe_dir)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def make_tempdir(prefix: str) -> Path:
    """A fresh directory inside the checkout (the benchmark writes nowhere else)."""
    parent = OUT / "tmp"
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def _tail(samples_ms):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND or fewer samples no percentile qualifies; the minimum,
    the order statistic with the most samples above it, stands in, so the
    value does not jump when the sample count crosses TAIL_BEYOND.
    """
    ordered = sorted(samples_ms)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _git_commit():
    """HEAD of the checkout's own ``.git``, read as files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # the source digest still identifies the code


def _machine(blas_threads: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "trigreg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(blas_threads),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def run_loop(cli, commands, seconds: float, workdir: Path, tracer=None):
    """Closed loop with one client.  Returns per-op records, loop start and wall time.

    With a tracer, each op runs the same command twice, untraced and traced,
    the untraced run first on even ops and second on odd ones, so that neither
    side always meets the caches the other left.
    """
    records = []
    start = time.perf_counter()
    op = 0
    while True:
        cmd = commands[op % len(commands)]
        order = ((False, True) if op % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in order:
            outdir = workdir / f"op{op:05d}{'t' if traced else ''}"
            argv = cmd.argv + ["--output-dir", str(outdir)]
            context = tracer.recording(op) if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            with context:
                code, stdout, error = _invoke(cli, argv)
            elapsed = time.perf_counter() - t0
            records.append({"op": op, "cmd": cmd, "outdir": outdir, "traced": traced,
                            "seconds": elapsed, "code": code, "stdout": stdout, "error": error})
        op += 1
        if time.perf_counter() - start >= seconds:
            break
    return records, start, time.perf_counter() - start


def check_all(workload, records):
    """Check every op's outputs; marks records with ``failure`` (None when correct).

    Any exception while reading or comparing an op's files means those files
    are missing or malformed, so it fails that op and checking goes on.
    """
    for rec in records:
        if rec["code"] != 0:
            rec["failure"] = f"exit {rec['code']}: {rec['error'][:200]}"
            continue
        try:
            workload.check(rec["cmd"], str(rec["outdir"]), rec["stdout"])
            rec["failure"] = None
        except Exception as exc:
            rec["failure"] = f"{type(exc).__name__}: {exc}"


def _layer_metrics(tracer, records) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    count = len(traced)
    metrics = {}
    for name, (calls, busy) in tracer.self_times().items():
        metrics[f"{name}.calls"] = (calls / count, "count")
        metrics[f"{name}.self_ms"] = (1000.0 * busy / count, "ms")
    metrics["grid.basis_matrix.mbytes"] = (sum(tracer.computed_bytes.values()) / 1e6 / count, "MB-computed")
    metrics["cli.bytes_written"] = (statistics.fmean(_dir_bytes(r["outdir"]) for r in traced), "bytes")
    metrics["cli.bytes_read"] = (statistics.fmean(_bytes_read(r["cmd"]) for r in traced), "bytes")
    p50_plain = statistics.median(r["seconds"] for r in plain)
    p50_traced = statistics.median(r["seconds"] for r in traced)
    metrics["trace.overhead_pct"] = (100.0 * (p50_traced - p50_plain) / p50_plain, "%")
    return metrics


def _bytes_read(cmd) -> int:
    path = cmd.case.get("input")
    return os.path.getsize(path) if path else 0


def _summary_metrics(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json declares for this mode, checked for name and unit."""
    out = {}
    for entry in json.loads(SPEC.read_text())[section]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, declared in {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def _measure(args, workdir: Path):
    """Set up, run the timed loop and check outputs; returns (metrics, records, facts)."""
    (cli, workload, commands), first_setup = set_up(args.workload, args.seed, workdir)
    setups = [first_setup] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    records, loop_start, loop_s = run_loop(cli, commands, args.seconds, workdir, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_all(workload, records)
    plain_ms = [1000.0 * r["seconds"] for r in records if not r["traced"]]
    tail_ms, tail_pct = _tail(plain_ms)
    facts = {"samples": len(plain_ms), "tail_percentile": tail_pct, "setup_samples_s": setups}
    if tracer is None:
        metrics = {
            "ops_per_s": (len(plain_ms) / loop_s, "1/s"),
            "op_p50_ms": (statistics.median(plain_ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        metrics = _layer_metrics(tracer, records)
        stem = _stem(args)
        tracer.write_spans(str(stem) + "-spans.jsonl", origin=loop_start)
        with open(str(stem) + "-layers.tsv", "w") as fh:
            fh.write("metric\tvalue\tunit\n")
            fh.writelines(f"{k}\t{v!r}\t{u}\n" for k, (v, u) in sorted(metrics.items()))
    return metrics, records, facts


def _stem(args) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "trigreg" / "__init__.py").is_file():
        print(f"error: no trigreg sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    blas_threads = configure()

    if args.setup_probe is not None:
        _, seconds = set_up(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"setup_s": seconds}))
        return 0

    workdir = make_tempdir(f"{args.workload}-")
    try:
        metrics, records, facts = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [r for r in records if r["failure"]]
    failed_ratio = len(failures) / len(records)
    machine = _machine(blas_threads)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 client", "machine": machine, **facts, "failed_ratio": failed_ratio,
        "failures": [{"op": r["op"], "argv": r["cmd"].argv, "why": r["failure"]} for r in failures[:20]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _stem(args).with_suffix(".json").write_text(json.dumps(details, indent=2) + "\n")

    print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          "loop=closed clients=1")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# samples={facts['samples']} tail_percentile=p{facts['tail_percentile']:.1f} setup_samples_s="
          + ",".join(f"{s:.4f}" for s in facts["setup_samples_s"]))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value!r} {unit}")
    print(f"metric failed_ratio {failed_ratio!r} ratio")
    for rec in failures[:5]:
        print(f"# failed op {rec['op']}: {' '.join(rec['cmd'].argv)}: {rec['failure']}")
    summary = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": _summary_metrics(metrics, "per_layer" if args.trace else "end_to_end"),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
