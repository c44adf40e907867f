"""Command-line front end: approximate / select / sweep.

All commands emit CSV files with a ``# key: value`` metadata header, written
atomically (temp file + rename).  Runs are deterministic: identical
configuration produces byte-identical outputs.  On failure the process exits
nonzero after printing a single line ``error: <category>: <message>`` to
stderr; categories and exit codes are listed in README.md.

The polynomial degree is always tied to the sample count as
degree = (N - 1)/2, the interpolatory setting.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .approximant import evaluate, solve
from .experiment import add_noise_snr, gallery, l2_error, sweep
from .grid import harmonic_indices, make_grid, uniform_eval_points, uniform_projection
from .penalty import laplace_penalty
from .selection import (
    STRATEGIES,
    RegularizationPath,
    parameter_grid,
    run_strategies,
)

EXIT_CODES = {
    "config-error": 2,
    "parse-error": 3,
    "grid-error": 4,
    "strategy-error": 5,
    "io-error": 6,
}

# What a strategy's missing input means on the command line.
_MISSING_INPUT = {
    "noise_norm": "morozov needs the noise size: pass --noise-norm or synthesize "
                  "noise with --snr-db/--seed",
    "truth": "oracle strategy needs a --gallery truth signal",
}

# report.csv column -> strategy key
REPORT_COLUMNS = (("opt", "oracle"), ("corner", "lcurve"), ("mor", "morozov"), ("gcv", "gcv"))


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


@dataclass(frozen=True)
class RunConfig:
    command: str
    gallery: str | None = None
    input: str | None = None
    n: int | None = None
    strategy: str | None = None
    snr_db: str | None = None
    seed: int = 0
    lam: float | None = None
    s: float = 1.0
    zeta0: float = 1.0
    q: float = 2.0 ** -0.1
    t_max: int = 400
    eval_points: int = 10000
    noise_norm: float | None = None
    output_dir: str = "."
    emit_curves: bool = False


_CONFIG_FIELDS = {
    "gallery": str,
    "input": str,
    "n": int,
    "strategy": str,
    "snr_db": str,
    "seed": int,
    "lam": float,
    "s": float,
    "zeta0": float,
    "q": float,
    "t_max": int,
    "eval_points": int,
    "noise_norm": float,
    "output_dir": str,
    "emit_curves": bool,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigreg",
        description="Regularized trigonometric approximation of noisy periodic samples.",
    )
    parser.add_argument("--version", action="version", version=f"trigreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("approximate", "fit one approximant and write coefficients + dense evaluation"),
        ("select", "scan the parameter grid and write per-lambda diagnostics"),
        ("sweep", "run the noise-level sweep protocol and write the report table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with defaults; flags override it")
        p.add_argument("--gallery", help="built-in signal name (see README)")
        p.add_argument("--input", help="CSV file of samples with columns x,y")
        p.add_argument("--n", type=int, help="number of grid points (odd)")
        p.add_argument("--strategy", help="manual|morozov|lcurve|gcv|oracle|all (comma list allowed)")
        p.add_argument("--snr-db", dest="snr_db", help="noise level(s) in dB: '20', '10,20' or '10:80:10'")
        p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
        p.add_argument("--lambda", dest="lam", type=float, help="regularization parameter for --strategy manual")
        p.add_argument("--s", type=float, help="penalty exponent (default 1)")
        p.add_argument("--zeta0", type=float, help="parameter-grid scale (default 1)")
        p.add_argument("--q", type=float, help="parameter-grid ratio (default 2**-0.1)")
        p.add_argument("--t-max", dest="t_max", type=int, help="parameter-grid length (default 400)")
        p.add_argument("--eval-points", dest="eval_points", type=int, help="dense evaluation grid size (default 10000)")
        p.add_argument("--noise-norm", dest="noise_norm", type=float, help="known weighted noise norm for morozov")
        p.add_argument("--output-dir", dest="output_dir", help="directory for output files (default .)")
        p.add_argument("--emit-curves", dest="emit_curves", action="store_true", default=None,
                       help="sweep: also write per-lambda error curves per noise level")
    return parser


def build_config(argv) -> RunConfig:
    """Parse flags, merge an optional JSON config file (flags win), validate."""
    args = _build_parser().parse_args(argv)
    merged: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError("io-error", f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError("parse-error", f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise CliError("config-error", "config file must hold a JSON object")
        for key, value in file_cfg.items():
            key = {"lambda": "lam"}.get(key, key).replace("-", "_")
            if key not in _CONFIG_FIELDS:
                raise CliError("config-error", f"unknown config key {key!r}")
            merged[key] = _CONFIG_FIELDS[key](value)
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    cfg = RunConfig(command=args.command, **merged)
    return validate_config(cfg)


def validate_config(cfg: RunConfig) -> RunConfig:
    if (cfg.gallery is None) == (cfg.input is None):
        raise CliError("config-error", "exactly one of --gallery or --input is required")
    if cfg.gallery is None and cfg.command == "sweep":
        raise CliError("config-error", "sweep needs a --gallery signal (the true function)")
    if cfg.input is None and cfg.n is None:
        raise CliError("config-error", "--n is required with --gallery")
    if cfg.n is not None and (cfg.n < 3 or cfg.n % 2 == 0):
        raise CliError("config-error", f"--n must be an odd integer >= 3, got {cfg.n}")
    if cfg.lam is not None and not cfg.lam >= 0:
        raise CliError("config-error", f"--lambda must be >= 0, got {cfg.lam}")
    if cfg.noise_norm is not None and not cfg.noise_norm >= 0:
        raise CliError("config-error", f"--noise-norm must be >= 0, got {cfg.noise_norm}")
    if cfg.eval_points < 1000:
        raise CliError("config-error", f"--eval-points must be >= 1000, got {cfg.eval_points}")
    if not cfg.s > 0:
        raise CliError("config-error", f"--s must be > 0, got {cfg.s}")
    if not cfg.zeta0 > 0 or not 0 < cfg.q < 1 or cfg.t_max < 1:
        raise CliError("config-error", "parameter grid needs zeta0 > 0, 0 < q < 1, t_max >= 1")
    return cfg


def _parse_levels(text: str) -> list[float]:
    """'20' -> [20]; '10,20' -> [10, 20]; '10:80:10' -> [10, 20, ..., 80]."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3 or parts[2] <= 0:
                raise ValueError
            start, stop, step = parts
            count = int(np.floor((stop - start) / step + 1e-9)) + 1
            if count < 1:
                raise ValueError
            return [start + i * step for i in range(count)]
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise CliError("parse-error", f"cannot parse --snr-db value {text!r}") from None


def _parse_strategies(cfg: RunConfig, allow_manual: bool) -> list[str]:
    raw = cfg.strategy or ("manual" if allow_manual and cfg.lam is not None else "all")
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if "all" in names:
        names = list(STRATEGIES)
    for name in names:
        if name not in STRATEGIES and name != "manual":
            raise CliError("config-error", f"unknown strategy {name!r}")
        if name == "manual" and not allow_manual:
            raise CliError("config-error", "strategy 'manual' only applies to approximate")
    if not names:
        raise CliError("config-error", "no strategy given")
    return names


# ---------------------------------------------------------------------------
# Input handling and file output
# ---------------------------------------------------------------------------


def _read_samples_csv(path: str):
    xs, ys = [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CliError("io-error", f"cannot read samples: {exc}")
    with fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip().lower() == "x":
                continue  # header row
            if len(row) < 2:
                raise CliError("parse-error", f"{path}:{lineno}: expected two columns x,y")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                raise CliError("parse-error", f"{path}:{lineno}: non-numeric value") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise CliError("parse-error", f"{path}:{lineno}: non-finite value")
            xs.append(x)
            ys.append(y)
    n = len(xs)
    if n < 3 or n % 2 == 0:
        raise CliError("grid-error", f"need an odd number >= 3 of samples, got {n}")
    grid = make_grid(n)
    tol = 1e-9 * grid.weight
    if np.max(np.abs(np.asarray(xs) - grid.nodes)) > tol:
        raise CliError(
            "grid-error",
            "input samples must sit on the equidistant trapezoidal grid "
            f"x_j = -pi + 2*pi*(j-1)/N, j = 1..N (N = {n}), in that order",
        )
    return grid, np.asarray(ys, dtype=float)


def _prepare_input(cfg: RunConfig, levels: list[float]):
    """Resolve (grid, samples, true function or None, realization or None, label)."""
    if cfg.gallery is not None:
        try:
            func = gallery(cfg.gallery)
        except ValueError as exc:
            raise CliError("config-error", str(exc)) from None
        grid = make_grid(cfg.n)
        clean = np.asarray(func(grid.nodes), dtype=float)
        realization = None
        samples = clean
        if levels:
            realization = add_noise_snr(clean, levels[0], cfg.seed)
            samples = realization.noisy
        return grid, samples, func, realization, f"gallery:{cfg.gallery}"
    grid, samples = _read_samples_csv(cfg.input)
    return grid, samples, None, None, f"input:{cfg.input}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-trigreg-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError("io-error", f"cannot write {path}: {exc}")


def _write_csv(path: str, metadata: dict, header: list[str], rows):
    lines = [f"# {key}: {_fmt(value)}" for key, value in metadata.items() if value is not None]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _metadata(cfg: RunConfig, grid, source: str, **extra) -> dict:
    meta = {
        "tool": "trigreg",
        "version": __version__,
        "command": cfg.command,
        "source": source,
        "n_points": grid.n_points,
        "degree": (grid.n_points - 1) // 2,
        "s": cfg.s,
        "seed": cfg.seed,
        "zeta0": cfg.zeta0,
        "q": cfg.q,
        "t_max": cfg.t_max,
        "eval_points": cfg.eval_points,
    }
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# Strategy scans shared by approximate and select
# ---------------------------------------------------------------------------


def _resolve_noise_norm(cfg: RunConfig, realization):
    if cfg.noise_norm is not None:
        return cfg.noise_norm
    if realization is not None:
        return realization.eps_wnorm
    return None


def _run_named(names, cfg, grid, degree, pen, params, samples, func, realization):
    """Run the named strategies on one shared path of the samples.

    Returns ``(reports, failures)`` as :func:`run_strategies` does, where
    failures also hold the strategies whose input is missing.  A single
    named strategy that fails raises CliError instead: config-error when
    its input is missing, strategy-error otherwise.
    """
    inputs = {"noise_norm": _resolve_noise_norm(cfg, realization), "truth": None}
    if func is not None and "oracle" in names:
        truth = np.asarray(func(uniform_eval_points(cfg.eval_points)), dtype=float)
        inputs["truth"] = uniform_projection(truth, degree)
    missing = {}
    for name in names:
        need = STRATEGIES[name].needs
        if need and inputs[need] is None:
            missing[name] = _MISSING_INPUT[need]
    if missing and len(names) == 1:
        raise CliError("config-error", missing[names[0]])
    path = RegularizationPath.from_samples(samples, grid, degree, pen, params.lambdas)
    reports, failures = run_strategies(
        path, params, [name for name in names if name not in missing], **inputs
    )
    if failures and len(names) == 1:
        raise CliError("strategy-error", failures[names[0]])
    return reports, {**missing, **failures}


def _diagnostics_rows(params, reports: dict):
    """Merge per-strategy columns into the fixed lambda,J,K,kappa,V,F table."""
    columns = {key: None for key in ("residual_sq", "penalty_sq", "curvature", "gcv", "discrepancy")}
    for report in reports.values():
        for key in columns:
            if columns[key] is None:
                columns[key] = getattr(report, key)
    return [
        (
            lam,
            None if columns["residual_sq"] is None else columns["residual_sq"][i],
            None if columns["penalty_sq"] is None else columns["penalty_sq"][i],
            None if columns["curvature"] is None else columns["curvature"][i],
            None if columns["gcv"] is None else columns["gcv"][i],
            None if columns["discrepancy"] is None else columns["discrepancy"][i],
        )
        for i, lam in enumerate(params.lambdas)
    ]


def _chosen_entry(report):
    entry = {"lambda": report.chosen_lambda, "k": report.chosen_index + 1}
    if report.refined:
        entry["refined"] = True
    if report.assumption_ok is not None:
        entry["assumption_ok"] = report.assumption_ok
    if report.noise_norm_used is not None:
        entry["noise_norm"] = report.noise_norm_used
    return entry


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_approximate(cfg: RunConfig) -> int:
    levels = _parse_levels(cfg.snr_db) if cfg.snr_db else []
    if len(levels) > 1:
        raise CliError("config-error", "approximate takes a single --snr-db value")
    grid, samples, func, realization, source = _prepare_input(cfg, levels)
    degree = (grid.n_points - 1) // 2
    pen = laplace_penalty(degree, cfg.s)
    params = parameter_grid(cfg.zeta0, cfg.q, cfg.t_max)
    names = _parse_strategies(cfg, allow_manual=True)
    if len(names) > 1:
        raise CliError("config-error", "approximate takes a single --strategy")
    strategy = names[0]

    reports = {}
    if strategy == "manual":
        if cfg.lam is None:
            raise CliError("config-error", "--strategy manual needs --lambda")
        lam = cfg.lam
    else:
        reports, _ = _run_named(names, cfg, grid, degree, pen, params, samples, func, realization)
        lam = reports[strategy].chosen_lambda

    approx = solve(samples, grid, degree, lam, pen)
    meta = _metadata(
        cfg, grid, source,
        strategy=strategy,
        snr_db=levels[0] if levels else None,
        noise_norm=_resolve_noise_norm(cfg, realization),
        chosen_lambda=lam,
    )

    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    coeff_path = os.path.join(outdir, "coefficients.csv")
    _write_csv(
        coeff_path,
        meta,
        ["ell", "k", "alpha", "source_coeff"],
        (
            (idx.ell, idx.k, approx.alpha[i], approx.source_coeffs.values[i])
            for i, idx in enumerate(harmonic_indices(degree))
        ),
    )
    eval_path = os.path.join(outdir, "evaluation.csv")
    x = uniform_eval_points(cfg.eval_points)
    values = evaluate(approx, x)
    _write_csv(eval_path, meta, ["x", "p"], zip(x, values))
    outputs = [coeff_path, eval_path]
    if reports:
        diag_path = os.path.join(outdir, "diagnostics.csv")
        _write_csv(
            diag_path, meta,
            ["lambda", "J", "K", "kappa", "V", "F"],
            _diagnostics_rows(params, reports),
        )
        outputs.append(diag_path)

    node_residual = float(np.max(np.abs(evaluate(approx, grid.nodes) - samples)))
    parts = [
        "ok",
        "command=approximate",
        f"source={source}",
        f"n={grid.n_points}",
        f"degree={degree}",
        f"s={_fmt(cfg.s)}",
        f"strategy={strategy}",
        f"lambda={_fmt(lam)}",
        f"max_node_residual={_fmt(node_residual)}",
    ]
    if func is not None:
        parts.append(f"l2_error_vs_truth={_fmt(l2_error(approx, func, cfg.eval_points))}")
    if approx.zero_data:
        parts.append("zero_data=true")
    parts.append("files=" + ",".join(outputs))
    print(" ".join(parts))
    return 0


def cmd_select(cfg: RunConfig) -> int:
    levels = _parse_levels(cfg.snr_db) if cfg.snr_db else []
    if len(levels) > 1:
        raise CliError("config-error", "select takes a single --snr-db value")
    grid, samples, func, realization, source = _prepare_input(cfg, levels)
    degree = (grid.n_points - 1) // 2
    pen = laplace_penalty(degree, cfg.s)
    params = parameter_grid(cfg.zeta0, cfg.q, cfg.t_max)
    names = _parse_strategies(cfg, allow_manual=False)

    reports, failures = _run_named(names, cfg, grid, degree, pen, params, samples, func, realization)
    chosen = {name: _chosen_entry(report) for name, report in reports.items()}

    meta = _metadata(
        cfg, grid, source,
        strategy=",".join(names),
        snr_db=levels[0] if levels else None,
        noise_norm=_resolve_noise_norm(cfg, realization),
    )
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    diag_path = os.path.join(outdir, "diagnostics.csv")
    _write_csv(
        diag_path, meta,
        ["lambda", "J", "K", "kappa", "V", "F"],
        _diagnostics_rows(params, reports),
    )
    chosen_path = os.path.join(outdir, "chosen.json")
    payload = {"metadata": {k: _fmt(v) for k, v in meta.items()}, "chosen": chosen}
    if failures:
        payload["failed"] = failures
    _atomic_write(chosen_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    parts = ["ok", "command=select", f"source={source}", f"n={grid.n_points}"]
    for name in names:
        if name in chosen:
            parts.append(f"lambda_{name}={_fmt(chosen[name]['lambda'])}")
        else:
            parts.append(f"lambda_{name}=failed")
    parts.append(f"files={diag_path},{chosen_path}")
    print(" ".join(parts))
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.snr_db:
        raise CliError("config-error", "sweep needs --snr-db (e.g. '10:80:10')")
    levels = _parse_levels(cfg.snr_db)
    if not levels:
        raise CliError("config-error", "--snr-db resolved to an empty level list")
    names = _parse_strategies(cfg, allow_manual=False)
    params = parameter_grid(cfg.zeta0, cfg.q, cfg.t_max)
    grid = make_grid(cfg.n)
    try:
        report = sweep(
            cfg.gallery,
            cfg.n,
            exponent_s=cfg.s,
            snr_levels=levels,
            strategies=names,
            seed=cfg.seed,
            params=params,
            eval_points=cfg.eval_points,
            emit_curves=cfg.emit_curves,
        )
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from None

    meta = _metadata(cfg, grid, f"gallery:{cfg.gallery}", strategy=",".join(names),
                     snr_db=cfg.snr_db)
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    rows = []
    for row in report.rows:
        record = [row.snr_db]
        record.extend(row.chosen.get(strategy) for _, strategy in REPORT_COLUMNS)
        record.extend(row.l2.get(strategy) for _, strategy in REPORT_COLUMNS)
        rows.append(record)
    report_path = os.path.join(outdir, "report.csv")
    header = ["snr_db"]
    header += [f"lambda_{suffix}" for suffix, _ in REPORT_COLUMNS]
    header += [f"l2_{suffix}" for suffix, _ in REPORT_COLUMNS]
    _write_csv(report_path, meta, header, rows)
    outputs = [report_path]

    if cfg.emit_curves:
        for row in report.rows:
            l2_curve, uniform_curve = row.curve
            level = row.snr_db
            tag = str(int(level)) if float(level).is_integer() else str(level)
            curve_path = os.path.join(outdir, f"curves_{tag}dB.csv")
            _write_csv(
                curve_path,
                {**meta, "snr_db": level, "row_seed": row.row_seed},
                ["lambda", "l2_error", "uniform_error"],
                zip(params.lambdas, l2_curve, uniform_curve),
            )
            outputs.append(curve_path)

    failed = sum(1 for row in report.rows for v in row.chosen.values() if v is None)
    parts = [
        "ok",
        "command=sweep",
        f"source=gallery:{cfg.gallery}",
        f"n={grid.n_points}",
        f"levels={len(levels)}",
        f"strategies={','.join(names)}",
        f"failed_cells={failed}",
        "files=" + ",".join(outputs),
    ]
    print(" ".join(parts))
    return 0


def main(argv=None) -> int:
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
        handler = {"approximate": cmd_approximate, "select": cmd_select, "sweep": cmd_sweep}[cfg.command]
        return handler(cfg)
    except CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except ValueError as exc:
        print(f"error: config-error: {exc}", file=sys.stderr)
        return EXIT_CODES["config-error"]
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return EXIT_CODES["io-error"]


if __name__ == "__main__":
    sys.exit(main())
