"""Command-line front end: approximate / select / sweep.

All commands emit CSV files with a ``# key: value`` metadata header.  Numbers
are written as Python ``repr``, the shortest text that round-trips, so
reading a cell back gives the exact float64.  Each file is formatted column
by column in blocks of rows that stream to a temp file, which is then renamed
into place, so memory stays bounded by one block and a failed write leaves
no partial file.  Runs are deterministic: identical
configuration produces byte-identical outputs.  On failure the process exits
nonzero after printing a single line ``error: <category>: <message>`` to
stderr; categories and exit codes are listed in README.md.

The :data:`OPTIONS` table is the one definition of the flags: the parser is
built from it, and a ``--config`` file's values are parsed as flags, so a
config value means exactly what its flag means.  :func:`validate_config`
then resolves the command (its noise levels, strategies, parameter grid,
gallery signal and missing strategy inputs) before any input is read, so
every config-error comes before an input fault.

The polynomial degree is always tied to the sample count as
degree = (N - 1)/2, the interpolatory setting.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
import tempfile
from collections import namedtuple

import numpy as np

from . import __version__
from .experiment import add_noise_snr, gallery, sweep
from .grid import (
    TWO_PI,
    make_grid,
    mode_layout,
    uniform_eval_points,
    uniform_rfft,
    uniform_synthesis,
)
from .penalty import _require_nonnegative, _require_positive, laplace_penalty
from .selection import (
    STRATEGIES,
    RegularizationPath,
    _require_eval_points,
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

# Rows formatted and written at a time by _write_csv.
_BLOCK_ROWS = 1024

# report.csv column -> strategy key
REPORT_COLUMNS = (("opt", "oracle"), ("corner", "lcurve"), ("mor", "morozov"), ("gcv", "gcv"))


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# Every subcommand's run options, (flag, type, default, help): the one
# definition of the flags, their defaults and the config file's keys.  A bool
# option is a store_true switch.
OPTIONS = (
    ("--gallery", str, None, "built-in signal name (see README)"),
    ("--input", str, None, "CSV file of samples with columns x,y"),
    ("--n", int, None, "number of grid points (odd)"),
    ("--strategy", str, None, "manual|morozov|lcurve|gcv|oracle|all (comma list allowed)"),
    ("--snr-db", str, None, "noise level(s) in dB: '20', '10,20' or '10:80:10'"),
    ("--seed", int, 0, "master RNG seed (default 0)"),
    ("--lambda", float, None, "regularization parameter for --strategy manual"),
    ("--s", float, 1.0, "penalty exponent (default 1)"),
    ("--zeta0", float, 1.0, "parameter-grid scale (default 1)"),
    ("--q", float, 2.0 ** -0.1, "parameter-grid ratio (default 2**-0.1)"),
    ("--t-max", int, 400, "parameter-grid length (default 400)"),
    ("--eval-points", int, 10000, "dense evaluation grid size (default 10000)"),
    ("--noise-norm", float, None, "known weighted noise norm for morozov"),
    ("--output-dir", str, ".", "directory for output files (default .)"),
    ("--emit-curves", bool, False, "sweep: also write per-lambda error curves per noise level"),
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are the CLI's one-line config-error.

    Flags must be spelled in full: a prefix such as ``--lam`` is refused,
    not taken for the one flag it abbreviates.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError("config-error", message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
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
        for flag, kind, default, option_help in OPTIONS:
            parse = {"action": "store_true"} if kind is bool else {"type": kind}
            # --snr-db is read as cfg.snr_db; --lambda, a Python keyword, as cfg.lam
            dest = flag[2:].replace("-", "_").replace("lambda", "lam")
            p.add_argument(flag, dest=dest, default=default, help=option_help, **parse)
    return parser


def _config_tokens(path: str) -> list[str]:
    """The JSON config file at ``path`` as ``--flag=value`` tokens for the parser."""
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except OSError as exc:
        raise CliError("io-error", f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError("parse-error", f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise CliError("parse-error", f"config file is not valid JSON: {exc}")
    if not isinstance(file_cfg, dict):
        raise CliError("config-error", "config file must hold a JSON object")
    kinds = {flag: kind for flag, kind, _, _ in OPTIONS}
    tokens = []
    for key, value in file_cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag not in kinds:
            raise CliError("config-error", f"unknown config key {key!r}")
        # a switch takes a JSON bool, any other flag a JSON string or number
        is_bool = isinstance(value, bool)
        if (kinds[flag] is bool) != is_bool or not isinstance(value, (str, int, float)):
            raise CliError("config-error", f"config key {key!r} cannot take {json.dumps(value)}")
        if value is not False:
            tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def build_config(argv) -> argparse.Namespace:
    """Parse and validate the flags, a config file's values parsed as flags before them."""
    argv = list(argv)
    cfg = _build_parser().parse_args(argv)
    if cfg.config:  # after the subcommand, so that the typed flags win
        cfg = _build_parser().parse_args(argv[:1] + _config_tokens(cfg.config) + argv[1:])
    return validate_config(cfg)


def validate_config(cfg: argparse.Namespace) -> argparse.Namespace:
    """Check the flags and resolve the command before any input is read: set
    ``levels``, ``names`` (the strategies), ``params`` (the grid), ``func``
    (the gallery function or None) and ``missing`` (the inputs not supplied)."""
    if (cfg.gallery is None) == (cfg.input is None):
        raise CliError("config-error", "exactly one of --gallery or --input is required")
    if cfg.gallery is None and cfg.command == "sweep":
        raise CliError("config-error", "sweep needs a --gallery signal (the true function)")
    if cfg.snr_db is not None and cfg.gallery is None:
        raise CliError("config-error", "--snr-db needs --gallery: samples read with --input get no noise")
    if cfg.input is None and cfg.n is None:
        raise CliError("config-error", "--n is required with --gallery")
    if cfg.n is not None and (cfg.n < 3 or cfg.n % 2 == 0):
        raise CliError("config-error", f"--n must be an odd integer >= 3, got {cfg.n}")
    # a ValueError is a config-error
    if cfg.lam is not None:
        _require_nonnegative(cfg.lam, "--lambda")
    if cfg.noise_norm is not None:
        _require_nonnegative(cfg.noise_norm, "--noise-norm")
    _require_nonnegative(cfg.seed, "--seed")
    _require_eval_points(cfg.eval_points, "--eval-points")
    _require_positive(cfg.s, "--s")
    _require_positive(cfg.zeta0, "--zeta0")
    cfg.levels = _parse_levels(cfg.snr_db, cfg.command)
    cfg.names = _parse_strategies(cfg)
    if cfg.lam is not None and cfg.names != ["manual"]:
        raise CliError("config-error", "--lambda applies only to --strategy manual")
    cfg.params = parameter_grid(cfg.zeta0, cfg.q, cfg.t_max)
    cfg.func = None if cfg.gallery is None else gallery(cfg.gallery)
    supplied = {"noise_norm": cfg.noise_norm is not None or bool(cfg.levels), "truth": cfg.func is not None}
    needs = {name: STRATEGIES[name].needs for name in cfg.names if name in STRATEGIES}
    cfg.missing = {name: _MISSING_INPUT[need] for name, need in needs.items() if need and not supplied[need]}
    if cfg.missing and len(cfg.names) == 1:
        raise CliError("config-error", cfg.missing[cfg.names[0]])
    return cfg


def _parse_levels(text: str | None, command: str | None = None) -> list[float]:
    """'20' -> [20]; '10,20' -> [10, 20]; '10:80:10' -> [10, 20, ..., 80].

    Every number must be finite, and a range's step > 0.  Given a
    ``command``, its rules are checked too, a range's count before its list
    is built: sweep needs at least one level and no repeats, approximate and
    select take at most one.  A range whose list does not fit in memory is
    a config-error.
    """
    if command == "sweep" and not text:
        raise CliError("config-error", "sweep needs --snr-db (e.g. '10:80:10')")
    text = (text or "").strip()
    try:
        if ":" in text:
            start, stop, step = (float(p) for p in text.split(":"))
            span = (stop - start) / step + 1e-9
            if not (0 < step < math.inf and 0 <= span < math.inf):  # NaN fails both
                raise ValueError
            count = math.floor(span) + 1
        else:
            levels = [float(p) for p in text.split(",") if p.strip()]
            if not all(map(math.isfinite, levels)):
                raise ValueError
            count = len(levels)
    except ValueError:
        raise CliError("parse-error", f"cannot parse --snr-db value {text!r}") from None
    if command in ("approximate", "select") and count > 1:
        raise CliError("config-error", f"{command} takes a single --snr-db value")
    if ":" in text:
        try:
            levels = [start + i * step for i in range(count)]
        except MemoryError:
            message = f"--snr-db {text!r} names {count} levels, more than fit in memory"
            raise CliError("config-error", message) from None
    if command == "sweep":
        if not levels:
            raise CliError("config-error", "--snr-db resolved to an empty level list")
        repeated = _first_repeat(levels)
        if repeated is not None:
            raise CliError("config-error", f"--snr-db names the level {_fmt(repeated)} more than once")
    return levels


def _first_repeat(items):
    """The first entry of ``items`` that an earlier entry equals, or None."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def _parse_strategies(cfg: argparse.Namespace) -> list[str]:
    approximate = cfg.command == "approximate"
    raw = cfg.strategy or ("manual" if approximate and cfg.lam is not None else "all")
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if "all" in names:
        names = list(STRATEGIES)
    for name in names:
        if name not in STRATEGIES and name != "manual":
            raise CliError("config-error", f"unknown strategy {name!r}")
        if name == "manual" and not approximate:
            raise CliError("config-error", "strategy 'manual' only applies to approximate")
    if not names:
        raise CliError("config-error", "no strategy given")
    if approximate and len(names) > 1:
        raise CliError("config-error", "approximate takes a single --strategy")
    repeated = _first_repeat(names)
    if repeated is not None:
        raise CliError("config-error", f"--strategy names {repeated!r} more than once")
    if names == ["manual"] and cfg.lam is None:
        raise CliError("config-error", "--strategy manual needs --lambda")
    return names


# ---------------------------------------------------------------------------
# Input handling and file output
# ---------------------------------------------------------------------------


def _undecodable_line(path: str) -> int:
    """The line holding the first byte of ``path`` that is not UTF-8.

    The text reader decodes ahead in chunks, so its own position does not
    tell the line; the error path reads the bytes once more instead.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 1  # the file changed under the reader


def _read_samples_csv(path: str):
    xs, ys = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
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
    except OSError as exc:
        raise CliError("io-error", f"cannot read samples: {exc}")
    except csv.Error as exc:  # e.g. a field over the reader's size limit
        raise CliError("parse-error", f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise CliError("parse-error", f"{path}:{_undecodable_line(path)}: not UTF-8 text") from None
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
    return np.asarray(ys, dtype=float)


def _prepare_input(cfg: argparse.Namespace):
    """Resolve (samples, noise norm or None, source label); --noise-norm wins."""
    if cfg.func is not None:
        clean = np.asarray(cfg.func(make_grid(cfg.n).nodes), dtype=float)
        if not cfg.levels:
            return clean, cfg.noise_norm, f"gallery:{cfg.gallery}"
        realization = add_noise_snr(clean, cfg.levels[0], cfg.seed)
        noise_norm = realization.eps_wnorm if cfg.noise_norm is None else cfg.noise_norm
        return realization.noisy, noise_norm, f"gallery:{cfg.gallery}"
    samples = _read_samples_csv(cfg.input)
    if cfg.n is not None and cfg.n != samples.size:
        raise CliError("grid-error", f"--n {cfg.n} contradicts the {samples.size} samples of {cfg.input}")
    return samples, cfg.noise_norm, f"input:{cfg.input}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _atomic_write(path: str, chunks):
    """Write the text chunks to a temp file beside ``path``, then rename it there."""
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-trigreg-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError("io-error", f"cannot write {path}: {exc}")


def _cells(column, start: int, stop: int):
    """The text of rows start..stop-1 of one column (see :func:`_write_csv`)."""
    if column is None:
        return itertools.repeat("", stop - start)
    if isinstance(column, np.ndarray):
        return map(repr if column.dtype.kind == "f" else str, column[start:stop].tolist())
    return map(_fmt, column[start:stop])


def _write_csv(path: str, metadata: dict, header: list[str], columns):
    """Write a ``# key: value`` metadata block, the header and the columns.

    Each column is a float array (cells written as ``repr``, the shortest
    text that reads back as the same float64), an int array (``str``), a
    list whose cells may be None (:func:`_fmt`) or None (an empty column).
    Each column is formatted once per block of ``_BLOCK_ROWS`` rows, and the
    blocks stream to the temp file, so memory stays O(block), not O(rows).
    """
    n_rows = max(len(column) for column in columns if column is not None)
    lines = [f"# {key}: {_fmt(value)}" for key, value in metadata.items() if value is not None]
    lines.append(",".join(header))

    def chunks():
        yield "\n".join(lines) + "\n"
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            rows = zip(*(_cells(column, start, stop) for column in columns))
            yield "\n".join(map(",".join, rows)) + "\n"

    _atomic_write(path, chunks())


def _metadata(cfg: argparse.Namespace, n_points: int, source: str, **extra) -> dict:
    meta = {
        "tool": "trigreg",
        "version": __version__,
        "command": cfg.command,
        "source": source,
        "n_points": n_points,
        "degree": (n_points - 1) // 2,
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
# The first half shared by approximate and select
# ---------------------------------------------------------------------------


# What approximate and select share: the samples, their one path, the
# strategies' reports and failures (run_strategies' own, plus cfg.missing)
# and the output files' metadata.
_Scan = namedtuple("_Scan", "samples path reports failures meta")


def _scan(cfg: argparse.Namespace) -> _Scan:
    """Input -> one RegularizationPath -> the named strategies.

    The samples are projected once, and every strategy reads that path.  A
    single named strategy that fails raises a strategy-error.
    """
    samples, noise_norm, source = _prepare_input(cfg)
    inputs = {"noise_norm": noise_norm, "truth": None}
    if cfg.func is not None and "oracle" in cfg.names:
        inputs["truth"] = uniform_rfft(cfg.func(uniform_eval_points(cfg.eval_points)))
    path = RegularizationPath.from_samples(
        samples, laplace_penalty((samples.size - 1) // 2, cfg.s), cfg.params.lambdas
    )
    strategies = [name for name in cfg.names if name in STRATEGIES and name not in cfg.missing]
    reports, failures = run_strategies(path, cfg.params, strategies, **inputs)
    if failures and len(cfg.names) == 1:
        raise CliError("strategy-error", failures[cfg.names[0]])
    meta = _metadata(
        cfg, samples.size, source,
        strategy=",".join(cfg.names),
        snr_db=cfg.levels[0] if cfg.levels else None,
        noise_norm=noise_norm,
    )
    return _Scan(samples, path, reports, {**cfg.missing, **failures}, meta)


def _write_diagnostics(outdir: str, meta: dict, run: _Scan) -> str:
    """Write the path's lambda,J,K,kappa,V,F table.  A column is filled only
    when a strategy that reads it chose a lambda: J when Morozov or the
    L-curve did, K and kappa when the L-curve did, and V and F are the GCV
    and Morozov objectives."""
    lcurve = "lcurve" in run.reports
    objective = {name: report.objective for name, report in run.reports.items()}
    columns = [run.path.residual_sq() if lcurve or "morozov" in run.reports else None,
               run.path.penalty_sq() if lcurve else None, run.path.curvature() if lcurve else None,
               objective.get("gcv"), objective.get("morozov")]
    path = os.path.join(outdir, "diagnostics.csv")
    _write_csv(path, meta, ["lambda", "J", "K", "kappa", "V", "F"], [run.path.lambdas, *columns])
    return path


def _chosen_entry(report, noise_norm):
    entry = {"lambda": report.chosen_lambda, "k": report.chosen_index + 1}
    if report.refined:
        entry["refined"] = True
    if report.strategy == "morozov":  # a Morozov report means its noise assumption held
        entry.update(assumption_ok=True, noise_norm=noise_norm)
    return entry


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_approximate(cfg: argparse.Namespace) -> int:
    run = _scan(cfg)
    n, degree = run.path.n_points, run.path.coeffs.size // 2
    strategy = cfg.names[0]
    lam = cfg.lam if strategy == "manual" else run.reports[strategy].chosen_lambda
    alpha = run.path.alpha(lam)
    meta = {**run.meta, "chosen_lambda": lam}

    # every array first: a size that does not fit in memory then leaves no file
    x = uniform_eval_points(cfg.eval_points)
    values = uniform_synthesis(alpha, cfg.eval_points)
    node_residual = float(np.max(np.abs(uniform_synthesis(alpha, n) - run.samples)))
    parts = [
        "ok",
        "command=approximate",
        f"source={meta['source']}",
        f"n={n}",
        f"degree={degree}",
        f"s={_fmt(cfg.s)}",
        f"strategy={strategy}",
        f"lambda={_fmt(lam)}",
        f"max_node_residual={_fmt(node_residual)}",
    ]
    if cfg.func is not None:
        diff = values - np.asarray(cfg.func(x), dtype=float)
        parts.append(f"l2_error_vs_truth={_fmt(math.sqrt(TWO_PI / x.size * float(diff @ diff)))}")

    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    coeff_path = os.path.join(outdir, "coefficients.csv")
    _write_csv(coeff_path, meta, ["ell", "k", "alpha", "source_coeff"],
               [*mode_layout(degree), alpha, run.path.coeffs])
    eval_path = os.path.join(outdir, "evaluation.csv")
    _write_csv(eval_path, meta, ["x", "p"], [x, values])
    outputs = [coeff_path, eval_path]
    if run.reports:
        outputs.append(_write_diagnostics(outdir, meta, run))

    if not np.any(run.path.coeffs):
        parts.append("zero_data=true")
    parts.append("files=" + ",".join(outputs))
    print(" ".join(parts))
    return 0


def cmd_select(cfg: argparse.Namespace) -> int:
    run = _scan(cfg)
    noise_norm = run.meta["noise_norm"]
    chosen = {name: _chosen_entry(report, noise_norm) for name, report in run.reports.items()}
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    diag_path = _write_diagnostics(outdir, run.meta, run)
    chosen_path = os.path.join(outdir, "chosen.json")
    payload = {"metadata": {k: _fmt(v) for k, v in run.meta.items()}, "chosen": chosen}
    if run.failures:
        payload["failed"] = run.failures
    _atomic_write(chosen_path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])

    parts = ["ok", "command=select", f"source={run.meta['source']}", f"n={run.path.n_points}"]
    for name in cfg.names:
        if name in chosen:
            parts.append(f"lambda_{name}={_fmt(chosen[name]['lambda'])}")
        else:
            parts.append(f"lambda_{name}=failed")
    parts.append(f"files={diag_path},{chosen_path}")
    print(" ".join(parts))
    return 0


def cmd_sweep(cfg: argparse.Namespace) -> int:
    rows = sweep(
        cfg.func,
        cfg.n,
        exponent_s=cfg.s,
        snr_levels=cfg.levels,
        strategies=cfg.names,
        seed=cfg.seed,
        params=cfg.params,
        eval_points=cfg.eval_points,
        emit_curves=cfg.emit_curves,
    )

    meta = _metadata(cfg, cfg.n, f"gallery:{cfg.gallery}", strategy=",".join(cfg.names), snr_db=cfg.snr_db)
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    columns = [[row.snr_db for row in rows]]
    columns += [[row.reports[strategy].chosen_lambda if strategy in row.reports else None for row in rows]
                for _, strategy in REPORT_COLUMNS]
    columns += [[row.l2.get(strategy) for row in rows] for _, strategy in REPORT_COLUMNS]
    report_path = os.path.join(outdir, "report.csv")
    header = ["snr_db"]
    header += [f"lambda_{suffix}" for suffix, _ in REPORT_COLUMNS]
    header += [f"l2_{suffix}" for suffix, _ in REPORT_COLUMNS]
    _write_csv(report_path, meta, header, columns)
    outputs = [report_path]

    if cfg.emit_curves:
        for row in rows:
            l2_curve, uniform_curve = row.curve
            level = row.snr_db
            tag = str(int(level)) if float(level).is_integer() else str(level)
            curve_path = os.path.join(outdir, f"curves_{tag}dB.csv")
            _write_csv(
                curve_path,
                {**meta, "snr_db": level, "row_seed": row.row_seed},
                ["lambda", "l2_error", "uniform_error"],
                [cfg.params.lambdas, l2_curve, uniform_curve],
            )
            outputs.append(curve_path)

    parts = [
        "ok",
        "command=sweep",
        f"source=gallery:{cfg.gallery}",
        f"n={cfg.n}",
        f"levels={len(cfg.levels)}",
        f"strategies={','.join(cfg.names)}",
        f"failed_cells={sum(len(row.failures) for row in rows)}",
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
    except MemoryError as exc:  # a size the flags or the input ask for
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: config-error: the command does not fit in memory{detail}", file=sys.stderr)
        return EXIT_CODES["config-error"]
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return EXIT_CODES["io-error"]


if __name__ == "__main__":
    sys.exit(main())
