"""The benchmark's workloads: inputs derived from a seed, and output checks.

Each workload is one CLI command shape run over and over.  ``prepare``
derives every command's inputs from the workload seed (the program only ever
sees the generated arguments and files); ``check`` compares one command's
output directory with the independent reference in ``reference.py``.

A run cycles through its command list.  The lists are balanced so that every
seed times the same mix of inputs: select-n501 runs each gallery signal
twice in each SNR stratum, in blocks that each hold every stratum once;
sweep-paper and approximate-n2001 run the six signals in seed-shuffled
blocks.  The per-command cost of select depends strongly on the
input (Morozov bisection runs far longer at high SNR on smooth signals), so
an unbalanced draw would move its median from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

N_PAPER = 501
N_LARGE = 2001
# The warm-up runs the workload's command shape on a small grid: it loads every
# module and code path a command takes, so set-up measures import, input
# generation and lazy initialization rather than one more full-size command.
WARMUP_N = 101
EVAL_POINTS = 10000  # the CLI default
SNR_RANGE = (10.0, 80.0)
SWEEP_LEVELS = "10:80:10"
SWEEP_DB = tuple(float(level) for level in range(10, 81, 10))
STRATEGIES = ("morozov", "lcurve", "gcv", "oracle")

NEAR_TIE = 1e-9  # relative slack on a strategy's objective between two grid indices
COEFF_RTOL = 1e-10  # norm-wise, written coefficients and dense evaluation
CURVE_RTOL = 1e-6  # elementwise, dense L2 error curves against the Parseval form


class CheckFailure(Exception):
    """An output file disagrees with the reference."""


@dataclass
class Command:
    argv: list
    case: dict
    cache: dict = field(default_factory=dict, repr=False)


def _gallery_cycle(rng, count: int) -> list:
    """``count`` gallery names, each block of six a fresh permutation."""
    names = []
    while len(names) < count:
        names.extend(ref.GALLERY_NAMES[i] for i in rng.permutation(len(ref.GALLERY_NAMES)))
    return names[:count]


def _factorial_cases(rng) -> list:
    """Every gallery signal at every SNR stratum, twice, in seed-shuffled blocks of six.

    The SNR range is cut into one stratum per signal and each case draws its
    level inside its stratum.  The blocks form Latin squares: each holds
    every stratum and every signal once.  Command cost depends mostly on the
    stratum: at high SNR the Morozov bisection often runs to its iteration
    cap, which about doubles a command.  So a run that stops after any
    number of whole blocks has timed the same mix of easy and hard cases
    whatever the seed.  Two squares give 72 distinct cases, more than a run
    completes, so no case is timed twice; a repeated slow case would add
    two slow samples at once and move op_tail_ms from seed to seed.
    """
    strata = len(ref.GALLERY_NAMES)
    lo, hi = SNR_RANGE
    width = (hi - lo) / strata
    cases = []
    for _ in range(2):
        names = [ref.GALLERY_NAMES[i] for i in rng.permutation(strata)]
        for row in rng.permutation(strata):
            block = [_draw_case(rng, names[(row + k) % strata], lo + width * k, lo + width * (k + 1))
                     for k in range(strata)]
            cases.extend(block[i] for i in rng.permutation(strata))
    return cases


def _draw_case(rng, name: str, lo: float = SNR_RANGE[0], hi: float = SNR_RANGE[1]) -> dict:
    snr = round(float(rng.uniform(lo, hi)), 2)
    return {"gallery": name, "snr_db": snr, "seed": int(rng.integers(0, 2**31 - 1))}


def _read_csv(path: str):
    """Parse a CLI CSV: ``# key: value`` metadata, a header row, numeric rows."""
    meta, rows, header = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(cell) if cell else math.nan for cell in line.split(",")])
    if header is None or not rows:
        raise CheckFailure(f"{os.path.basename(path)} has no data rows")
    table = np.array(rows, dtype=float)
    if table.shape[1] != len(header):
        raise CheckFailure(f"{os.path.basename(path)}: ragged rows")
    return meta, dict(zip(header, table.T))


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def _grid_index(lambdas: np.ndarray, lam: float) -> int:
    """Index of a grid value written by the CLI (exact up to text round trip)."""
    idx = int(np.argmin(np.abs(np.log(lambdas / lam))))
    _require(math.isclose(lambdas[idx], lam, rel_tol=1e-12), f"lambda {lam!r} is not a grid value")
    return idx


def _rel_norm(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _check_lambda_column(column: np.ndarray, lambdas: np.ndarray, what: str):
    _require(column.shape == lambdas.shape, f"{what}: {column.size} rows, expected {lambdas.size}")
    _require(np.allclose(column, lambdas, rtol=1e-12, atol=0.0), f"{what}: lambda column is off the grid")


def _paper_path(cmd: Command, clean_signal: str, snr_db: float, seed: int) -> tuple:
    """Reference path, objectives, noise norm and mean-residual norm of one gallery realization."""
    key = (clean_signal, snr_db, seed)
    if key not in cmd.cache:
        clean = ref.GALLERY[clean_signal](ref.nodes(N_PAPER))
        noisy, noise_norm = ref.noisy_samples(clean, snr_db, seed)
        path = ref.Path(noisy, ref.lambda_grid())
        objectives = {
            "lcurve": np.abs(path.curvature()),
            "gcv": path.V,
            "oracle": path.oracle_error(ref.GALLERY[clean_signal], EVAL_POINTS),
            "morozov": path.J - noise_norm**2,
        }
        cmd.cache[key] = (path, objectives, noise_norm, ref.mean_residual_norm(noisy))
    return cmd.cache[key]


def _check_failure(strategy: str, failed: bool, noise_norm: float, mean_norm: float, where: str):
    """A strategy may fail only where the reference predicts it.

    With the truth given and nonconstant data, the one documented failure
    that can happen is Morozov's noise assumption: the noise norm must not
    exceed the weighted norm of (samples - mean).  Within NEAR_TIE of that
    boundary either outcome is accepted.
    """
    gap = (noise_norm - mean_norm) / mean_norm
    may_fail = strategy == "morozov" and gap > -NEAR_TIE
    must_fail = strategy == "morozov" and gap > NEAR_TIE
    if failed:
        _require(may_fail, f"{where}: {strategy} failed, but the reference predicts a result")
    else:
        _require(not must_fail, f"{where}: morozov chose a lambda, but its noise assumption fails")


def _check_index(strategy: str, objectives: dict, idx: int, noise_norm: float, where: str):
    obj = objectives[strategy]
    if strategy == "morozov":
        accepted = ref.morozov_indices(obj, NEAR_TIE * noise_norm**2)
        _require(idx in accepted, f"{where}: morozov stopped at k={idx + 1}, reference {sorted(accepted)}")
    else:
        maximize = strategy == "lcurve"
        _require(
            ref.near_tie(obj, idx, NEAR_TIE, maximize),
            f"{where}: {strategy} chose k={idx + 1}, reference k={ref.argbest(obj, maximize) + 1}",
        )


def _check_ok_line(stdout: str, command: str):
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    _require(last.startswith(f"ok command={command} "), f"unexpected stdout {last[:80]!r}")


class SelectN501:
    """``select --strategy all`` at the paper's size N = 501."""

    name = "select-n501"

    def prepare(self, seed: int, workdir: str) -> list:
        return [self._command(case) for case in _factorial_cases(np.random.default_rng(seed))]

    def warmup(self, workdir: str) -> Command:
        return self._command({"gallery": "f1", "snr_db": 30.0, "seed": 0}, WARMUP_N)

    @staticmethod
    def _command(case: dict, n: int = N_PAPER) -> Command:
        argv = ["select", "--gallery", case["gallery"], "--n", str(n),
                "--snr-db", repr(case["snr_db"]), "--seed", str(case["seed"]), "--strategy", "all"]
        return Command(argv, case)

    def check(self, cmd: Command, outdir: str, stdout: str):
        _check_ok_line(stdout, "select")
        case = cmd.case
        path, objectives, noise_norm, mean_norm = _paper_path(cmd, case["gallery"], case["snr_db"], case["seed"])
        lambdas = path.lambdas
        _, diag = _read_csv(os.path.join(outdir, "diagnostics.csv"))
        _check_lambda_column(diag["lambda"], lambdas, "diagnostics.csv")
        with open(os.path.join(outdir, "chosen.json")) as fh:
            payload = json.load(fh)
        chosen, failed = payload.get("chosen", {}), payload.get("failed", {})
        for strategy in STRATEGIES:
            _check_failure(strategy, strategy in failed, noise_norm, mean_norm, "chosen.json")
            if strategy in failed:
                continue
            _require(strategy in chosen, f"chosen.json lacks {strategy}")
            entry = chosen[strategy]
            idx = int(entry["k"]) - 1
            _require(0 <= idx < lambdas.size, f"{strategy}: k={idx + 1} out of range")
            _check_index(strategy, objectives, idx, noise_norm, "chosen.json")
            lam = float(entry["lambda"])
            if strategy == "morozov":
                _require(math.isclose(entry["noise_norm"], noise_norm, rel_tol=1e-12),
                         "morozov noise norm differs from the realization")
                hit = bool(objectives["morozov"][idx] <= NEAR_TIE * noise_norm**2)
                lo, hi = ref.bracket(lambdas, idx, 1.0, hit)
                _require(lo * (1 - 1e-12) <= lam <= hi * (1 + 1e-12),
                         f"morozov lambda {lam!r} outside its bracket [{lo!r}, {hi!r}]")
            else:
                _require(math.isclose(lam, lambdas[idx], rel_tol=1e-12), f"{strategy}: lambda is not lambda_k")


class SweepPaper:
    """The paper's noise-level study: ``sweep`` over 10..80 dB with error curves."""

    name = "sweep-paper"
    blocks = 4

    def prepare(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        return [self._command(g, int(rng.integers(0, 2**31 - 1))) for g in _gallery_cycle(rng, 6 * self.blocks)]

    def warmup(self, workdir: str) -> Command:
        return self._command("f1", 0, WARMUP_N)

    @staticmethod
    def _command(name: str, seed: int, n: int = N_PAPER) -> Command:
        argv = ["sweep", "--gallery", name, "--n", str(n), "--snr-db", SWEEP_LEVELS,
                "--seed", str(seed), "--emit-curves"]
        return Command(argv, {"gallery": name, "seed": seed})

    def check(self, cmd: Command, outdir: str, stdout: str):
        _check_ok_line(stdout, "sweep")
        name, seed = cmd.case["gallery"], cmd.case["seed"]
        lambdas = ref.lambda_grid()
        _, report = _read_csv(os.path.join(outdir, "report.csv"))
        _require(np.array_equal(report["snr_db"], SWEEP_DB), "report.csv: wrong noise levels")
        columns = (("opt", "oracle"), ("corner", "lcurve"), ("mor", "morozov"), ("gcv", "gcv"))
        for row, level in enumerate(SWEEP_DB):
            _, objectives, noise_norm, mean_norm = _paper_path(cmd, name, level, ref.sweep_row_seed(seed, row))
            errors = objectives["oracle"]
            where = f"report.csv {level:g} dB"
            for suffix, strategy in columns:
                lam = report[f"lambda_{suffix}"][row]
                _check_failure(strategy, math.isnan(lam), noise_norm, mean_norm, where)
                if math.isnan(lam):
                    continue
                idx = _grid_index(lambdas, lam)
                _check_index(strategy, objectives, idx, noise_norm, where)
                _require(math.isclose(report[f"l2_{suffix}"][row], errors[idx], rel_tol=CURVE_RTOL),
                         f"{where}: l2_{suffix} differs from the reference error")
            tag = f"{int(level)}"
            _, curve = _read_csv(os.path.join(outdir, f"curves_{tag}dB.csv"))
            _check_lambda_column(curve["lambda"], lambdas, f"curves_{tag}dB.csv")
            worst = float(np.max(np.abs(curve["l2_error"] - errors) / errors))
            _require(worst <= CURVE_RTOL, f"curves_{tag}dB.csv: l2_error off by {worst:.2e} relative")


class ApproximateN2001:
    """``approximate --strategy gcv`` on CSV sample files with N = 2001.

    Four times the paper's size, so dense analysis and synthesis dominate.
    Not N = 4001: one command there takes about 2.3 s on two cores, too few
    per run for op_tail_ms to lie above the median.
    """

    name = "approximate-n2001"
    files = 6  # one per gallery signal, in seed order

    def prepare(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        return [self._write(workdir, f"samples_{i}.csv", _draw_case(rng, g))
                for i, g in enumerate(_gallery_cycle(rng, self.files))]

    def warmup(self, workdir: str) -> Command:
        return self._write(workdir, "warmup.csv", {"gallery": "f1", "snr_db": 30.0, "seed": 0}, WARMUP_N)

    @staticmethod
    def _write(workdir: str, filename: str, case: dict, n: int = N_LARGE) -> Command:
        x = ref.nodes(n)
        samples, _ = ref.noisy_samples(ref.GALLERY[case["gallery"]](x), case["snr_db"], case["seed"])
        path = os.path.join(workdir, filename)
        with open(path, "w") as fh:
            fh.write("x,y\n")
            fh.writelines(f"{xi!r},{yi!r}\n" for xi, yi in zip(x.tolist(), samples.tolist()))
        argv = ["approximate", "--input", path, "--strategy", "gcv"]
        return Command(argv, {**case, "input": path, "samples": samples})

    def check(self, cmd: Command, outdir: str, stdout: str):
        _check_ok_line(stdout, "approximate")
        if "path" not in cmd.cache:
            cmd.cache["path"] = ref.Path(cmd.case["samples"], ref.lambda_grid())
        path = cmd.cache["path"]
        meta, coeffs = _read_csv(os.path.join(outdir, "coefficients.csv"))
        lam = float(meta["chosen_lambda"])
        idx = _grid_index(path.lambdas, lam)
        _check_index("gcv", {"gcv": path.V}, idx, 0.0, "coefficients.csv")
        _require(_rel_norm(coeffs["source_coeff"], path.coeffs) <= COEFF_RTOL,
                 "source coefficients differ from the rfft analysis")
        alpha = path.coeffs * path.shrink[:, idx]
        _require(_rel_norm(coeffs["alpha"], alpha) <= COEFF_RTOL, "coefficients differ from the reference")
        _, evaluation = _read_csv(os.path.join(outdir, "evaluation.csv"))
        _require(np.allclose(evaluation["x"], ref.nodes(EVAL_POINTS), rtol=0.0, atol=1e-12),
                 "evaluation.csv: wrong evaluation angles")
        _require(_rel_norm(evaluation["p"], ref.synthesize(alpha, EVAL_POINTS)) <= COEFF_RTOL,
                 "evaluation.csv differs from the irfft synthesis")
        _, diag = _read_csv(os.path.join(outdir, "diagnostics.csv"))
        _check_lambda_column(diag["lambda"], path.lambdas, "diagnostics.csv")


WORKLOADS = {w.name: w for w in (SelectN501(), SweepPaper(), ApproximateN2001())}
