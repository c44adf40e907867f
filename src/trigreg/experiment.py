"""Seeded noise experiments: signal gallery, error metrics, strategy sweeps.

Noise convention
----------------
Noise is injected at a prescribed signal-to-noise ratio defined as

    SNR = 10 * log10(P_signal / (alpha * P_noise)),

where P_signal is the root-mean-square of the clean samples and P_noise the
standard deviation (ddof=0) of a raw standard-normal draw.  Solving for the
scale gives alpha = P_signal / (P_noise * 10**(snr_db/10)); the additive
noise is alpha times the raw draw.  The raw draw comes from
``numpy.random.default_rng(seed).standard_normal(N)``, so a (seed, N) pair
pins the realization bit for bit, and the scaled noise vector is kept on the
realization so every experiment is replayable.

Gallery conventions
-------------------
``f1``       exp(cos(x))                      (smooth, rapidly decaying modes)
``f2``       exp(cos(x)) + sin(30*x)          (smooth plus one high frequency)
``sine``     sin(x)
``square``   sign(sin(x))                     (unit amplitude, 0 at the jumps)
``sawtooth`` x/pi on [-pi, pi), continued 2*pi-periodically (unit amplitude)
``triangle`` (2/pi) * arcsin(sin(x))          (unit amplitude)

Sweep errors
------------
Errors are measured on the K-point evaluation grid ``uniform_eval_points(K)``,
any K, from the spectrum of p_lam - f against the truth's one rfft
(:meth:`~trigreg.selection.RegularizationPath.error_head`): the L2 curve by
Parseval (:meth:`~trigreg.selection.RegularizationPath.l2_error`), the
uniform error by one irfft per lambda, on every usable core
(:func:`uniform_error_curve`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .grid import (
    TWO_PI,
    FourierCoefficients,
    analyze,
    make_grid,
    mode_layout,
    uniform_eval_points,
    uniform_rfft,
)
from .penalty import laplace_penalty
from .selection import (
    STRATEGIES,
    ParameterGrid,
    RegularizationPath,
    _require_eval_points,
    parameter_grid,
    run_strategies,
)

__all__ = [
    "NoisyRealization",
    "SweepRow",
    "add_noise_snr",
    "uniform_error_curve",
    "gallery",
    "gallery_names",
    "vallee_poussin",
    "vallee_poussin_filter",
    "sweep",
]


# ---------------------------------------------------------------------------
# Noise injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoisyRealization:
    """One seeded noisy sampling of a signal, with the noise kept for replay.

    ``epsilon`` is the scaled additive noise (noisy - clean), ``alpha_scale``
    the factor applied to the raw draw, ``eps_sup`` its max-norm and
    ``eps_wnorm`` its weighted 2-norm sqrt((2*pi/N) * sum eps**2).
    """

    clean: np.ndarray
    noisy: np.ndarray
    epsilon: np.ndarray
    snr_db: float
    seed: int
    alpha_scale: float
    eps_sup: float
    eps_wnorm: float


def add_noise_snr(clean, snr_db: float, seed: int) -> NoisyRealization:
    """Add seeded Gaussian noise scaled to the requested SNR (in dB)."""
    clean = np.asarray(clean, dtype=float)
    if clean.ndim != 1 or clean.size == 0:
        raise ValueError("clean samples must be a nonempty 1-d vector")
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    p_signal = float(np.sqrt(np.mean(clean**2)))
    if p_signal == 0.0:
        raise ValueError("SNR is undefined for an identically zero signal")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(clean.size)
    p_noise = float(np.std(raw))
    alpha = p_signal / (p_noise * 10.0 ** (snr_db / 10.0))
    epsilon = alpha * raw
    n = clean.size
    return NoisyRealization(
        clean=clean,
        noisy=clean + epsilon,
        epsilon=epsilon,
        snr_db=float(snr_db),
        seed=int(seed) if np.ndim(seed) == 0 else seed,
        alpha_scale=alpha,
        eps_sup=float(np.max(np.abs(epsilon))),
        eps_wnorm=float(np.sqrt(TWO_PI / n * np.dot(epsilon, epsilon))),
    )


# ---------------------------------------------------------------------------
# Signal gallery
# ---------------------------------------------------------------------------


def _sawtooth(x):
    return np.mod(np.asarray(x, dtype=float) + np.pi, TWO_PI) / np.pi - 1.0


_GALLERY = {
    "f1": lambda x: np.exp(np.cos(x)),
    "f2": lambda x: np.exp(np.cos(x)) + np.sin(30.0 * np.asarray(x, dtype=float)),
    "sine": np.sin,
    "square": lambda x: np.sign(np.sin(x)),
    "sawtooth": _sawtooth,
    "triangle": lambda x: 2.0 / np.pi * np.arcsin(np.sin(x)),
}


def gallery_names() -> list[str]:
    return sorted(_GALLERY)


def gallery(name: str):
    """Look up a test signal by name; see the module docstring for definitions."""
    try:
        return _GALLERY[name]
    except KeyError:
        raise ValueError(
            f"unknown gallery function {name!r}; choose one of {', '.join(gallery_names())}"
        ) from None


# ---------------------------------------------------------------------------
# Delayed-mean filtered approximation
# ---------------------------------------------------------------------------


def vallee_poussin_filter(ell: int, n: int) -> float:
    """Taper weight of frequency ell: 1 up to n, then linear decay to 0 at 2n."""
    if n < 1:
        raise ValueError(f"filter half-degree n must be >= 1, got {n}")
    if ell < 0:
        raise ValueError(f"frequency must be >= 0, got {ell}")
    if ell <= n:
        return 1.0
    if ell <= 2 * n - 1:
        return 1.0 - (ell - n) / n
    return 0.0


def vallee_poussin(f, n: int, quad_points: int) -> FourierCoefficients:
    """de la Vallee Poussin mean of ``f``: a degree 2n-1 polynomial whose
    coefficients are tapered quadrature approximations of the true ones.

    Reproduces every polynomial of degree <= n exactly and never amplifies
    the sup-norm by more than a factor 3.  ``quad_points`` must be odd and
    at least 4n+1 so the coefficient quadrature is exact through degree 2n.
    The result is callable.
    """
    if n < 1:
        raise ValueError(f"half-degree n must be >= 1, got {n}")
    if quad_points < 4 * n + 1:
        raise ValueError(
            f"quadrature with {quad_points} nodes cannot resolve the filtered "
            f"coefficients; need quad_points >= {4 * n + 1}"
        )
    grid = make_grid(quad_points)
    coeffs = analyze(np.asarray(f(grid.nodes), dtype=float), grid, 2 * n - 1)
    ells, _ = mode_layout(coeffs.degree)
    taper = np.array([vallee_poussin_filter(ell, n) for ell in ells.tolist()])
    return FourierCoefficients(
        degree=coeffs.degree, values=taper * coeffs.values, n_points=quad_points
    )


# ---------------------------------------------------------------------------
# Sweep protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SweepRow:
    """One noise level of :func:`sweep`.

    ``reports`` and ``failures`` are what
    :func:`~trigreg.selection.run_strategies` returned on the level's path:
    the :class:`~trigreg.selection.SelectionReport` of each strategy that
    chose a grid lambda, and the message of each that raised.  ``l2`` and
    ``uniform`` hold the errors at each report's pick, keyed as ``reports``.
    ``curve`` optionally carries the per-lambda (l2, uniform) error arrays
    over the parameter grid.  ``add_noise_snr(clean, snr_db, row_seed)``
    replays the level's noise.
    """

    snr_db: float
    row_seed: int
    reports: dict
    failures: dict
    l2: dict
    uniform: dict
    curve: tuple | None = None


# Lambdas in flight in the uniform-error sweep: each of the W worker threads
# (see _worker_count) irffts ceil(16 / W) of them per call, so the buffers
# hold about 16 spectra whatever the core count.  A count, not a memory
# budget: each irfft call also pays a set-up cost that grows with K (about
# 50 ms at K = 10**5 + 1, whose prime factor 9091 takes Bluestein's
# algorithm), so fewer rows per call at large K would multiply it.  On a
# 2-core x86_64 host, one thread with 16 per call beat 32 at K = 10**4 (28
# against 32 ms per 400-lambda row) and tied it at K = 10**5 + 1.  Each
# lambda's irfft is the same call on the same data whatever the block, so
# the curve is bitwise independent of the core count.
_SYNTHESIS_BLOCK = 16

# Cores this process may run on, read once at import.
_USABLE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker_count(n_lambdas: int) -> int:
    """Threads :func:`uniform_error_curve` uses for ``n_lambdas`` lambdas:
    one per usable core, at most one per block of ``_SYNTHESIS_BLOCK``
    (so also at most ``_SYNTHESIS_BLOCK``: each irffts one lambda or more)."""
    blocks = -(-n_lambdas // _SYNTHESIS_BLOCK)
    return max(1, min(_USABLE_CORES, blocks, _SYNTHESIS_BLOCK))


def _on_threads(task, workers: int) -> None:
    """Run ``task(0)`` on the calling thread and ``task(1)`` ...
    ``task(workers - 1)`` on helper threads under the caller's numpy error
    state.  Every helper is joined before this returns or raises; then the
    first exception a helper raised is re-raised here."""
    errstate = np.geterr()
    failures = []

    def helper(index):
        try:
            with np.errstate(**errstate):
                task(index)
        except BaseException as exc:  # re-raised on the calling thread below
            failures.append(exc)

    started = []
    try:
        for index in range(1, workers):
            thread = threading.Thread(target=helper, args=(index,), name=f"trigreg-worker-{index}")
            thread.start()
            started.append(thread)
        task(0)
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise failures[0]


def uniform_error_curve(path: RegularizationPath, lambdas, truth_spectrum: np.ndarray,
                        n_points: int) -> np.ndarray:
    """Uniform error max |p_lam - f| over ``uniform_eval_points(K)`` for each lambda.

    ``p_lam`` is the solution of ``path`` at each of ``lambdas`` (a 1-d
    array), and (``truth_spectrum``, ``n_points``) is the
    :func:`~trigreg.grid.uniform_rfft` pair of f on K points, any K.  The
    spectrum of p_lam - f is the path's :meth:`RegularizationPath.error_head`,
    then the truth's negated tail.

    The lambdas go in blocks to one worker per usable core (at most one per
    16 lambdas), dealt out in turn by start index; the calling thread is
    worker 0 and the others are helper threads that run numpy alone, all
    joined before return.  Each worker owns one buffer whose tail it writes
    once; per block it writes only the (block, L+1) head, and one irfft and
    one max-abs reduction give that block's errors.  The workers share the
    16 lambdas in flight, and no (T, K) array is formed.  The result is
    bitwise the same for any core count.
    """
    size, write = path.error_head(truth_spectrum, n_points)
    errors = np.empty(len(lambdas))
    workers = _worker_count(len(lambdas))
    width = -(-_SYNTHESIS_BLOCK // workers)  # lambdas per irfft call
    stride = workers * width

    def fill(worker):
        spectra = np.empty((min(width, len(lambdas)), truth_spectrum.size), dtype=complex)
        np.negative(truth_spectrum[size:], out=spectra[:, size:])
        for start in range(worker * width, len(lambdas), stride):
            lam = lambdas[start : start + width]
            spec = spectra[: lam.size]
            write(path.factors(lam)[0], spec)
            diff = np.fft.irfft(spec, n=n_points)
            errors[start : start + lam.size] = np.abs(diff, out=diff).max(axis=-1)

    _on_threads(fill, workers)
    return errors


def _row_seed(seed: int, index: int) -> int:
    """Independent per-row stream derived from (master seed, row index)."""
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1, np.uint64)[0])


def sweep(
    function,
    n_points: int,
    exponent_s: float = 1.0,
    snr_levels=(10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0),
    strategies=tuple(STRATEGIES),
    seed: int = 0,
    params: ParameterGrid | None = None,
    eval_points: int = 10000,
    emit_curves: bool = False,
) -> tuple[SweepRow, ...]:
    """Run every requested strategy at every SNR level on one signal.

    ``function`` is a gallery name or a callable.  Returns one
    :class:`SweepRow` per level, in ``snr_levels`` order.  The polynomial
    degree is (N-1)/2, i.e. the interpolatory setting, and every chosen
    lambda is a grid value (no bisection refinement) so rows stay
    comparable.  Identical arguments produce identical rows, bit for bit;
    each row draws its noise from an independent stream derived from
    (seed, row index).  Each row analyzes its samples once and runs every
    strategy on that one path (:func:`~trigreg.selection.run_strategies`).
    Errors are measured on K = ``eval_points`` >= 1000 points, as the
    oracle's are.
    """
    _require_eval_points(eval_points)
    func = gallery(function) if isinstance(function, str) else function
    grid = make_grid(n_points)
    degree = (grid.n_points - 1) // 2
    pen = laplace_penalty(degree, exponent_s)
    if params is None:
        params = parameter_grid()
    clean = np.asarray(func(grid.nodes), dtype=float)

    # The L2 curves come from the closed-form path (Parseval on the evaluation
    # grid); the uniform errors from p_lam - f in the rfft domain of that grid.
    truth = uniform_rfft(func(uniform_eval_points(eval_points)))

    rows = []
    for i, snr_db in enumerate(snr_levels):
        row_seed = _row_seed(seed, i)
        realization = add_noise_snr(clean, snr_db, row_seed)
        path = RegularizationPath.from_samples(realization.noisy, grid, degree, pen, params.lambdas)
        reports, failures = run_strategies(
            path, params, strategies,
            noise_norm=realization.eps_wnorm, truth=truth, refine=False,
        )
        l2_curve = reports["oracle"].l2_error if "oracle" in reports else path.l2_error(*truth)
        picks = {name: report.chosen_index for name, report in reports.items()}

        # every grid lambda for the curves, else the chosen ones (grid values:
        # no refinement here)
        columns = range(params.t_max) if emit_curves else sorted(set(picks.values()))
        uniform = uniform_error_curve(path, params.lambdas[list(columns)], *truth)
        uniform_at = dict(zip(columns, uniform.tolist()))
        rows.append(
            SweepRow(
                snr_db=float(snr_db),
                row_seed=row_seed,
                reports=reports,
                failures=failures,
                l2={name: float(l2_curve[idx]) for name, idx in picks.items()},
                uniform={name: uniform_at[idx] for name, idx in picks.items()},
                curve=(l2_curve, uniform) if emit_curves else None,
            )
        )
    return tuple(rows)
