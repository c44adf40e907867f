"""Automatic choice of the regularization parameter.

Three data-driven strategies plus a truth-aware oracle scan a geometric
parameter grid lambda_k = zeta0 * q**k, k = 1..T:

* discrepancy principle (``select_morozov``): largest grid lambda whose
  weighted node residual has dropped to the known noise level, optionally
  bisection-refined inside its bracket;
* L-curve (``select_lcurve``): maximal-curvature corner of the log-log
  residual-versus-smoothness curve, using a closed-form curvature;
* generalized cross validation (``select_gcv``): minimizer of the GCV score,
  in closed form for every N >= 2L + 1;
* oracle (``select_oracle``): minimizer of the true L2 error, for benchmarks.

N is the number of samples and L the penalty's degree: interpolation when
N = 2L + 1, hyperinterpolation when N > 2L + 1.  Each strategy is a pure
function of one :class:`RegularizationPath` that returns a
:class:`SelectionReport` with a chosen lambda and the objective it ranked,
or raises a :class:`SelectionError`; :func:`_pick` builds every report.
:data:`STRATEGIES`, the single list of them, maps each name to its runner;
:func:`run_strategies` runs any of them on one shared path, and each
``select_*`` function builds a path and calls its registry entry.

Every diagnostic reads one penalty weight per frequency, zero on the
constant mode, as every :class:`~trigreg.penalty.PenaltySequence` holds.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import (TWO_PI, _alias, _fold, _validated_samples, mode_layout, uniform_eval_points,
                   uniform_projection, uniform_rfft)
from .penalty import PenaltySequence, _require_nonnegative, _require_positive

__all__ = [
    "SelectionError",
    "InapplicableStrategyError",
    "ParameterGrid",
    "RegularizationPath",
    "SelectionReport",
    "parameter_grid",
    "residual_sq",
    "select_morozov",
    "select_lcurve",
    "select_gcv",
    "select_oracle",
    "STRATEGIES",
    "run_strategies",
]


class SelectionError(RuntimeError):
    """A selection strategy could not produce a parameter."""


class InapplicableStrategyError(SelectionError):
    """The data violates the strategy's assumption or degenerates its objective
    (e.g. a noise norm Morozov cannot meet, or nothing to penalize)."""


@dataclass(frozen=True, eq=False)
class ParameterGrid:
    """Geometric candidate grid lambda_k = zeta0 * q**k, k = 1..t_max (decreasing)."""

    zeta0: float
    q: float
    t_max: int
    lambdas: np.ndarray


def parameter_grid(zeta0: float = 1.0, q: float = 2.0 ** -0.1, t_max: int = 400) -> ParameterGrid:
    """Build the candidate grid; defaults span [2**-40, 2**-0.1].

    Requires a finite zeta0 > 0, 0 < q < 1, t_max >= 1, a smallest value
    zeta0*q**t_max that is a normal float (not 0.0 or subnormal) and t_max
    values that fit in memory.
    """
    _require_positive(zeta0, "zeta0")
    if not 0.0 < q < 1.0:
        raise ValueError(f"ratio q must lie strictly between 0 and 1, got {q}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    # the last grid value, from the array power loop that builds the grid (a
    # scalar power may differ from it in the last bit), before t_max are built
    smallest = zeta0 * np.power(float(q), np.array([float(t_max)]))[0]
    if smallest < np.finfo(float).tiny:
        raise ValueError(
            f"parameter grid underflows: zeta0*q**t_max = {float(smallest)!r} with zeta0={zeta0}, "
            f"q={q}, t_max={t_max} is below the smallest normal float {float(np.finfo(float).tiny)!r}"
        )
    try:
        lambdas = zeta0 * np.power(float(q), np.arange(1, int(t_max) + 1, dtype=float))
    except MemoryError:
        raise ValueError(f"parameter grid of t_max={t_max} values does not fit in memory") from None
    lambdas.flags.writeable = False
    return ParameterGrid(zeta0=float(zeta0), q=float(q), t_max=int(t_max), lambdas=lambdas)


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Outcome of one strategy: the chosen parameter and the curve it ranked.

    A strategy that cannot choose raises a :class:`SelectionError` instead,
    so every report holds a chosen lambda.  ``chosen_index`` is the 0-based
    offset into ``lambdas`` the scan stopped at; when ``refined`` is set,
    ``chosen_lambda`` was bisection-refined and lies between neighboring
    grid values instead of exactly on one.  Every report, Morozov's refined
    one too, is built by :func:`_pick`.

    ``objective`` is the per-lambda array the strategy ranked: the
    discrepancy F = J - noise_norm**2 (Morozov, first F <= 0), the absolute
    curvature |kappa| (L-curve, maximum), the GCV score V (minimum) or the
    L2 error (oracle, minimum).  Every other per-lambda diagnostic is a
    :class:`RegularizationPath` method.
    """

    strategy: str
    lambdas: np.ndarray
    chosen_lambda: float
    chosen_index: int
    objective: np.ndarray
    refined: bool = False


# ---------------------------------------------------------------------------
# Per-lambda diagnostics: closed forms in the coefficients of the samples,
# held by RegularizationPath.  residual_sq below reads one at one lambda.
# ---------------------------------------------------------------------------

# Entries per (block, L+1) factor table in a path scan (32 KB of float64).
# On a 2-core x86_64 host 2**13 scanned 0.15 ms faster at N = 501 (0.5 ms at
# N = 2001), but its two buffers add 64 KB each to a select command's peak.
_BLOCK_ELEMENTS = 2**12


def _paired(coeffs: np.ndarray) -> np.ndarray:
    """Canonical-order coefficients as (cosine, sine) rows over ell = 0..L (no sine at 0)."""
    ells, branches = mode_layout(coeffs.size // 2)
    pairs = np.zeros((2, ells[-1] + 1))
    pairs[branches - 1, ells] = coeffs
    return pairs


@dataclass(frozen=True, eq=False)
class RegularizationPath:
    """Closed-form diagnostics of the regularized solve along a lambda path.

    The solve shrinks each discrete Fourier coefficient c of the samples by
    s = 1/(1 + lam*beta**2).  Cosine and sine of frequency ell share beta,
    so ``beta_sq`` holds one entry per frequency ell = 0..L, and the path
    keeps one table per frequency (:meth:`factors`) of s and
    w = lam*beta**2 * s (1 - s without the cancellation), both in [0, 1].
    With e = c_cos**2 + c_sin**2, every scan diagnostic is a bounded sum:

        J - r0 = sum w**2 * e             J: weighted squared node residual
        A      = sum w * s * e            = lam * K,  K: squared seminorm
        B      = -2 * sum w**2 * s * e    = lam**2 * K',  K' = dK/dlam
        trace  = sum of w over modes      tr(I - H) - (N - (2L + 1)), H the hat matrix

    so K = A/lam and K' = B/lam**2, formed directly at lam = 0.  ``r0`` =
    ||f - P_L f||_N**2, the part of the samples no degree-L polynomial
    reaches, is 0 when N = 2L + 1 and otherwise the Parseval remainder of
    :func:`~trigreg.grid.uniform_projection`.  ``n_points`` is N.

    ``lambdas`` is a 1-d array; each diagnostic comes back as a fresh array
    of that length.  :meth:`factors`, :meth:`residual_sq` and :meth:`alpha`
    also take explicit lambdas.  Each costs O(L) per lambda, with no basis
    matrix.
    """

    coeffs: np.ndarray
    beta_sq: np.ndarray
    lambdas: np.ndarray
    r0: float
    n_points: int

    @classmethod
    def from_samples(cls, samples, penalty: PenaltySequence, lambdas) -> "RegularizationPath":
        """Project the samples once onto the penalty's degree and set up the path over ``lambdas``."""
        samples = _validated_samples(samples, penalty.degree)
        coeffs, r0 = uniform_projection(samples, penalty.degree)
        return cls(coeffs, penalty.beta**2, lambdas, r0, samples.size)

    @cached_property
    def _energy(self):
        """The energy e = c_cos**2 + c_sin**2 of each frequency ell = 0..L."""
        pairs = _paired(self.coeffs)
        return np.einsum("ij,ij->j", pairs, pairs)

    @cached_property
    def _lam_limit(self) -> float:
        """A lambda up to which no 1 + lam*beta**2 overflows."""
        top = float(self.beta_sq.max())
        return np.finfo(float).max / (2.0 * top) if top > 0 else math.inf

    def factors(self, lam):
        """The factors s and w of each frequency at the given lambdas, shape
        (..., L+1).  Where lam*beta**2 overflows, s = 0 and w = 1, their
        limits: only lambdas above ``_lam_limit`` take that branch, so every
        finite entry is the same on either side of it.  A float (a bisection
        step) is compared as it is, with no array reduction."""
        top = lam if isinstance(lam, float) else np.max(lam, initial=0.0)
        return self._factors(lam, None, top > self._lam_limit)

    def _factors(self, lam, out, overflows: bool):
        shrink, weight = out if out is not None else np.empty((2, *np.shape(lam), self.beta_sq.size))
        with np.errstate(all="ignore") if overflows else nullcontext():
            np.multiply.outer(lam, self.beta_sq, out=weight)
            np.add(weight, 1.0, out=shrink)
            np.reciprocal(shrink, out=shrink)
            weight *= shrink
        if overflows:
            weight[shrink == 0] = 1.0  # inf * 0; s = 1/(1 + x) > 0 for every finite x
        return shrink, weight

    @cached_property
    def _step(self) -> int:  # lambdas per block of _blocks
        return max(1, _BLOCK_ELEMENTS // self.beta_sq.size)

    def _blocks(self):
        """Yield (slice, s, w) over blocks of the path's lambdas: (block, L+1)
        factors of at most _BLOCK_ELEMENTS entries in one cache-sized pair of
        buffers that every block overwrites, where whole-path ones would
        fault in fresh pages."""
        buffers = np.empty((2, min(self._step, self.lambdas.size), self.beta_sq.size))
        overflows = np.max(self.lambdas, initial=0.0) > self._lam_limit
        for start in range(0, self.lambdas.size, self._step):
            part = slice(start, start + self._step)
            lam = self.lambdas[part]
            yield (part, *self._factors(lam, buffers[:, : lam.size], overflows))

    @cached_property
    def _sums(self):
        # J - r0, A, B and the trace of the class docstring, in one pass
        energy, counts = self._energy, np.full(self.beta_sq.size, 2.0)  # modes per frequency
        counts[0] = 1.0
        fit, scaled, scaled_prime, trace = np.empty((4, self.lambdas.size))
        for part, shrink, weight in self._blocks():
            trace[part] = weight @ counts
            shrink *= weight
            scaled[part] = shrink @ energy
            shrink *= weight
            scaled_prime[part] = shrink @ energy
            weight *= weight
            fit[part] = weight @ energy
        scaled_prime *= -2.0
        return fit, scaled, scaled_prime, trace

    def alpha(self, lam=None):
        """Regularized coefficients s*c, one column per lambda."""
        shrink, _ = self.factors(self.lambdas if lam is None else lam)
        return (shrink[..., mode_layout(self.coeffs.size // 2)[0]] * self.coeffs).T

    def residual_sq(self, lam=None):
        """J: weighted squared node residual of the regularized solution, at
        every path lambda or, as a float, at one explicit ``lam``."""
        if lam is None:
            return self.r0 + self._sums[0]
        _, weight = self.factors(lam)
        return float(self.r0 + weight**2 @ self._energy)

    def _unscaled(self, power: int):
        """A/lam (power 1) or B/lam/lam (power 2; lam**2 overflows above 1.3e154)
        at every path lambda; at lam = 0, where s = 1, their limits sum
        beta**2 * e and -2 * sum beta**4 * e."""
        zero = self.lambdas == 0
        out = np.divide(self._sums[power], self.lambdas, where=~zero, out=np.empty(zero.shape))
        if power == 2:
            np.divide(out, self.lambdas, where=~zero, out=out)
        if zero.any():
            out[zero] = (-2.0) ** (power - 1) * (self.beta_sq**power @ self._energy)
        return out

    def penalty_sq(self):
        """K = A/lam: squared smoothness seminorm of the regularized solution."""
        return self._unscaled(1)

    def penalty_sq_prime(self):
        """K' = B/lam**2: derivative of K in lambda (nonpositive)."""
        return self._unscaled(2)

    def curvature(self):
        """Signed curvature of the L-curve (log J, log K) at every lambda.

        The exchange identity J' = -lam*K' eliminates J', and lambda cancels:

            kappa = J*A*(B*J + A*J + A*B) / (|B| * (A**2 + J**2)**1.5).

        It is evaluated as J*A/|B| * (...) / (...)**1.5, so that no product
        of four sums underflows.  Not finite where J or K vanishes (exact fit,
        nothing penalized) or B is not negative; the selectors refuse those.
        """
        fit, a, b, _ = self._sums
        j = self.r0 + fit
        with np.errstate(divide="ignore", invalid="ignore"):
            return j * a / np.abs(b) * (b * j + a * j + a * b) / (a * a + j * j) ** 1.5

    def gcv(self):
        """GCV score V = ||(I - H) f||_N**2 / tr(I - H)**2 of the hat matrix H
        (Golub, Heath and Wahba, 1979), for every N >= 2L + 1.  H shrinks the
        2L + 1 modes by s and drops the other N - (2L + 1) directions of the
        samples, so V = J / ((N - (2L + 1)) + sum w)**2."""
        fit, _, _, trace = self._sums
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.r0 + fit) / ((self.n_points - self.coeffs.size) + trace) ** 2

    def error_head(self, truth_spectrum, n_points: int):
        """(h, write) against f's :func:`~trigreg.grid.uniform_rfft` pair: p_lam
        reaches the first h = min(L, K//2) + 1 bins, and ``write(s, out)``
        writes there the fold of its modes shrunk by the :meth:`factors` s of
        a block of lambdas, minus f's bins; f's negated tail completes p_lam - f."""
        modes, runs = _alias(self.coeffs, n_points)
        size = runs[0][1].stop

        def write(shrink, out):
            _fold(modes, runs, shrink, out)
            out[..., :size] -= truth_spectrum[:size]

        return size, write

    def l2_error(self, truth_spectrum, n_points: int):
        """Discretized L2 error sqrt((2*pi/K) * sum (p_lam - f)**2) over
        ``uniform_eval_points(K)``, any K, against f's
        :func:`~trigreg.grid.uniform_rfft` pair: by Parseval, 2*pi/K**2 times
        the weighted energy of the :meth:`error_head` and of f's tail.  The
        squares are of differences, never expanded (that cancels)."""
        k = int(n_points)
        size, write = self.error_head(truth_spectrum, k)
        # a bin counts for its mirror too, unless it is its own (constant, even K's Nyquist)
        weights = np.where(2 * np.arange(k // 2 + 1) % k == 0, 1.0, 2.0)
        tail = truth_spectrum[size:]
        errors = np.full(self.lambdas.size, weights[size:] @ (tail.real**2 + tail.imag**2))
        pair_weights = np.repeat(weights[:size], 2)  # real and imaginary parts
        head = np.empty((min(self._step, self.lambdas.size), size), dtype=complex)
        for part, shrink, _ in self._blocks():
            write(shrink, head[: shrink.shape[0]])
            squares = head[: shrink.shape[0]].view(float)
            errors[part] += np.multiply(squares, squares, out=squares) @ pair_weights
        return np.sqrt(errors * (TWO_PI / k**2))

    def discrepancy_bounds(self) -> tuple[float, float]:
        """Morozov's noise bounds sqrt(J(0)) = sqrt(r0) and sqrt(r0 + sum_{ell>=1} e),
        the latter equal to ||f - mean(f)||_N by orthogonality."""
        return math.sqrt(self.r0), math.sqrt(self.r0 + float(self._energy[1:].sum()))


def residual_sq(samples, penalty: PenaltySequence, lam: float) -> float:
    """Weighted squared residual (2*pi/N) * sum_j (p_lam(x_j) - f_j)**2.

    Read from the one-lambda path of the samples, in closed form as
    r0 + sum_modes (lam*beta**2/(1+lam*beta**2))**2 * c**2 (see
    :class:`RegularizationPath`).  Strictly increasing in lam whenever any
    penalized mode is active in the data.
    """
    _require_nonnegative(lam)
    path = RegularizationPath.from_samples(samples, penalty, np.array([float(lam)]))
    return float(path.residual_sq()[0])


# ---------------------------------------------------------------------------
# Strategies.  Each runner reads one shared RegularizationPath and returns a
# SelectionReport; STRATEGIES is the registry of them, and each select_*
# function builds a path and calls its registry entry.
# ---------------------------------------------------------------------------


def select_morozov(samples, penalty: PenaltySequence, params: ParameterGrid, noise_norm: float,
                   refine: bool = True) -> SelectionReport:
    """Discrepancy principle: first grid lambda whose residual reaches the noise.

    Picks the first k = 1..T (lambda decreasing) with
    F(lambda_k) = residual_sq - noise_norm**2 <= 0, else k = T.  With
    ``refine`` the root of F is bisected inside (lambda_k, lambda_{k-1}]
    after a crossing (zeta0 above lambda_1) or (0, lambda_T] without one,
    until |F| <= 1e-10 * noise_norm**2 or 60 iterations; when F(zeta0) < 0
    too, the root lies above the grid and lambda_1 stays unrefined.

    The principle is only meaningful when the noise norm separates the
    full-degree residual from the residual of the node mean (see
    :meth:`RegularizationPath.discrepancy_bounds`); if that assumption
    fails, it raises :class:`InapplicableStrategyError` rather than fall
    back silently.  Under it F(0) <= 0, so a root exists below lambda_T
    when F stays positive across the whole grid.
    """
    path = RegularizationPath.from_samples(samples, penalty, params.lambdas)
    return STRATEGIES["morozov"].run(path, params, noise_norm, refine)


def _first_crossing(discrepancy):
    """Index of the first F <= 0, else of the last grid lambda."""
    hits = np.flatnonzero(discrepancy <= 0)
    return hits[0] if hits.size else discrepancy.size - 1


def _run_morozov(path, params, noise_norm=None, refine=True, **_):
    _require_nonnegative(noise_norm, "noise norm")
    lower, upper = path.discrepancy_bounds()
    slack = 1e-10 * upper  # forgive pure roundoff in the interpolation residual
    if not (lower <= noise_norm + slack and noise_norm <= upper + slack):
        raise InapplicableStrategyError(
            "morozov noise assumption violated: the noise norm does not separate "
            "the full-degree residual from the residual of the node mean"
        )
    noise_sq = float(noise_norm) ** 2
    f_vals = path.residual_sq() - noise_sq
    report = _pick(params, "morozov", "morozov", "the discrepancy", f_vals, _first_crossing)
    idx, lam = report.chosen_index, report.chosen_lambda
    if f_vals[idx] <= 0:
        lo, hi = lam, float(params.lambdas[idx - 1]) if idx > 0 else params.zeta0
    else:
        lo, hi = 0.0, lam
    if not refine or path.residual_sq(hi) - noise_sq < 0:  # F(hi) < 0: the root lies above the grid
        return report
    # bisection on the closed-form J, O(degree) per step; invariant F(lo) <= 0 <= F(hi)
    tol = 1e-10 * noise_sq
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = path.residual_sq(mid) - noise_sq
        if abs(f_mid) <= tol:
            break
        lo, hi = (lo, mid) if f_mid > 0 else (mid, hi)
    return replace(report, chosen_lambda=mid, refined=True)


def select_lcurve(samples, penalty: PenaltySequence, params: ParameterGrid) -> SelectionReport:
    """L-curve corner: the grid lambda of maximal absolute curvature."""
    path = RegularizationPath.from_samples(samples, penalty, params.lambdas)
    return STRATEGIES["lcurve"].run(path, params)


def _require_penalized_data(path, name: str):
    """Refuse data whose penalized seminorm vanishes: L-curve and GCV then
    rank nothing but roundoff."""
    beta, size = np.sqrt(path.beta_sq), np.sqrt(path._energy)
    # Roundoff leaves ~1e-16 relics on the penalized modes even for an
    # exactly constant signal, so the zero test must be relative.
    if np.max(beta * size) <= 1e-13 * np.max(beta) * np.max(size):
        raise InapplicableStrategyError(
            f"{name} is inapplicable: the penalized seminorm of the data is "
            "identically zero (nothing but the constant mode present)"
        )


def _pick(params, strategy: str, name: str, what: str, objective, best):
    """The report of the grid lambda at index best(objective), which it keeps.
    An objective that holds a NaN or an infinity is refused: argmin and
    argmax would pick the first NaN, and argmax |kappa| an infinite one."""
    bad = objective.size - np.count_nonzero(np.isfinite(objective))
    if bad:
        raise InapplicableStrategyError(
            f"{name} is inapplicable: {what} is not finite at {bad} of {objective.size} grid lambdas"
        )
    idx = int(best(objective))
    return SelectionReport(strategy=strategy, lambdas=params.lambdas, chosen_lambda=float(params.lambdas[idx]),
                           chosen_index=idx, objective=objective)


def _run_lcurve(path, params, **_):
    _require_penalized_data(path, "L-curve")
    return _pick(params, "lcurve", "L-curve", "the curvature", np.abs(path.curvature()), np.argmax)


def select_gcv(samples, penalty: PenaltySequence, params: ParameterGrid) -> SelectionReport:
    """Minimize the closed-form GCV score over the parameter grid.

    Any N >= 2L + 1 works (see :meth:`RegularizationPath.gcv`); the
    data needs a nonzero penalized seminorm (not constant up to roundoff).
    """
    path = RegularizationPath.from_samples(samples, penalty, params.lambdas)
    return STRATEGIES["gcv"].run(path, params)


def _run_gcv(path, params, **_):
    _require_penalized_data(path, "GCV")
    return _pick(params, "gcv", "GCV", "the GCV score", path.gcv(), np.argmin)


def _require_eval_points(eval_points, name: str = "eval_points"):
    """Refuse fewer than the K = 1000 points the oracle and the sweep measure errors on."""
    if eval_points < 1000:
        raise ValueError(f"{name} must be >= 1000, got {eval_points}")


def select_oracle(samples, penalty: PenaltySequence, params: ParameterGrid, true_function,
                  eval_points: int = 10000) -> SelectionReport:
    """Benchmark selector: minimize the true L2 error against a known function.

    The error is the discretized L2 distance sqrt((2*pi/K) * sum (p - f)**2)
    on a K-point equidistant evaluation grid, K = ``eval_points`` >= 1000,
    also below 2L + 1.  It is evaluated by Parseval on that grid from
    one FFT of the function (see :meth:`RegularizationPath.l2_error`), with
    no dense evaluation.
    """
    _require_eval_points(eval_points)
    path = RegularizationPath.from_samples(samples, penalty, params.lambdas)
    truth = uniform_rfft(true_function(uniform_eval_points(eval_points)))
    return STRATEGIES["oracle"].run(path, params, truth=truth)


def _run_oracle(path, params, truth=None, **_):
    return _pick(params, "oracle", "oracle", "the L2 error", path.l2_error(*truth), np.argmin)


# ---------------------------------------------------------------------------
# The strategy registry
# ---------------------------------------------------------------------------


# A registry entry: run(path, params, **inputs) returns the strategy's
# SelectionReport, ignoring inputs it does not read; needs names the input it
# cannot do without, if any.
Strategy = namedtuple("Strategy", ["run", "needs"], defaults=[None])

# The one list of strategies, in the order "all" runs them.
STRATEGIES = {
    "morozov": Strategy(_run_morozov, needs="noise_norm"),
    "lcurve": Strategy(_run_lcurve),
    "gcv": Strategy(_run_gcv),
    "oracle": Strategy(_run_oracle, needs="truth"),
}


def run_strategies(path: RegularizationPath, params: ParameterGrid, names, **inputs):
    """Run the named strategies on one shared path, in the given order.

    ``inputs`` go to every runner: ``noise_norm`` and ``refine`` (Morozov)
    and ``truth``, the oracle's :func:`~trigreg.grid.uniform_rfft` pair of
    the true function on the evaluation grid.  Returns ``(reports,
    failures)``: the report of each strategy that chose a lambda, and the
    message of each that raised a :class:`SelectionError`.  The path must
    run over ``params.lambdas``; a path over any other lambdas is refused.
    """
    unknown = [name for name in names if name not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}; choose from {list(STRATEGIES)}")
    if not np.array_equal(path.lambdas, params.lambdas):
        raise ValueError("the path does not run over params.lambdas, the grid every strategy picks from")
    reports, failures = {}, {}
    for name in names:
        strategy = STRATEGIES[name]
        if strategy.needs and inputs.get(strategy.needs) is None:
            raise ValueError(f"strategy {name!r} needs the input {strategy.needs!r}")
        try:
            reports[name] = strategy.run(path, params, **inputs)
        except SelectionError as exc:
            failures[name] = str(exc)
    return reports, failures
