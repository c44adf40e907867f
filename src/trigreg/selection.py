"""Automatic choice of the regularization parameter.

Three data-driven strategies plus a truth-aware oracle scan a geometric
parameter grid lambda_k = zeta0 * q**k, k = 1..T:

* discrepancy principle (``select_morozov``): largest grid lambda whose
  weighted node residual has dropped to the known noise level, optionally
  bisection-refined between neighboring grid points;
* L-curve (``select_lcurve``): maximal-curvature corner of the log-log
  residual-versus-smoothness curve, using a closed-form curvature;
* generalized cross validation (``select_gcv``): minimizer of the GCV score,
  in closed form for every N >= 2*degree + 1;
* oracle (``select_oracle``): minimizer of the true L2 error, for benchmarks.

Each strategy is a pure function of one :class:`RegularizationPath` that
returns a :class:`SelectionReport` with a chosen lambda or raises a
:class:`SelectionError`.
:data:`STRATEGIES`, the single list of them, maps each name to its runner;
:func:`run_strategies` runs any of them on one shared path, and each
``select_*`` function builds a path and calls its registry entry.

All diagnostics here require a penalty with zero weight on the constant mode,
as the power-law family of :func:`~trigreg.penalty.laplace_penalty` has.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (TrapezoidalGrid, _validated_samples, mode_layout, uniform_eval_points,
                   uniform_projection)
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


@dataclass(frozen=True)
class ParameterGrid:
    """Geometric candidate grid lambda_k = zeta0 * q**k, k = 1..t_max (decreasing)."""

    zeta0: float
    q: float
    t_max: int
    lambdas: np.ndarray


def parameter_grid(zeta0: float = 1.0, q: float = 2.0 ** -0.1, t_max: int = 400) -> ParameterGrid:
    """Build the candidate grid; defaults span [2**-40, 2**-0.1].

    Requires a finite zeta0 > 0, 0 < q < 1, t_max >= 1 and a smallest value
    zeta0*q**t_max that is a normal float (not 0.0 or subnormal).
    """
    _require_positive(zeta0, "zeta0")
    if not 0.0 < q < 1.0:
        raise ValueError(f"ratio q must lie strictly between 0 and 1, got {q}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    lambdas = zeta0 * np.power(float(q), np.arange(1, int(t_max) + 1, dtype=float))
    if lambdas[-1] < np.finfo(float).tiny:
        raise ValueError(
            f"parameter grid underflows: zeta0*q**t_max = {float(lambdas[-1])!r} with zeta0={zeta0}, "
            f"q={q}, t_max={t_max} is below the smallest normal float {float(np.finfo(float).tiny)!r}"
        )
    lambdas.flags.writeable = False
    return ParameterGrid(zeta0=float(zeta0), q=float(q), t_max=int(t_max), lambdas=lambdas)


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one strategy: the chosen parameter plus per-lambda diagnostics.

    A strategy that cannot choose raises a :class:`SelectionError` instead,
    so every report holds a chosen lambda.  ``chosen_index`` is the 0-based
    offset into ``lambdas`` the scan stopped at; when ``refined`` is set,
    ``chosen_lambda`` was bisection-refined and lies between neighboring
    grid values instead of exactly on one.  ``assumption_ok`` is True on
    every Morozov report and None on the others.

    Per-lambda columns are filled only where the strategy computes them:
    ``residual_sq`` (weighted squared node residual), ``penalty_sq`` (squared
    smoothness seminorm of the solution), ``curvature``, ``gcv``,
    ``discrepancy`` (residual_sq minus squared noise norm) and ``l2_error``.
    """

    strategy: str
    lambdas: np.ndarray
    chosen_lambda: float
    chosen_index: int
    refined: bool = False
    residual_sq: np.ndarray | None = None
    penalty_sq: np.ndarray | None = None
    curvature: np.ndarray | None = None
    gcv: np.ndarray | None = None
    discrepancy: np.ndarray | None = None
    l2_error: np.ndarray | None = None
    noise_norm_used: float | None = None
    assumption_ok: bool | None = None


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


@dataclass(frozen=True)
class RegularizationPath:
    """Closed-form diagnostics of the regularized solve along a lambda path.

    The solve shrinks each discrete Fourier coefficient c of the samples by
    s = 1/(1 + lam*beta**2).  Cosine and sine of frequency ell share beta,
    so the path keeps one table per frequency (:meth:`factors`) of s and
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
    def from_samples(
        cls, samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence, lambdas
    ) -> "RegularizationPath":
        """Project the samples once and set up the path over ``lambdas``."""
        if penalty.degree != degree:
            raise ValueError(
                f"penalty degree {penalty.degree} does not match requested degree {degree}"
            )
        if penalty.beta[0] != 0:
            raise ValueError(
                "the regularized solve requires zero weight on the constant mode, "
                f"got beta[0] = {penalty.beta[0]}"
            )
        coeffs, r0 = uniform_projection(_validated_samples(samples, grid, degree), degree)
        return cls(coeffs, penalty.beta**2, lambdas, r0, grid.n_points)

    @cached_property
    def _frequencies(self):
        """Per frequency ell = 0..L: beta**2, the energy e and the number of modes."""
        pairs = _paired(self.coeffs)
        counts = np.full(pairs.shape[1], 2.0)
        counts[0] = 1.0
        return _paired(self.beta_sq)[0], np.einsum("ij,ij->j", pairs, pairs), counts

    @cached_property
    def _lam_limit(self) -> float:
        """A lambda up to which no 1 + lam*beta**2 overflows."""
        top = float(self._frequencies[0].max())
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
        beta_sq = self._frequencies[0]
        shrink, weight = out if out is not None else np.empty((2, *np.shape(lam), beta_sq.size))
        with np.errstate(all="ignore") if overflows else nullcontext():
            np.multiply.outer(lam, beta_sq, out=weight)
            np.add(weight, 1.0, out=shrink)
            np.reciprocal(shrink, out=shrink)
            weight *= shrink
        if overflows:
            weight[shrink == 0] = 1.0  # inf * 0; s = 1/(1 + x) > 0 for every finite x
        return shrink, weight

    def _blocks(self):
        """Yield (slice, s, w) over blocks of the path's lambdas: (block, L+1)
        factors of at most _BLOCK_ELEMENTS entries in one cache-sized pair of
        buffers that every block overwrites, where whole-path ones would
        fault in fresh pages."""
        step = max(1, _BLOCK_ELEMENTS // self._frequencies[0].size)
        buffers = np.empty((2, min(step, self.lambdas.size), self._frequencies[0].size))
        overflows = np.max(self.lambdas, initial=0.0) > self._lam_limit
        for start in range(0, self.lambdas.size, step):
            part = slice(start, start + step)
            lam = self.lambdas[part]
            yield (part, *self._factors(lam, buffers[:, : lam.size], overflows))

    @cached_property
    def _sums(self):
        # J - r0, A, B and the trace of the class docstring, in one pass
        _, energy, counts = self._frequencies
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
        return float(self.r0 + weight**2 @ self._frequencies[1])

    def _unscaled(self, power: int):
        """A/lam (power 1) or B/lam/lam (power 2; lam**2 overflows above 1.3e154)
        at every path lambda; at lam = 0, where s = 1, their limits sum
        beta**2 * e and -2 * sum beta**4 * e."""
        zero = self.lambdas == 0
        out = np.divide(self._sums[power], self.lambdas, where=~zero, out=np.empty(zero.shape))
        if power == 2:
            np.divide(out, self.lambdas, where=~zero, out=out)
        if zero.any():
            beta_sq, energy, _ = self._frequencies
            out[zero] = (-2.0) ** (power - 1) * (beta_sq**power @ energy)
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

    def l2_error(self, truth_coeffs, remainder: float):
        """Discretized L2 error sqrt(||alpha - g||**2 + r_K) against a known function.

        ``truth_coeffs`` (g) and ``remainder`` (r_K) come from
        :func:`~trigreg.grid.uniform_projection` of the function on the
        K-point evaluation grid.  By Parseval on that grid this equals
        sqrt((2*pi/K) * sum (p - f)**2) whenever K >= 2L + 1.  The squares
        (s*c - g)**2 are summed per frequency pair, never expanded (that cancels).
        """
        pairs, truth = _paired(self.coeffs), _paired(np.asarray(truth_coeffs, dtype=float))
        errors = np.empty(np.size(self.lambdas))
        for part, shrink, cosine in self._blocks():  # w's buffer takes the cosine squares
            np.multiply(shrink, pairs[0], out=cosine)
            cosine -= truth[0]
            cosine *= cosine
            shrink *= pairs[1]
            shrink -= truth[1]
            shrink *= shrink
            shrink += cosine
            errors[part] = shrink.sum(axis=1)
        errors += remainder
        return np.sqrt(errors, out=errors)

    def discrepancy_bounds(self) -> tuple[float, float]:
        """Morozov's noise bounds sqrt(J(0)) = sqrt(r0) and sqrt(r0 + sum_{ell>=1} e),
        the latter equal to ||f - mean(f)||_N by orthogonality."""
        return math.sqrt(self.r0), math.sqrt(self.r0 + float(self._frequencies[1][1:].sum()))


def residual_sq(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence, lam: float) -> float:
    """Weighted squared residual (2*pi/N) * sum_j (p_lam(x_j) - f_j)**2.

    Read from the one-lambda path of the samples, in closed form as
    r0 + sum_modes (lam*beta**2/(1+lam*beta**2))**2 * c**2 (see
    :class:`RegularizationPath`).  Strictly increasing in lam whenever any
    penalized mode is active in the data.
    """
    _require_nonnegative(lam)
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, np.array([float(lam)]))
    return float(path.residual_sq()[0])


# ---------------------------------------------------------------------------
# Strategies.  Each runner reads one shared RegularizationPath and returns a
# SelectionReport; STRATEGIES is the registry of them, and each select_*
# function builds a path and calls its registry entry.
# ---------------------------------------------------------------------------


def select_morozov(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence,
                   params: ParameterGrid, noise_norm: float, refine: bool = True) -> SelectionReport:
    """Discrepancy principle: first grid lambda whose residual reaches the noise.

    Scans k = 1..T (lambda decreasing) and stops at the first
    F(lambda_k) = residual_sq - noise_norm**2 <= 0.  With ``refine`` the root
    of F is then bisected inside the bracketing interval (using zeta0 as the
    upper endpoint when the scan stops immediately, and 0 when it never
    stops) until |F| <= 1e-10 * noise_norm**2 or 60 iterations.

    The principle is only meaningful when the noise norm separates the
    full-degree residual from the residual of the node mean (see
    :meth:`RegularizationPath.discrepancy_bounds`); if that assumption
    fails, it raises :class:`InapplicableStrategyError` rather than fall
    back silently.  If F stays positive across the whole grid, the root
    lies below lambda_T (F(0) <= 0 under the assumption) and lambda_T is
    returned.
    """
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, params.lambdas)
    return STRATEGIES["morozov"].run(path, params, noise_norm, refine)


def _run_morozov(path, params, noise_norm=None, refine=True, **_):
    _require_nonnegative(noise_norm, "noise norm")
    noise_sq = float(noise_norm) ** 2
    j_vals = path.residual_sq()
    f_vals = j_vals - noise_sq
    j_at = path.residual_sq  # closed form, O(degree) per bisection step

    lower, upper = path.discrepancy_bounds()
    slack = 1e-10 * upper  # forgive pure roundoff in the interpolation residual
    if not (lower <= noise_norm + slack and noise_norm <= upper + slack):
        raise InapplicableStrategyError(
            "morozov noise assumption violated: the noise norm does not separate "
            "the full-degree residual from the residual of the node mean"
        )

    def bisect(lo: float, hi: float) -> float:
        # invariant: F(lo) <= 0 <= F(hi)
        tol = 1e-10 * noise_sq
        mid = 0.5 * (lo + hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = j_at(mid) - noise_sq
            if abs(f_mid) <= tol:
                return mid
            if f_mid > 0:
                hi = mid
            else:
                lo = mid
        return mid

    hits = np.nonzero(f_vals <= 0)[0]
    if hits.size:
        idx = int(hits[0])
        chosen = float(params.lambdas[idx])
        refined = False
        if refine:
            hi = float(params.lambdas[idx - 1]) if idx > 0 else params.zeta0
            if j_at(hi) - noise_sq >= 0:
                chosen = bisect(chosen, hi)
                refined = True
            # else: even the upper bracket endpoint sits below the noise level,
            # so the root lies above the grid; keep the largest grid value.
    else:
        # F > 0 everywhere on the grid.  Under the verified assumption the
        # root exists below lambda_T (F -> J(0) - noise**2 <= 0 as lam -> 0).
        idx = params.t_max - 1
        chosen = float(params.lambdas[idx])
        refined = False
        if refine:
            chosen = bisect(0.0, chosen)
            refined = True
    return SelectionReport(
        strategy="morozov",
        lambdas=params.lambdas,
        chosen_lambda=chosen,
        chosen_index=idx,
        refined=refined,
        residual_sq=j_vals,
        discrepancy=f_vals,
        noise_norm_used=float(noise_norm),
        assumption_ok=True,
    )


def select_lcurve(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence,
                  params: ParameterGrid) -> SelectionReport:
    """L-curve corner: the grid lambda of maximal absolute curvature."""
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, params.lambdas)
    return STRATEGIES["lcurve"].run(path, params)


def _require_penalized_data(path, name: str):
    """Refuse data whose penalized seminorm vanishes: L-curve and GCV then
    rank nothing but roundoff."""
    beta, size = np.sqrt(path._frequencies[0]), np.sqrt(path._frequencies[1])
    # Roundoff leaves ~1e-16 relics on the penalized modes even for an
    # exactly constant signal, so the zero test must be relative.
    if np.max(beta * size) <= 1e-13 * np.max(beta) * np.max(size):
        raise InapplicableStrategyError(
            f"{name} is inapplicable: the penalized seminorm of the data is "
            "identically zero (nothing but the constant mode present)"
        )


def _pick(params, strategy: str, name: str, what: str, objective, best, **columns):
    """The report of the grid lambda at index best(objective), with the given
    columns.  An objective that holds a NaN or an infinity is refused: argmin
    and argmax would pick the first NaN, and argmax |kappa| an infinite one."""
    bad = objective.size - np.count_nonzero(np.isfinite(objective))
    if bad:
        raise InapplicableStrategyError(
            f"{name} is inapplicable: {what} is not finite at {bad} of {objective.size} grid lambdas"
        )
    idx = int(best(objective))
    return SelectionReport(strategy=strategy, lambdas=params.lambdas,
                           chosen_lambda=float(params.lambdas[idx]), chosen_index=idx, **columns)


def _run_lcurve(path, params, **_):
    _require_penalized_data(path, "L-curve")
    kappa = path.curvature()
    return _pick(params, "lcurve", "L-curve", "the curvature", np.abs(kappa), np.argmax,
                 residual_sq=path.residual_sq(), penalty_sq=path.penalty_sq(), curvature=kappa)


def select_gcv(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence,
               params: ParameterGrid) -> SelectionReport:
    """Minimize the closed-form GCV score over the parameter grid.

    Any N >= 2*degree + 1 works (see :meth:`RegularizationPath.gcv`); the
    data needs a nonzero penalized seminorm (not constant up to roundoff).
    """
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, params.lambdas)
    return STRATEGIES["gcv"].run(path, params)


def _run_gcv(path, params, **_):
    _require_penalized_data(path, "GCV")
    v_vals = path.gcv()
    return _pick(params, "gcv", "GCV", "the GCV score", v_vals, np.argmin, gcv=v_vals)


def select_oracle(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence,
                  params: ParameterGrid, true_function, eval_points: int = 10000) -> SelectionReport:
    """Benchmark selector: minimize the true L2 error against a known function.

    The error is the discretized L2 distance sqrt((2*pi/K) * sum (p - f)**2)
    on a K-point equidistant evaluation grid (K = ``eval_points``), which
    must resolve the approximant: K >= 2*degree + 1.  It is evaluated by
    Parseval on that grid from one FFT of the function (see
    :meth:`RegularizationPath.l2_error`), with no dense evaluation.
    """
    if eval_points < 1000:
        raise ValueError(f"eval_points must be >= 1000, got {eval_points}")
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, params.lambdas)
    truth = np.asarray(true_function(uniform_eval_points(eval_points)), dtype=float)
    return STRATEGIES["oracle"].run(path, params, truth=uniform_projection(truth, degree))


def _run_oracle(path, params, truth=None, **_):
    errs = path.l2_error(*truth)
    return _pick(params, "oracle", "oracle", "the L2 error", errs, np.argmin, l2_error=errs)


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
    and ``truth``, the oracle's :func:`~trigreg.grid.uniform_projection` of
    the true function on the evaluation grid.  Returns ``(reports,
    failures)``: the report of each strategy that chose a lambda, and the
    message of each that raised a :class:`SelectionError`.
    """
    unknown = [name for name in names if name not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}; choose from {list(STRATEGIES)}")
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
