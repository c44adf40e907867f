"""Automatic choice of the regularization parameter.

Three data-driven strategies plus a truth-aware oracle scan a geometric
parameter grid lambda_k = zeta0 * q**k, k = 1..T:

* discrepancy principle (``select_morozov``): largest grid lambda whose
  weighted node residual has dropped to the known noise level, optionally
  bisection-refined between neighboring grid points;
* L-curve (``select_lcurve``): maximal-curvature corner of the log-log
  residual-versus-smoothness curve, using a closed-form curvature;
* generalized cross validation (``select_gcv``): minimizer of the GCV score,
  available in closed form on interpolatory grids N = 2*degree + 1;
* oracle (``select_oracle``): minimizer of the true L2 error, for benchmarks.

Each strategy is a pure function of one :class:`RegularizationPath`.
:data:`STRATEGIES`, the single list of them, maps each name to its runner;
:func:`run_strategies` runs any of them on one shared path, and each
``select_*`` function builds a path and calls its registry entry.

All diagnostics here require a penalty with zero weight on the constant mode
(the power-law family); the constant-weight form is only meaningful for the
barycentric evaluator.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import TrapezoidalGrid, _validated_samples, uniform_eval_points, uniform_projection
from .penalty import PenaltySequence, _require_nonnegative, _require_positive

__all__ = [
    "SelectionError",
    "GridExhaustedError",
    "InapplicableStrategyError",
    "ParameterGrid",
    "RegularizationPath",
    "SelectionReport",
    "parameter_grid",
    "residual_sq",
    "penalty_sq",
    "residual_sq_prime",
    "penalty_sq_prime",
    "lcurve_curvature",
    "select_morozov",
    "select_lcurve",
    "gcv_value",
    "gcv_trace",
    "gcv_bounds",
    "select_gcv",
    "select_oracle",
    "STRATEGIES",
    "run_strategies",
]


class SelectionError(RuntimeError):
    """A selection strategy could not produce a parameter."""


class GridExhaustedError(SelectionError):
    """The discrepancy never dropped to the noise level anywhere on the grid."""


class InapplicableStrategyError(SelectionError):
    """The data degenerates the strategy's objective (e.g. nothing to penalize)."""


@dataclass(frozen=True)
class ParameterGrid:
    """Geometric candidate grid lambda_k = zeta0 * q**k, k = 1..t_max (decreasing)."""

    zeta0: float
    q: float
    t_max: int
    lambdas: np.ndarray


def parameter_grid(zeta0: float = 1.0, q: float = 2.0 ** -0.1, t_max: int = 400) -> ParameterGrid:
    """Build the candidate grid; defaults span [2**-40, 2**-0.1].

    Requires a finite zeta0 > 0, 0 < q < 1 and t_max >= 1.
    """
    _require_positive(zeta0, "zeta0")
    if not 0.0 < q < 1.0:
        raise ValueError(f"ratio q must lie strictly between 0 and 1, got {q}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    lambdas = zeta0 * np.power(float(q), np.arange(1, int(t_max) + 1, dtype=float))
    lambdas.flags.writeable = False
    return ParameterGrid(zeta0=float(zeta0), q=float(q), t_max=int(t_max), lambdas=lambdas)


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one strategy: the chosen parameter plus per-lambda diagnostics.

    ``chosen_lambda`` is None when the strategy failed in a surfaced way
    (currently only: discrepancy-principle noise assumption violated).
    ``chosen_index`` is the 0-based offset into ``lambdas`` the scan stopped
    at; when ``refined`` is set, ``chosen_lambda`` was bisection-refined and
    lies between neighboring grid values instead of exactly on one.

    Per-lambda columns are filled only where the strategy computes them:
    ``residual_sq`` (weighted squared node residual), ``penalty_sq`` (squared
    smoothness seminorm of the solution), ``curvature``, ``gcv``,
    ``discrepancy`` (residual_sq minus squared noise norm) and ``l2_error``.
    """

    strategy: str
    lambdas: np.ndarray
    chosen_lambda: float | None
    chosen_index: int | None
    refined: bool = False
    residual_sq: np.ndarray | None = None
    penalty_sq: np.ndarray | None = None
    curvature: np.ndarray | None = None
    gcv: np.ndarray | None = None
    discrepancy: np.ndarray | None = None
    l2_error: np.ndarray | None = None
    noise_norm_used: float | None = None
    assumption_ok: bool | None = None


def _require_selection_penalty(penalty: PenaltySequence):
    if penalty.beta[0] != 0:
        raise ValueError(
            "selection diagnostics require zero weight on the constant mode; "
            "constant-form penalties are only accepted by the barycentric evaluator"
        )


# ---------------------------------------------------------------------------
# Per-lambda diagnostics.  Every one is a closed form in the coefficients of
# the samples, held by RegularizationPath; the scalar functions below are
# thin views of it.
# ---------------------------------------------------------------------------

# Entries per (block, 2L+1) temporary in a path scan: 32 KB of float64.
_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class RegularizationPath:
    """Closed-form diagnostics of the regularized solve along a lambda path.

    The solve shrinks each discrete Fourier coefficient c of the samples by
    s = 1/(1 + lam*beta**2).  With w = lam*beta**2 * s (that is 1 - s,
    formed without the cancellation), every diagnostic is a sum over modes:

        J(lam)  = r0 + sum (w*c)**2           weighted squared node residual
        J'(lam) = -lam * K'(lam)
        K(lam)  = sum beta**2 * s**2 * c**2   squared smoothness seminorm
        K'(lam) = -2 * sum beta**4 * s**3 * c**2

    ``r0`` = ||f - P_L f||_N**2 is the part of the samples that no degree-L
    polynomial reaches.  It is exactly 0 on an interpolatory grid
    (N = 2L + 1); otherwise :meth:`from_samples` takes it from the same rfft
    as the coefficients (:func:`~trigreg.grid.uniform_projection`), never as
    ||f||**2 - ||c||**2, which cancels catastrophically.  ``n_points`` is N.

    ``lambdas`` is a scalar or a 1-d array, and each diagnostic comes back
    as a float or an array of that length.  :meth:`residual_sq` and
    :meth:`alpha` also take an explicit ``lam`` in place of ``lambdas``, for
    the discrepancy bisection and for single solutions.  Each evaluation
    costs O(L) per lambda, with no basis matrix.
    """

    coeffs: np.ndarray
    beta_sq: np.ndarray
    lambdas: np.ndarray | float
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
        _require_selection_penalty(penalty)
        coeffs, r0 = uniform_projection(_validated_samples(samples, grid, degree), degree)
        return cls(coeffs, penalty.beta**2, lambdas, r0, grid.n_points)

    def _factors(self, lam):
        """The shrink factors s and w at the given lambdas, shape (..., 2L+1)."""
        lam_bsq = np.multiply.outer(lam, self.beta_sq)
        shrink = 1.0 / (1.0 + lam_bsq)
        lam_bsq *= shrink
        return shrink, lam_bsq

    def _blocks(self):
        """Yield (slice, s, w) over consecutive blocks of the path's lambdas.

        Each factor is a (block, 2L+1) array of at most _BLOCK_ELEMENTS
        entries, so a scan's temporaries stay cache-sized and are reused by
        the allocator from one block to the next, where whole-path (T, 2L+1)
        temporaries (1.6 MB each at N = 501) made every scan fault in fresh
        memory pages.
        """
        lambdas = np.atleast_1d(self.lambdas)
        step = max(1, _BLOCK_ELEMENTS // self.beta_sq.size)
        for start in range(0, lambdas.size, step):
            part = slice(start, start + step)
            yield (part, *self._factors(lambdas[part]))

    @cached_property
    def _sums(self):
        # One pass over the lambdas gives every scan diagnostic its mode sums:
        # sum (w*c)**2, sum beta**2*s**2*c**2, -2*sum beta**4*s**3*c**2, sum w.
        c_sq = self.coeffs**2
        seminorm_weights = self.beta_sq * c_sq
        slope_weights = -2.0 * (self.beta_sq**2 * c_sq)
        fit, seminorm, slope, trace = np.empty((4, np.size(self.lambdas)))
        for part, shrink, weight in self._blocks():
            trace[part] = weight.sum(axis=1)
            weight *= weight
            fit[part] = weight @ c_sq
            shrink_sq = shrink * shrink
            seminorm[part] = shrink_sq @ seminorm_weights
            shrink_sq *= shrink
            slope[part] = shrink_sq @ slope_weights
        return fit, seminorm, slope, trace

    def _out(self, values):
        """A fresh scalar or array shaped like ``lambdas``."""
        return float(values[0]) if np.ndim(self.lambdas) == 0 else values.copy()

    def alpha(self, lam=None):
        """Regularized coefficients s*c, one column per lambda."""
        shrink, _ = self._factors(self.lambdas if lam is None else lam)
        return (shrink * self.coeffs).T

    def residual_sq(self, lam=None):
        """J: weighted squared node residual of the regularized solution."""
        if lam is None:
            return self._out(self.r0 + self._sums[0])
        _, weight = self._factors(lam)
        value = self.r0 + weight**2 @ self.coeffs**2
        return float(value) if np.ndim(value) == 0 else value

    def penalty_sq(self):
        """K: squared smoothness seminorm of the regularized solution."""
        return self._out(self._sums[1])

    def penalty_sq_prime(self):
        """K': derivative of K in lambda (nonpositive)."""
        return self._out(self._sums[2])

    def residual_sq_prime(self):
        """J': derivative of J in lambda, by the exchange identity J' = -lam*K'."""
        return self._out(-self.lambdas * self._sums[2])

    def curvature(self):
        """Signed L-curve curvature kappa at every lambda (see :func:`lcurve_curvature`)."""
        return _curvature(self.residual_sq(), self.penalty_sq(), self.penalty_sq_prime(), self.lambdas)

    def gcv(self):
        """GCV score V = sum (w*c)**2 / (sum w)**2; valid on interpolatory grids only."""
        fit, _, _, trace = self._sums
        return self._out(fit / trace**2)

    def l2_error(self, truth_coeffs, remainder: float):
        """Discretized L2 error sqrt(||alpha - g||**2 + r_K) against a known function.

        ``truth_coeffs`` (g) and ``remainder`` (r_K) come from
        :func:`~trigreg.grid.uniform_projection` of the function on the
        K-point evaluation grid.  By Parseval on that grid this equals
        sqrt((2*pi/K) * sum (p - f)**2) whenever K >= 2L + 1.
        """
        errors = np.empty(np.size(self.lambdas))
        for part, shrink, _ in self._blocks():
            shrink *= self.coeffs
            shrink -= truth_coeffs
            shrink *= shrink
            errors[part] = shrink.sum(axis=1)
        errors += remainder
        return self._out(np.sqrt(errors, out=errors))

    def discrepancy_bounds(self) -> tuple[float, float]:
        """Morozov's noise bounds sqrt(J(0)) and sqrt(r0 + sum_{ell>=1} c**2),
        the latter equal to ||f - mean(f)||_N by orthogonality."""
        varying = self.coeffs[1:]
        return math.sqrt(self.residual_sq(0.0)), math.sqrt(self.r0 + float(varying @ varying))


def _scalar_path(samples, grid, degree, penalty, lam) -> RegularizationPath:
    _require_nonnegative(lam)
    return RegularizationPath.from_samples(samples, grid, degree, penalty, float(lam))


def residual_sq(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence, lam: float) -> float:
    """Weighted squared residual (2*pi/N) * sum_j (p_lam(x_j) - f_j)**2.

    Evaluated in closed form as r0 + sum_modes (lam*beta**2/(1+lam*beta**2))**2 * c**2,
    where r0 is the residual no degree-L polynomial removes (0 when
    N = 2*degree + 1; see :class:`RegularizationPath`).  Strictly increasing
    in lam whenever any penalized mode is active in the data.
    """
    return _scalar_path(samples, grid, degree, penalty, lam).residual_sq()


def penalty_sq(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence, lam: float) -> float:
    """Squared smoothness seminorm sum_modes beta**2/(1 + lam*beta**2)**2 * c**2
    of the solved approximant (c are the unshrunk coefficients).

    Strictly decreasing in lam on the same condition that makes
    :func:`residual_sq` increasing.
    """
    return _scalar_path(samples, grid, degree, penalty, lam).penalty_sq()


def residual_sq_prime(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence, lam: float) -> float:
    """Closed-form derivative of :func:`residual_sq` with respect to lam:
    sum_modes 2*lam*beta**4/(1 + lam*beta**2)**3 * c**2 (nonnegative).
    """
    return _scalar_path(samples, grid, degree, penalty, lam).residual_sq_prime()


def penalty_sq_prime(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence, lam: float) -> float:
    """Closed-form derivative of :func:`penalty_sq` with respect to lam:
    -sum_modes 2*beta**4/(1 + lam*beta**2)**3 * c**2 (nonpositive).

    Satisfies the exchange identity residual_sq' = -lam * penalty_sq'.
    """
    return _scalar_path(samples, grid, degree, penalty, lam).penalty_sq_prime()


def lcurve_curvature(rho: float, eta: float, eta_prime: float, lam: float) -> float:
    """Signed curvature of the L-curve (log rho, log eta) at lambda = lam.

    Uses the residual/seminorm exchange identity rho' = -lam * eta' to
    eliminate rho', giving

        kappa = rho*eta/|eta'| * (lam*eta'*rho + rho*eta + lam**2*eta'*eta)
                / (lam**2*eta**2 + rho**2)**1.5.

    Negative at an L-shaped corner.  Undefined when eta or rho vanishes
    (nothing penalized / exact fit) or when eta' is not strictly negative.
    """
    if not rho > 0:
        raise ValueError(f"curvature undefined: residual must be > 0, got {rho}")
    if not eta > 0:
        raise ValueError(f"curvature undefined: seminorm must be > 0, got {eta}")
    if not eta_prime < 0:
        raise ValueError(
            f"curvature undefined: seminorm derivative must be < 0, got {eta_prime}"
        )
    return float(_curvature(rho, eta, eta_prime, lam))


def _curvature(rho, eta, eta_prime, lam):
    num = lam * eta_prime * rho + rho * eta + lam**2 * eta_prime * eta
    den = (lam**2 * eta**2 + rho**2) ** 1.5
    return rho * eta / np.abs(eta_prime) * num / den


# ---------------------------------------------------------------------------
# Strategies.  Each runner reads one shared RegularizationPath and returns a
# SelectionReport; STRATEGIES is the registry of them, and each select_*
# function builds a path and calls its registry entry.
# ---------------------------------------------------------------------------


def select_morozov(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence,
                   params: ParameterGrid, noise_norm: float, refine: bool = True,
                   check_assumption: bool = True) -> SelectionReport:
    """Discrepancy principle: first grid lambda whose residual reaches the noise.

    Scans k = 1..T (lambda decreasing) and stops at the first
    F(lambda_k) = residual_sq - noise_norm**2 <= 0.  With ``refine`` the root
    of F is then bisected inside the bracketing interval (using zeta0 as the
    upper endpoint when the scan stops immediately, and 0 when it never
    stops) until |F| <= 1e-10 * noise_norm**2 or 60 iterations.

    The principle is only meaningful when the noise norm separates the
    full-degree residual from the residual of the node mean (see
    :meth:`RegularizationPath.discrepancy_bounds`); if that assumption
    fails, the report carries ``assumption_ok=False`` and no chosen lambda
    rather than a silent fallback.  If F stays positive across the whole
    grid although the assumption was satisfied, the root lies below
    lambda_T and lambda_T is returned; with assumption checking disabled
    and no root anywhere, :class:`GridExhaustedError` is raised.
    """
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, params.lambdas)
    return STRATEGIES["morozov"].run(path, params, noise_norm, refine, check_assumption)


def _run_morozov(path, params, noise_norm=None, refine=True, check_assumption=True, **_):
    _require_nonnegative(noise_norm, "noise norm")
    noise_sq = float(noise_norm) ** 2
    j_vals = path.residual_sq()
    f_vals = j_vals - noise_sq
    j_at = path.residual_sq  # closed form, O(degree) per bisection step

    lower, upper = path.discrepancy_bounds()
    slack = 1e-10 * upper  # forgive pure roundoff in the interpolation residual
    assumption_ok = (lower <= noise_norm + slack) and (noise_norm <= upper + slack)

    report = dict(
        strategy="morozov",
        lambdas=params.lambdas,
        residual_sq=j_vals,
        discrepancy=f_vals,
        noise_norm_used=float(noise_norm),
    )
    if check_assumption and not assumption_ok:
        return SelectionReport(
            chosen_lambda=None, chosen_index=None, assumption_ok=False, **report
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
        # root exists below lambda_T (F -> J(0) - noise**2 <= 0 as lam -> 0);
        # without it there is nothing to refine toward.
        if not assumption_ok:
            raise GridExhaustedError(
                "discrepancy never reached the noise level on the parameter grid "
                "and no root exists below it"
            )
        idx = params.t_max - 1
        chosen = float(params.lambdas[idx])
        refined = False
        if refine:
            chosen = bisect(0.0, chosen)
            refined = True
    return SelectionReport(
        chosen_lambda=chosen,
        chosen_index=idx,
        refined=refined,
        assumption_ok=assumption_ok,
        **report,
    )


def select_lcurve(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence,
                  params: ParameterGrid) -> SelectionReport:
    """L-curve corner: the grid lambda of maximal absolute curvature."""
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, params.lambdas)
    return STRATEGIES["lcurve"].run(path, params)


def _require_penalized_data(path, name: str):
    """Refuse data whose penalized seminorm vanishes: L-curve and GCV then
    rank nothing but roundoff."""
    c = path.coeffs
    beta = np.sqrt(path.beta_sq)
    # Roundoff leaves ~1e-16 relics on the penalized modes even for an
    # exactly constant signal, so the zero test must be relative.
    seminorm = np.max(np.abs(beta * c), initial=0.0)
    scale = np.max(beta) * np.max(np.abs(c), initial=0.0)
    if seminorm <= 1e-13 * scale:
        raise InapplicableStrategyError(
            f"{name} is inapplicable: the penalized seminorm of the data is "
            "identically zero (nothing but the constant mode present)"
        )


def _run_lcurve(path, params, **_):
    _require_penalized_data(path, "L-curve")
    kappa = path.curvature()
    idx = int(np.argmax(np.abs(kappa)))
    return SelectionReport(
        strategy="lcurve",
        lambdas=params.lambdas,
        chosen_lambda=float(params.lambdas[idx]),
        chosen_index=idx,
        residual_sq=path.residual_sq(),
        penalty_sq=path.penalty_sq(),
        curvature=kappa,
    )


# ---------------------------------------------------------------------------
# GCV
# ---------------------------------------------------------------------------


def gcv_value(coeffs, penalty: PenaltySequence, lam: float) -> float:
    """Closed-form GCV score on an interpolatory grid (N = 2*degree + 1):

        V(lam) = sum_modes (lam*beta**2/(1+lam*beta**2) * c)**2
                 / [sum_modes lam*beta**2/(1+lam*beta**2)]**2.

    Undefined at lam = 0 (the trace denominator vanishes); refused when the
    coefficients were not analyzed on an interpolatory grid, because the
    shortcut identifying the residual with shrunk coefficients holds only
    there.
    """
    _require_selection_penalty(penalty)
    if coeffs.degree != penalty.degree:
        raise ValueError(
            f"coefficient degree {coeffs.degree} does not match penalty degree "
            f"{penalty.degree}"
        )
    if coeffs.n_points != 2 * coeffs.degree + 1:
        raise ValueError(
            "the closed-form GCV score requires coefficients from an interpolatory "
            f"grid with n_points = 2*degree + 1, got n_points = {coeffs.n_points}"
        )
    if not lam > 0:
        raise ValueError(f"the GCV score is undefined at lam = {lam}; it needs lam > 0")
    if gcv_trace(penalty, lam) == 0.0:
        raise ValueError("the GCV score is undefined: the penalty traces to zero")
    return RegularizationPath(coeffs.values, penalty.beta**2, float(lam), 0.0, coeffs.n_points).gcv()


def gcv_trace(penalty: PenaltySequence, lam: float) -> float:
    """Effective residual degrees of freedom sum_modes lam*beta**2/(1+lam*beta**2)."""
    _require_nonnegative(lam)
    beta_sq = penalty.beta**2
    return float(np.sum(lam * beta_sq / (1.0 + lam * beta_sq)))


def gcv_bounds(coeffs, lam: float) -> tuple[float, float]:
    """A-priori envelope for the GCV score from the extreme |coefficients|:

        0.5*(lam*z_min/(1+lam))**2  <=  V(lam)  <=  (1+lam)**2 * z_max**2 / (2*lam**2).
    """
    if not lam > 0:
        raise ValueError(f"the GCV envelope needs lam > 0, got {lam}")
    z = np.abs(coeffs.values)
    z_min = float(z.min())
    z_max = float(z.max())
    lower = 0.5 * (lam * z_min / (1.0 + lam)) ** 2
    upper = (1.0 + lam) ** 2 * z_max**2 / (2.0 * lam**2)
    return lower, upper


def select_gcv(samples, grid: TrapezoidalGrid, degree: int, penalty: PenaltySequence,
               params: ParameterGrid) -> SelectionReport:
    """Minimize the closed-form GCV score over the parameter grid.

    Requires the interpolatory setting N = 2*degree + 1 and data with a
    nonzero penalized seminorm (not constant up to roundoff).
    """
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, params.lambdas)
    return STRATEGIES["gcv"].run(path, params)


def _run_gcv(path, params, **_):
    if path.n_points != path.coeffs.size:
        raise InapplicableStrategyError(
            "GCV selection requires the interpolatory setting "
            f"n_points = 2*degree + 1, got n_points = {path.n_points}"
        )
    _require_penalized_data(path, "GCV")
    v_vals = path.gcv()
    idx = int(np.argmin(v_vals))
    return SelectionReport(
        strategy="gcv",
        lambdas=params.lambdas,
        chosen_lambda=float(params.lambdas[idx]),
        chosen_index=idx,
        gcv=v_vals,
    )


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
    idx = int(np.argmin(errs))
    return SelectionReport(
        strategy="oracle",
        lambdas=params.lambdas,
        chosen_lambda=float(params.lambdas[idx]),
        chosen_index=idx,
        l2_error=errs,
    )


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
    message of each that raised a :class:`SelectionError` or chose none
    (Morozov with its noise assumption violated).
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
            report = strategy.run(path, params, **inputs)
        except SelectionError as exc:
            failures[name] = str(exc)
            continue
        if report.chosen_lambda is None:
            failures[name] = (
                f"{name} noise assumption violated: the noise norm does not separate "
                "the full-degree residual from the residual of the node mean"
            )
        else:
            reports[name] = report
    return reports, failures
