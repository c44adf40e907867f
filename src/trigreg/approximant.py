"""Regularized trigonometric least squares on the equidistant circle grid.

Because the basis is orthonormal under the discrete inner product, the
penalized least-squares problem

    min_p  sum_j w*(p(x_j) - f_j)**2 + lambda * ||weighted coefficients||**2

decouples mode by mode and has the closed-form solution

    alpha(ell, k) = <f, Y(ell,k)>_N / (1 + lambda * beta(ell,k)**2).

lambda = 0 reproduces plain discrete least squares (interpolation when
N = 2*degree + 1); lambda > 0 shrinks every penalized mode toward zero.
:func:`solve` reads that shrinkage from the one-lambda
:class:`~trigreg.selection.RegularizationPath` of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FourierCoefficients, TrapezoidalGrid, synthesize
from .penalty import PenaltySequence, _require_nonnegative
from .selection import RegularizationPath

__all__ = [
    "RegularizedApproximant",
    "solve",
    "evaluate",
    "condition_number",
    "stability_constant",
    "lebesgue_bound",
]


@dataclass(frozen=True)
class RegularizedApproximant:
    """A solved approximant: its regularized coefficients ``alpha``.

    ``zero_data`` flags the degenerate case where every discrete Fourier
    coefficient of the samples vanished (the approximant is identically
    zero).  Instances are callable.
    """

    degree: int
    n_points: int
    lam: float
    penalty: PenaltySequence
    alpha: np.ndarray
    zero_data: bool

    def __call__(self, points):
        return evaluate(self, points)


def solve(samples, grid: TrapezoidalGrid, degree: int, lam: float,
          penalty: PenaltySequence) -> RegularizedApproximant:
    """Solve the penalized least-squares problem in closed form.

    A thin view of :class:`~trigreg.selection.RegularizationPath`: the
    path of the samples over the one lambda ``lam``, and its coefficients
    there.  Requires lam >= 0, a penalty built for the same degree with zero
    weight on the constant mode, and 2*degree + 1 <= N.  All-zero
    coefficient data is allowed but flagged on the result.
    """
    _require_nonnegative(lam)
    lam = float(lam)
    path = RegularizationPath.from_samples(samples, grid, degree, penalty, np.array([lam]))
    alpha = path.alpha(lam)
    alpha.flags.writeable = False
    return RegularizedApproximant(degree, grid.n_points, lam, penalty, alpha, not np.any(path.coeffs))


def evaluate(approx: RegularizedApproximant, points):
    """Evaluate the approximant at arbitrary angle(s)."""
    return synthesize(FourierCoefficients(approx.degree, approx.alpha, approx.n_points), points)


def condition_number(lam: float, penalty: PenaltySequence) -> float:
    """Spectral condition number of the diagonal regularized system.

    The system matrix is diag(1 + lam*beta**2), so the condition number is
    the ratio of its extreme entries.  It equals 1 at lam = 0 and never
    decreases as lam grows.
    """
    _require_nonnegative(lam)
    beta_sq = penalty.beta**2
    return (1.0 + lam * np.max(beta_sq)) / (1.0 + lam * np.min(beta_sq))


def stability_constant(lam: float, penalty: PenaltySequence) -> float:
    """Uniform-in-N bound factor on the operator norm for lam > 0.

    Returns sqrt(1 + lam**-2 * sum_{ell>=1} beta(ell,k)**-4).  The bound only
    exists when lam is strictly positive and every nonconstant mode carries a
    strictly positive weight (and the constant mode none at all).
    """
    if not lam > 0:
        raise ValueError(
            f"the stability bound is undefined for lam = {lam}; it needs lam > 0"
        )
    if penalty.beta[0] != 0:
        raise ValueError(
            "the stability bound requires zero weight on the constant mode, "
            f"got beta[0] = {penalty.beta[0]}"
        )
    rest = penalty.beta[1:]
    if rest.size and np.any(rest == 0):
        raise ValueError(
            "the stability bound is undefined when a nonconstant mode has zero weight"
        )
    return float(np.sqrt(1.0 + lam**-2 * np.sum(rest**-4.0)))


def lebesgue_bound(lam: float, penalty: PenaltySequence) -> float:
    """Upper bound 1 + sum_{ell>=1} sqrt(2)/(1 + lam*beta**2) on the sup-norm
    of the sampling operator applied to unit-sup data.

    Grows like the dimension at lam = 0 and decays toward 1 as lam -> inf.
    """
    _require_nonnegative(lam)
    rest_sq = penalty.beta[1:] ** 2
    return 1.0 + float(np.sum(np.sqrt(2.0) / (1.0 + lam * rest_sq)))
