"""Regularized trigonometric least squares on the equidistant circle grid.

Because the basis is orthonormal under the discrete inner product, the
penalized least-squares problem

    min_p  sum_j w*(p(x_j) - f_j)**2 + lambda * ||weighted coefficients||**2

decouples mode by mode and has the closed-form solution

    alpha(ell, k) = <f, Y(ell,k)>_N / (1 + lambda * beta_ell**2).

N is the number of samples and L the penalty's degree.  lambda = 0
reproduces plain discrete least squares (interpolation when N = 2L + 1,
hyperinterpolation when N > 2L + 1); lambda > 0 shrinks every penalized
mode toward zero.  :func:`solve` reads that shrinkage from the one-lambda
:class:`~trigreg.selection.RegularizationPath` of the samples and returns
the polynomial as callable :class:`~trigreg.grid.FourierCoefficients`.
"""

from __future__ import annotations

import numpy as np

from .grid import FourierCoefficients, synthesize
from .penalty import PenaltySequence, _require_nonnegative
from .selection import RegularizationPath

__all__ = [
    "solve",
    "evaluate",
    "condition_number",
    "stability_constant",
    "lebesgue_bound",
]


def solve(samples, penalty: PenaltySequence, lam: float) -> FourierCoefficients:
    """Solve the penalized least-squares problem in closed form.

    A thin view of :class:`~trigreg.selection.RegularizationPath`: the
    path of the samples over the one lambda ``lam``, and its coefficients
    there, as the polynomial ``FourierCoefficients(L, alpha, N)``, where N
    is the sample count and L the penalty's degree.  Requires lam >= 0 and
    2L + 1 <= N.
    """
    _require_nonnegative(lam)
    lam = float(lam)
    path = RegularizationPath.from_samples(samples, penalty, np.array([lam]))
    alpha = path.alpha(lam)
    alpha.flags.writeable = False
    return FourierCoefficients(penalty.degree, alpha, path.n_points)


def evaluate(approx: FourierCoefficients, points):
    """Evaluate the approximant at arbitrary angle(s): :func:`~trigreg.grid.synthesize`."""
    return synthesize(approx, points)


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

    Returns sqrt(1 + lam**-2 * 2 * sum_{ell>=1} beta_ell**-4), the sum over
    both modes of each nonconstant frequency.  The bound only exists when
    lam is strictly positive and every nonconstant frequency carries a
    strictly positive weight.
    """
    if not lam > 0:
        raise ValueError(
            f"the stability bound is undefined for lam = {lam}; it needs lam > 0"
        )
    rest = penalty.beta[1:]
    if np.any(rest == 0):
        raise ValueError(
            "the stability bound is undefined when a nonconstant frequency has zero weight"
        )
    return float(np.sqrt(1.0 + lam**-2 * 2.0 * np.sum(rest**-4.0)))


def lebesgue_bound(lam: float, penalty: PenaltySequence) -> float:
    """Upper bound 1 + 2 * sum_{ell>=1} sqrt(2)/(1 + lam*beta_ell**2) on the
    sup-norm of the sampling operator applied to unit-sup data, the sum
    counting both modes of each nonconstant frequency.

    Grows like the dimension at lam = 0 and decays toward 1 as lam -> inf.
    """
    _require_nonnegative(lam)
    rest_sq = penalty.beta[1:] ** 2
    return 1.0 + 2.0 * float(np.sum(np.sqrt(2.0) / (1.0 + lam * rest_sq)))
