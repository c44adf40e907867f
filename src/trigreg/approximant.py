"""Regularized trigonometric least squares on the equidistant circle grid.

Because the basis is orthonormal under the discrete inner product, the
penalized least-squares problem

    min_p  sum_j w*(p(x_j) - f_j)**2 + lambda * ||weighted coefficients||**2

decouples mode by mode and has the closed-form solution

    alpha(ell, k) = <f, Y(ell,k)>_N / (1 + lambda * beta(ell,k)**2).

lambda = 0 reproduces plain discrete least squares (interpolation when
N = 2*degree + 1); lambda > 0 shrinks every penalized mode toward zero.

For the interpolatory case with a *constant* weight there is also a
barycentric evaluation path that works directly on the samples without
forming coefficients; see :func:`evaluate_barycentric`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    FourierCoefficients,
    TrapezoidalGrid,
    _require_finite,
    analyze,
    reduce_angle,
    synthesize,
)
from .penalty import PenaltySequence

__all__ = [
    "RegularizedApproximant",
    "solve",
    "evaluate",
    "evaluate_barycentric",
    "condition_number",
    "stability_constant",
    "lebesgue_bound",
]


@dataclass(frozen=True)
class RegularizedApproximant:
    """A solved approximant: shrunk coefficients plus their provenance.

    ``alpha`` holds the regularized coefficients, ``source_coeffs`` the
    unshrunk discrete Fourier coefficients they were derived from.
    ``zero_data`` flags the degenerate case where every source coefficient
    vanished (the approximant is identically zero).  Instances are callable.
    """

    degree: int
    n_points: int
    lam: float
    penalty: PenaltySequence
    alpha: np.ndarray
    source_coeffs: FourierCoefficients
    zero_data: bool

    def __call__(self, points):
        return evaluate(self, points)

    def l2_norm(self) -> float:
        """Continuous L2 norm of the approximant (Parseval, never quadrature)."""
        return float(np.linalg.norm(self.alpha))


def solve(
    samples,
    grid: TrapezoidalGrid,
    degree: int,
    lam: float,
    penalty: PenaltySequence,
) -> RegularizedApproximant:
    """Solve the penalized least-squares problem in closed form.

    Requires lam >= 0, a penalty built for the same degree, and
    2*degree + 1 <= N.  All-zero coefficient data is allowed but flagged on
    the result.
    """
    if not lam >= 0:
        raise ValueError(f"regularization parameter must be >= 0, got {lam}")
    if penalty.degree != degree:
        raise ValueError(
            f"penalty degree {penalty.degree} does not match requested degree {degree}"
        )
    coeffs = analyze(samples, grid, degree)
    alpha = coeffs.values / (1.0 + lam * penalty.beta**2)
    alpha.flags.writeable = False
    return RegularizedApproximant(
        degree=degree,
        n_points=grid.n_points,
        lam=float(lam),
        penalty=penalty,
        alpha=alpha,
        source_coeffs=coeffs,
        zero_data=not np.any(coeffs.values),
    )


def evaluate(approx: RegularizedApproximant, points):
    """Evaluate the approximant at arbitrary angle(s)."""
    coeffs = FourierCoefficients(
        degree=approx.degree, values=approx.alpha, n_points=approx.n_points
    )
    return synthesize(coeffs, points)


def evaluate_barycentric(samples, grid: TrapezoidalGrid, lam: float, tau: float, points):
    """Regularized barycentric interpolation directly from the samples.

    Evaluates, in O(N) per point and without forming coefficients,

        t(x) = 1/(1 + lam*tau) * [sum_j (-1)**j f_j / sin((x - x_j)/2)]
                                / [sum_j (-1)**j / sin((x - x_j)/2)],

    which equals the closed-form solve of degree (N-1)/2 under the constant
    weight beta = sqrt(tau): the shrinkage factor is uniform across modes, so
    it commutes with interpolation.  The alternating signs may carry a global
    offset depending on where node numbering starts; the offset cancels
    between numerator and denominator, so any consistent alternation is
    correct (the test suite asserts agreement with the direct path).

    Points within 1e-12 of a node (as circle distance) receive the exact
    limit value f_j / (1 + lam*tau).
    """
    if not lam >= 0:
        raise ValueError(f"regularization parameter must be >= 0, got {lam}")
    if not tau >= 0:
        raise ValueError(f"constant weight tau must be >= 0, got {tau}")
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n_points,):
        raise ValueError(
            f"expected {grid.n_points} samples on the grid, got shape {samples.shape}"
        )
    _require_finite(samples, "samples")
    scalar = np.ndim(points) == 0
    x = np.atleast_1d(reduce_angle(np.asarray(points, dtype=float)))

    diff = x[:, None] - grid.nodes[None, :]
    shrink = 1.0 + lam * tau
    signs = np.where(np.arange(grid.n_points) % 2 == 0, -1.0, 1.0)  # (-1)**j, j from 1
    with np.errstate(divide="ignore", invalid="ignore"):
        csc = 1.0 / np.sin(0.5 * diff)
        out = (csc @ (signs * samples)) / (csc @ signs) / shrink

    # Node hits: circle distance below the guard threshold gets the limit value.
    circ = np.abs(reduce_angle(diff))
    hit_rows, hit_cols = np.nonzero(circ < 1e-12)
    out[hit_rows] = samples[hit_cols] / shrink
    return float(out[0]) if scalar else out


def condition_number(lam: float, penalty: PenaltySequence) -> float:
    """Spectral condition number of the diagonal regularized system.

    The system matrix is diag(1 + lam*beta**2), so the condition number is
    the ratio of its extreme entries.  It equals 1 at lam = 0 and for any
    constant-weight penalty, and never decreases as lam grows.
    """
    if not lam >= 0:
        raise ValueError(f"regularization parameter must be >= 0, got {lam}")
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
            "the stability bound requires zero weight on the constant mode; "
            "got a constant-form penalty"
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
    if not lam >= 0:
        raise ValueError(f"regularization parameter must be >= 0, got {lam}")
    rest_sq = penalty.beta[1:] ** 2
    return 1.0 + float(np.sum(np.sqrt(2.0) / (1.0 + lam * rest_sq)))
