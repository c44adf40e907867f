"""Penalization weight sequences for the coefficient-shrinkage solver.

A penalty attaches a nonnegative weight beta(ell, k) to every basis mode; the
regularized solver divides mode (ell, k) by 1 + lambda*beta**2, so larger
weights damp their modes harder.  The default family raises the frequency to
a power,

    beta(ell, k) = ell**s,   s > 0,

which grows with frequency and vanishes on the constant mode -- the shape all
selection and error-bound routines require.  A constant-weight form (every
mode weighted tau, including the constant mode) exists solely to mirror the
regularized barycentric evaluator and is flagged ``constant_form``.  The
selection machinery does not read that flag: it rejects every penalty whose
constant-mode weight ``beta[0]`` is nonzero, so it rejects this form for
every tau > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FourierCoefficients, mode_layout

__all__ = [
    "PenaltySequence",
    "laplace_penalty",
    "constant_penalty",
    "sobolev_norm_truncated",
]


@dataclass(frozen=True)
class PenaltySequence:
    """Mode weights in canonical harmonic order (length 2*degree + 1).

    ``exponent_s`` is set for the power-law family, ``constant_form`` marks
    the constant-weight family.
    """

    degree: int
    beta: np.ndarray
    exponent_s: float | None = None
    constant_form: bool = False


def _require_nonnegative(value, what: str = "regularization parameter"):
    """Refuse a negative or NaN scalar (``not value >= 0``) and +inf.

    An infinite lambda would make lam * beta**2 = inf * 0 = NaN on the
    unpenalized constant mode; an infinite weight or noise norm is no
    more meaningful.
    """
    if not value >= 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    if value == np.inf:
        raise ValueError(f"{what} must be finite, got {value}")


def _require_positive(value, what: str):
    """Refuse a nonpositive or NaN scalar (``not value > 0``) and +inf."""
    if not value > 0:
        raise ValueError(f"{what} must be > 0, got {value}")
    if value == np.inf:
        raise ValueError(f"{what} must be finite, got {value}")


def laplace_penalty(degree: int, s: float = 1.0) -> PenaltySequence:
    """Power-law weights beta(ell, k) = ell**s (zero on the constant mode).

    The exponent must be positive and finite; s = 1 matches second-derivative
    smoothing, larger s penalizes high frequencies more aggressively.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    _require_positive(s, "smoothness exponent s")
    beta = mode_layout(degree)[0].astype(float) ** float(s)
    beta.flags.writeable = False
    return PenaltySequence(degree=degree, beta=beta, exponent_s=float(s))


def constant_penalty(degree: int, value: float) -> PenaltySequence:
    """Constant weights beta(ell, k) = value on every mode (finite, >= 0).

    Note the square: the damping factor applied to each mode is
    1/(1 + lam*value**2), so ``constant_penalty(L, sqrt(tau))`` is the
    sequence that matches ``evaluate_barycentric(..., tau=tau, ...)``.

    Only the barycentric evaluator accepts this form; selection and
    error-bound routines require a penalty that vanishes on the constant
    mode (use :func:`laplace_penalty` there).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    _require_nonnegative(value, "constant weight")
    beta = np.full(2 * degree + 1, float(value))
    beta.flags.writeable = False
    return PenaltySequence(degree=degree, beta=beta, constant_form=True)


def sobolev_norm_truncated(coeffs: FourierCoefficients, penalty: PenaltySequence) -> float:
    """Weighted coefficient norm sqrt(sum_modes (beta * coefficient)**2).

    Measures the smoothness of the degree-L polynomial with the given
    coefficients; the constant mode never contributes under a power-law
    penalty because its weight is zero.
    """
    if coeffs.degree != penalty.degree:
        raise ValueError(
            f"coefficient degree {coeffs.degree} does not match penalty degree "
            f"{penalty.degree}"
        )
    return float(np.linalg.norm(penalty.beta * coeffs.values))
