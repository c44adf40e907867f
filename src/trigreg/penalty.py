"""Penalization weight sequences for the coefficient-shrinkage solver.

A penalty attaches a nonnegative weight beta(ell, k) to every basis mode; the
regularized solver divides mode (ell, k) by 1 + lambda*beta**2, so larger
weights damp their modes harder.  The one family raises the frequency to a
power,

    beta(ell, k) = ell**s,   s > 0,

which grows with frequency and vanishes on the constant mode -- the shape the
solver, the selection and the error-bound routines require.  They refuse a
hand-built :class:`PenaltySequence` whose constant-mode weight ``beta[0]``
is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import mode_layout

__all__ = [
    "PenaltySequence",
    "laplace_penalty",
]


@dataclass(frozen=True)
class PenaltySequence:
    """Mode weights in canonical harmonic order (length 2*degree + 1)."""

    degree: int
    beta: np.ndarray


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
    smoothing, larger s penalizes high frequencies more aggressively.  Every
    consumer squares the weights, so the top squared weight degree**(2*s)
    must be a finite float.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    _require_positive(s, "smoothness exponent s")
    with np.errstate(over="ignore"):  # refused below
        beta = mode_layout(degree)[0].astype(float) ** float(s)
        top_sq = beta[-1] ** 2
    if not np.isfinite(top_sq):
        raise ValueError(
            f"smoothness exponent s = {s} is too steep for degree {degree}: "
            f"the top squared weight {degree}**(2*s) overflows"
        )
    beta.flags.writeable = False
    return PenaltySequence(degree=degree, beta=beta)

