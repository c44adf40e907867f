"""Penalization weight sequences for the coefficient-shrinkage solver.

A penalty attaches one nonnegative weight beta_ell to each frequency
ell = 0..L, shared by cos(ell x) and sin(ell x); the regularized solver
divides both modes of frequency ell by 1 + lambda*beta_ell**2, so larger
weights damp their modes harder.  The one family raises the frequency to a
power,

    beta_ell = ell**s,   s > 0,

which grows with frequency and vanishes on the constant mode.  Every
:class:`PenaltySequence` has that shape: its constructor refuses any other,
so the solver, the selection and the error bounds check nothing but the
degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PenaltySequence",
    "laplace_penalty",
]


@dataclass(frozen=True, eq=False)
class PenaltySequence:
    """One weight per frequency, ``beta[ell]`` for ell = 0..degree >= 0, kept
    as a read-only float copy.  Any other count (a per-mode array of
    2*degree + 1 too), a nonzero ``beta[0]``, and a negative or NaN weight
    or one whose square is not a finite float are refused."""

    degree: int
    beta: np.ndarray

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if not self.degree >= 0 or beta.shape != (self.degree + 1,):
            raise ValueError(f"a penalty needs degree >= 0 and degree + 1 = {self.degree + 1} weights, one "
                             f"per frequency, got degree {self.degree} and shape {beta.shape}")
        if beta[0] != 0:
            raise ValueError(f"a penalty needs zero weight on the constant mode, got beta[0] = {beta[0]}")
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~(beta >= 0) | ~np.isfinite(beta**2))
        if bad.size:
            raise ValueError(f"weights must be >= 0 with a finite square, got beta[{bad[0]}] = {beta[bad[0]]}")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)


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
    """Power-law weights beta_ell = ell**s (zero on the constant mode).

    The exponent must be positive and finite; s = 1 matches second-derivative
    smoothing, larger s penalizes high frequencies more aggressively.  Every
    consumer squares the weights, so the top squared weight degree**(2*s)
    must be a finite float.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    _require_positive(s, "smoothness exponent s")
    with np.errstate(over="ignore"):  # refused below
        beta = np.arange(degree + 1, dtype=float) ** float(s)
        top_sq = beta[-1] ** 2
    if not np.isfinite(top_sq):
        raise ValueError(
            f"smoothness exponent s = {s} is too steep for degree {degree}: "
            f"the top squared weight {degree}**(2*s) overflows"
        )
    return PenaltySequence(degree=degree, beta=beta)

