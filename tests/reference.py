"""Dense reference formulas that the tests check the library against.

Nothing here imports trigreg.  Each quantity is evaluated from its
definition, point by point on an explicit angle grid, so a test that compares
a closed form or an FFT path of the library with these functions compares
two independent computations.
"""

import math

import numpy as np


def harmonic(ell: int, k: int, x) -> np.ndarray:
    """Basis mode Y(ell, k) at the angles x: 1/sqrt(2*pi) for ell = 0, else
    cos(ell*x)/sqrt(pi) (k = 1) or sin(ell*x)/sqrt(pi) (k = 2)."""
    x = np.asarray(x, dtype=float)
    if ell == 0:
        return np.full(x.shape, 1.0 / math.sqrt(2.0 * math.pi))
    wave = np.cos if k == 1 else np.sin
    return wave(ell * x) / math.sqrt(math.pi)


def _difference(approximant, true_function, count: int) -> np.ndarray:
    """p - f at the K = ``count`` equidistant angles -pi + 2*pi*j/K."""
    x = -math.pi + 2.0 * math.pi * np.arange(count) / count
    return np.asarray(approximant(x), dtype=float) - np.asarray(true_function(x), dtype=float)


def l2_error(approximant, true_function, count: int = 10000) -> float:
    """Discretized L2 distance sqrt((2*pi/K) * sum (p - f)**2) over K equidistant
    angles; ``approximant`` is anything callable on an angle array."""
    diff = _difference(approximant, true_function, count)
    return math.sqrt(2.0 * math.pi / count * float(np.dot(diff, diff)))


def uniform_error(approximant, true_function, count: int = 10000) -> float:
    """Max |p - f| over the same K equidistant angles as :func:`l2_error`."""
    return float(np.max(np.abs(_difference(approximant, true_function, count))))


def path_diagnostics(coeffs, beta_sq, lambdas, r0: float = 0.0) -> dict:
    """J, K, K', kappa and V of the shrinkage c/(1 + lam*beta**2), summed mode by mode.

    ``coeffs`` and ``beta_sq`` hold one entry per mode, ``lambdas`` the path.
    With s = 1/(1 + lam*beta**2) for every (mode, lambda) pair:

        J  = r0 + sum (lam*beta**2*s)**2 * c**2
        K  = sum beta**2 * s**2 * c**2
        K' = -2 * sum beta**4 * s**3 * c**2
        kappa = J*K/|K'| * (lam*K'*J + J*K + lam**2*K'*K) / (lam**2*K**2 + J**2)**1.5
        V  = (J - r0) / (sum lam*beta**2*s)**2

    kappa is the signed curvature of the L-curve (log J, log K), by the
    exchange identity J' = -lam*K'.
    """
    c_sq = np.asarray(coeffs, dtype=float)[:, None] ** 2
    bsq = np.asarray(beta_sq, dtype=float)[:, None]
    lam = np.asarray(lambdas, dtype=float)
    shrink = 1.0 / (1.0 + bsq * lam)
    weight = bsq * lam * shrink
    fit = np.sum(weight**2 * c_sq, axis=0)
    j = r0 + fit
    k = np.sum(bsq * shrink**2 * c_sq, axis=0)
    k_prime = -2.0 * np.sum(bsq**2 * shrink**3 * c_sq, axis=0)
    kappa = j * k / np.abs(k_prime) * (lam * k_prime * j + j * k + lam**2 * k_prime * k) / (
        lam**2 * k**2 + j**2
    ) ** 1.5
    return {"J": j, "K": k, "K'": k_prime, "kappa": kappa, "V": fit / np.sum(weight, axis=0) ** 2}
