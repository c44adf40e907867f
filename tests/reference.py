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
