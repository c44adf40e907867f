"""Independent reference results for the benchmark's output checks.

Nothing here imports trigreg.  The reference re-derives every checked
quantity from the documented conventions (README "Conventions", the
experiment module's noise model) by a different route than the package:

* analysis of samples on the odd N-point grid x_j = -pi + 2*pi*j/N by one
  real FFT instead of a dense basis product (Cooley and Tukey, 1965);
* every per-lambda diagnostic in closed form in the coefficients c, which is
  exact on the interpolatory grid N = 2L + 1 the benchmark uses:
  J = sum (w c)**2, K = sum beta**2 s**2 c**2, K' = -2 sum beta**4 s**3 c**2
  and the GCV score V = J / (sum w)**2, with s = 1/(1 + lam beta**2) and
  w = 1 - s;
* the oracle error on the K-point evaluation grid by Parseval:
  ||p - f||_K**2 = ||s c - g||**2 + ||f - P_L f||_K**2, where g are the
  degree-L coefficients of the truth on that grid.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Gallery signals, as documented in README.md ("Gallery signals").
GALLERY = {
    "f1": lambda x: np.exp(np.cos(x)),
    "f2": lambda x: np.exp(np.cos(x)) + np.sin(30.0 * x),
    "sawtooth": lambda x: np.mod(x + math.pi, TWO_PI) / math.pi - 1.0,
    "sine": np.sin,
    "square": lambda x: np.sign(np.sin(x)),
    "triangle": lambda x: 2.0 / math.pi * np.arcsin(np.sin(x)),
}
GALLERY_NAMES = tuple(sorted(GALLERY))


def nodes(n: int) -> np.ndarray:
    """The odd equidistant grid x_j = -pi + 2*pi*j/n, j = 0..n-1."""
    return -math.pi + TWO_PI * np.arange(n) / n


def lambda_grid(t_max: int = 400, zeta0: float = 1.0, q: float = 2.0 ** -0.1) -> np.ndarray:
    """lambda_k = zeta0 * q**k, k = 1..t_max (the CLI defaults)."""
    return zeta0 * np.power(q, np.arange(1, t_max + 1, dtype=float))


def beta_sq(degree: int) -> np.ndarray:
    """Squared power-law penalty weights ell**2 (s = 1) in canonical order."""
    ells = np.zeros(2 * degree + 1)
    ells[1::2] = ells[2::2] = np.arange(1, degree + 1)
    return ells**2


def noisy_samples(clean: np.ndarray, snr_db: float, seed: int) -> tuple[np.ndarray, float]:
    """The documented SNR noise model; returns (noisy samples, weighted noise norm)."""
    raw = np.random.default_rng(seed).standard_normal(clean.size)
    scale = math.sqrt(np.mean(clean**2)) / (np.std(raw) * 10.0 ** (snr_db / 10.0))
    eps = scale * raw
    return clean + eps, math.sqrt(TWO_PI / clean.size * float(np.dot(eps, eps)))


def mean_residual_norm(samples: np.ndarray) -> float:
    """Weighted norm of the samples minus their mean: Morozov's upper bound on the noise."""
    centred = samples - np.mean(samples)
    return math.sqrt(TWO_PI / samples.size * float(np.dot(centred, centred)))


def sweep_row_seed(seed: int, row: int) -> int:
    """Per-row noise stream of the sweep protocol, derived from (seed, row)."""
    return int(np.random.SeedSequence((seed, row)).generate_state(1, np.uint64)[0])


def _alternating(count: int) -> np.ndarray:
    return np.where(np.arange(count) % 2 == 0, 1.0, -1.0)


def analyze(samples: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients <samples, Y(ell,k)> on the len(samples)-point grid, by rfft.

    With x_j = -pi + 2*pi*j/n, cos(ell x_j) = (-1)**ell cos(2*pi*ell*j/n)
    and likewise for sin, so each coefficient is a signed real or imaginary
    part of the DFT.
    """
    n = samples.size
    spec = np.fft.rfft(samples)[: degree + 1] * (TWO_PI / n)
    sign = _alternating(degree + 1)
    c = np.empty(2 * degree + 1)
    c[0] = spec[0].real / math.sqrt(TWO_PI)
    c[1::2] = sign[1:] * spec[1:].real / math.sqrt(math.pi)
    c[2::2] = -sign[1:] * spec[1:].imag / math.sqrt(math.pi)
    return c


def synthesize(coeffs: np.ndarray, points: int) -> np.ndarray:
    """Values of the polynomial at -pi + 2*pi*i/points, i = 0..points-1, by irfft."""
    degree = (coeffs.size - 1) // 2
    if 2 * degree >= points:
        raise ValueError("evaluation grid too coarse for an exact irfft synthesis")
    sign = _alternating(degree + 1)
    spec = np.zeros(points // 2 + 1, dtype=complex)
    spec[0] = coeffs[0] / math.sqrt(TWO_PI)
    spec[1 : degree + 1] = sign[1:] * (coeffs[1::2] - 1j * coeffs[2::2]) / (2.0 * math.sqrt(math.pi))
    return points * np.fft.irfft(spec, n=points)


class Path:
    """Closed-form lambda-path diagnostics of one interpolatory sample vector."""

    def __init__(self, samples: np.ndarray, lambdas: np.ndarray):
        n = samples.size
        self.degree = (n - 1) // 2
        self.lambdas = lambdas
        self.coeffs = analyze(samples, self.degree)
        bsq = beta_sq(self.degree)
        lam_bsq = np.multiply.outer(bsq, lambdas)
        self.shrink = 1.0 / (1.0 + lam_bsq)  # s, shape (2L+1, T)
        w = lam_bsq * self.shrink  # 1 - s without cancellation
        c_sq = (self.coeffs**2)[:, None]
        self.J = (w**2 * c_sq).sum(axis=0)
        self.K = (bsq[:, None] * self.shrink**2 * c_sq).sum(axis=0)
        self.Kp = -2.0 * (bsq[:, None] ** 2 * self.shrink**3 * c_sq).sum(axis=0)
        self.V = self.J / w.sum(axis=0) ** 2

    def curvature(self) -> np.ndarray:
        lam, j, k, kp = self.lambdas, self.J, self.K, self.Kp
        num = lam * kp * j + j * k + lam**2 * kp * k
        return j * k / np.abs(kp) * num / (lam**2 * k**2 + j**2) ** 1.5

    def oracle_error(self, truth, eval_points: int) -> np.ndarray:
        """Discretized L2 error sqrt((2*pi/K) sum (p_lam - f)**2) for every lambda."""
        x = nodes(eval_points)
        f = np.asarray(truth(x), dtype=float)
        g = analyze(f, self.degree)
        rest = f - synthesize(g, eval_points)
        out_of_band = TWO_PI / eval_points * float(np.dot(rest, rest))
        diff = self.shrink * self.coeffs[:, None] - g[:, None]
        return np.sqrt((diff**2).sum(axis=0) + out_of_band)


def argbest(objective: np.ndarray, maximize: bool = False) -> int:
    return int(np.argmax(objective) if maximize else np.argmin(objective))


def near_tie(objective: np.ndarray, chosen: int, rel: float, maximize: bool = False) -> bool:
    """True when ``chosen`` is the best index or within ``rel`` of the best value."""
    best = objective[argbest(objective, maximize)]
    gap = best - objective[chosen] if maximize else objective[chosen] - best
    return bool(gap <= rel * abs(best))


def morozov_indices(discrepancy: np.ndarray, tol: float) -> set[int]:
    """Grid indices a discrepancy-principle scan may stop at, up to ``tol``.

    The exact stop is the first k with F_k <= 0.  Indices whose F lies within
    ``tol`` of 0 may go either way under roundoff, so every k with F_k <= tol
    and F_i > -tol for all i < k is accepted.  An empty scan (F > 0
    everywhere) maps to the last index, as the selector documents.
    """
    accepted = set()
    for k, f in enumerate(discrepancy):
        if f <= tol:
            accepted.add(k)
        if f <= -tol:
            break
    return accepted or {discrepancy.size - 1}


def bracket(lambdas: np.ndarray, index: int, zeta0: float, hit: bool) -> tuple[float, float]:
    """The grid interval that holds the refined discrepancy root."""
    if not hit:
        return 0.0, float(lambdas[-1])
    upper = zeta0 if index == 0 else float(lambdas[index - 1])
    return float(lambdas[index]), upper
