"""Equidistant trapezoidal grids on the circle and the real trigonometric basis.

Angles live on [-pi, pi).  An N-point grid (N odd) places its nodes at
x_j = -pi + 2*pi*(j-1)/N, j = 1..N, each carrying the same quadrature weight
2*pi/N.  This equal-weight rule integrates every trigonometric polynomial of
degree <= N-1 exactly, so the normalized basis

    Y(0,1) = 1/sqrt(2*pi),
    Y(ell,1) = cos(ell*x)/sqrt(pi),   Y(ell,2) = sin(ell*x)/sqrt(pi),

is orthonormal under the induced discrete inner product whenever
2*degree + 1 <= N.  Fourier analysis of equispaced samples is then a real
DFT: the nodes start at -pi, so cos(ell*x_j) = (-1)**ell * cos(2*pi*ell*j/N)
and likewise for sin, and each coefficient is a signed real or imaginary part
of one rfft bin (Cooley and Tukey, 1965).  :func:`uniform_projection` is the
package's one projection routine: a single rfft gives the coefficients and
the squared remainder ||f - P_L f||**2 of samples, in O(N log N) time and
O(N) memory (:func:`analyze` and the regularization path).
:func:`uniform_synthesis` is its inverse, one irfft from coefficients to the
values on any K-point equispaced grid (dense evaluation, node residuals),
exact for every K >= 1; the half-spectrum it transforms is
:func:`uniform_spectrum`.  :func:`_fold` is the one alias fold, the map of
per-frequency modes onto the K//2 + 1 rfft bins for any K: it builds that
spectrum, and the error curves against a known function read p_lam - f
through it on the rfft of that function, :func:`uniform_rfft`.  Both
directions take the (-1)**ell phase and the basis normalization from
:func:`_mode_factors`.  A fixed numpy build
fixes the FFT's summation order, so results are reproducible run to run, and
its roundoff grows like log N, where a direct sum's grows with ell*x.
:func:`basis_matrix` and :func:`synthesize` remain for arbitrary points.

Every angle is reduced into [-pi, pi) before basis evaluation, so callers may
pass arbitrary real angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "TrapezoidalGrid",
    "FourierCoefficients",
    "reduce_angle",
    "mode_layout",
    "harmonic_indices",
    "make_grid",
    "uniform_eval_points",
    "basis_matrix",
    "discrete_inner",
    "weighted_norm",
    "analyze",
    "synthesize",
    "uniform_rfft",
    "uniform_projection",
    "uniform_spectrum",
    "uniform_synthesis",
]


def reduce_angle(x):
    """Reduce angles into the half-open interval [-pi, pi).

    Accepts scalars or arrays; scalars come back as ``float``.
    """
    arr = np.asarray(x, dtype=float)
    out = np.mod(arr + np.pi, TWO_PI) - np.pi
    # np.mod can round up to the modulus itself for tiny negative inputs;
    # fold that boundary case back so the result stays inside [-pi, pi).
    out = np.where(out >= np.pi, out - TWO_PI, out)
    if arr.ndim == 0:
        return float(out)
    return out


def mode_layout(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequency ell and branch k of each of the 2*degree + 1 canonical slots.

    Two int arrays: ell = 0, 1, 1, 2, 2, ... and k = 1, 1, 2, 1, 2, ...
    (k=1 cosine, k=2 sine), the one definition of the canonical order.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    ells = np.zeros(2 * degree + 1, dtype=int)
    ells[1::2] = ells[2::2] = np.arange(1, degree + 1)
    branches = np.ones(2 * degree + 1, dtype=int)
    branches[2::2] = 2
    return ells, branches


def harmonic_indices(degree: int) -> list[tuple[int, int]]:
    """The 2*degree + 1 (ell, k) int pairs of :func:`mode_layout`, in canonical order."""
    return list(zip(*(a.tolist() for a in mode_layout(degree))))


@dataclass(frozen=True, eq=False)
class TrapezoidalGrid:
    """Equidistant nodes on [-pi, pi) with the uniform weight 2*pi/N."""

    n_points: int
    nodes: np.ndarray
    weight: float


def make_grid(n_points: int) -> TrapezoidalGrid:
    """Build the N-point equidistant grid starting at -pi.

    N must be an odd integer >= 3: odd counts keep the quadrature rule exact
    through degree N-1, which the orthonormality of the basis relies on.
    """
    if not isinstance(n_points, (int, np.integer)):
        raise TypeError(f"n_points must be an integer, got {type(n_points).__name__}")
    n = int(n_points)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n_points must be an odd integer >= 3, got {n}")
    nodes = -np.pi + TWO_PI * np.arange(n) / n
    nodes.flags.writeable = False
    return TrapezoidalGrid(n_points=n, nodes=nodes, weight=TWO_PI / n)


def uniform_eval_points(n_points: int) -> np.ndarray:
    """Equidistant evaluation angles -pi + 2*pi*j/K, j = 0..K-1 (any K >= 1)."""
    if n_points < 1:
        raise ValueError(f"need at least one evaluation point, got {n_points}")
    return -np.pi + TWO_PI * np.arange(int(n_points)) / int(n_points)


def basis_matrix(points, degree: int) -> np.ndarray:
    """Matrix of all basis modes at the given angles.

    Returns shape (len(points), 2*degree + 1) with columns in canonical
    harmonic order.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    x = np.atleast_1d(reduce_angle(np.asarray(points, dtype=float)))
    m = np.empty((x.size, 2 * degree + 1))
    m[:, 0] = 1.0 / np.sqrt(TWO_PI)
    if degree > 0:
        arg = np.outer(x, np.arange(1, degree + 1, dtype=float))
        # written in place: no temporaries the size of ``arg``
        np.cos(arg, out=m[:, 1::2])
        np.sin(arg, out=m[:, 2::2])
        m[:, 1:] /= np.sqrt(np.pi)
    return m


def discrete_inner(v, z, grid: TrapezoidalGrid) -> float:
    """Weighted dot product (2*pi/N) * sum_j v_j * z_j over the grid nodes."""
    v = np.asarray(v, dtype=float)
    z = np.asarray(z, dtype=float)
    if v.shape != (grid.n_points,) or z.shape != (grid.n_points,):
        raise ValueError(
            f"expected two length-{grid.n_points} sample vectors, "
            f"got shapes {v.shape} and {z.shape}"
        )
    return grid.weight * float(np.dot(v, z))


def weighted_norm(v, grid: TrapezoidalGrid) -> float:
    """Norm induced by :func:`discrete_inner`."""
    return float(np.sqrt(discrete_inner(v, v, grid)))


@dataclass(frozen=True, eq=False)
class FourierCoefficients:
    """Coefficients of a trigonometric polynomial in the orthonormal basis.

    ``values`` follows the canonical harmonic ordering and has length
    2*degree + 1.  ``n_points`` records the grid size the coefficients were
    analyzed on.  Instances are callable: ``coeffs(x)`` synthesizes the
    polynomial at x.
    """

    degree: int
    values: np.ndarray
    n_points: int

    def __call__(self, points):
        return synthesize(self, points)


def _require_finite(values: np.ndarray, what: str):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"{what} must be finite: {bad.size} non-finite value(s), the first "
            f"{values[bad[0]]!r} at index {bad[0]}"
        )


def _validated_samples(samples, grid: TrapezoidalGrid, degree: int) -> np.ndarray:
    """The samples as a float array, checked as :func:`analyze` requires."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n_points,):
        raise ValueError(
            f"expected {grid.n_points} samples on the grid, got shape {samples.shape}"
        )
    if 2 * degree + 1 > grid.n_points:
        raise ValueError(
            f"degree {degree} too high for {grid.n_points} nodes: need "
            f"2*degree + 1 <= n_points for exact quadrature"
        )
    _require_finite(samples, "samples")
    return samples


def analyze(samples, grid: TrapezoidalGrid, degree: int) -> FourierCoefficients:
    """Discrete Fourier coefficients <samples, Y(ell,k)>_N of sampled data.

    Requires 2*degree + 1 <= N so the quadrature underlying the inner product
    stays exact on products of basis modes (otherwise aliasing would corrupt
    every coefficient), and finite samples: a NaN or inf would spread into
    every coefficient and every diagnostic derived from them.  The
    coefficients come from :func:`uniform_projection` on the grid's nodes.
    """
    values, _ = uniform_projection(_validated_samples(samples, grid, degree), degree)
    return FourierCoefficients(degree=degree, values=values, n_points=grid.n_points)


def synthesize(coeffs: FourierCoefficients, points):
    """Evaluate the polynomial with the given coefficients at angle(s)."""
    scalar = np.ndim(points) == 0
    out = basis_matrix(points, coeffs.degree) @ coeffs.values
    return float(out[0]) if scalar else out


def _mode_factors(degree: int) -> np.ndarray:
    """Factors g_ell with Y(ell,1) - i*Y(ell,2) = g_ell * exp(-2*pi*i*ell*j/K) at
    the points x_j = -pi + 2*pi*j/K of every uniform grid (Y(0,2) = 0).

    They hold the (-1)**ell phase of a grid that starts at -pi and the basis
    normalization 1/sqrt(2*pi) (ell = 0) or 1/sqrt(pi), for the one rfft of
    :func:`uniform_projection` and the spectrum of :func:`uniform_spectrum`.
    """
    factors = np.full(degree + 1, 1.0 / np.sqrt(np.pi))
    factors[1::2] *= -1.0
    factors[0] = 1.0 / np.sqrt(TWO_PI)
    return factors


def uniform_rfft(values) -> tuple[np.ndarray, int]:
    """(rfft of the values, K) of a finite vector sampled at ``uniform_eval_points(K)``:
    the truth every error curve reads p_lam - f against, at any K."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-d vector of samples, got shape {values.shape}")
    _require_finite(values, "values")
    return np.fft.rfft(values), values.size


def uniform_projection(values, degree: int) -> tuple[np.ndarray, float]:
    """Project values sampled at ``uniform_eval_points(K)`` onto degree ``degree``.

    Returns the coefficients <values, Y(ell,k)>_K in canonical order and the
    squared remainder ||values - P_L values||_K**2 under the K-point weight
    2*pi/K.  Any K >= 2*degree + 1 works, even K included, because the
    basis is orthonormal on every such grid.  One real FFT gives both
    (Cooley and Tukey, 1965): by :func:`_mode_factors`, the coefficients of
    mode ell are the real part and the negated imaginary part of
    (2*pi/K) * g_ell * bin ell.  The remainder is the norm of the literal
    residual vector, by Parseval on the same rfft's bins above the degree: a
    sum of nonnegative terms, never formed as ||values||**2 -
    ||coefficients||**2, which cancels catastrophically when the projection
    captures nearly everything.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    spec, k = uniform_rfft(values)
    if 2 * degree + 1 > k:
        raise ValueError(
            f"degree {degree} too high for {k} evaluation points: need "
            f"2*degree + 1 <= points"
        )
    modes = spec[: degree + 1] * (TWO_PI / k * _mode_factors(degree))
    coeffs = np.empty(2 * degree + 1)
    coeffs[0] = modes[0].real
    coeffs[1::2] = modes[1:].real
    coeffs[2::2] = -modes[1:].imag
    # bins above the degree stand for themselves and their mirrors, bar an even K's Nyquist bin
    tail = spec[degree + 1 : (k + 1) // 2]
    power = 2.0 * np.vdot(tail, tail).real + (abs(spec[-1]) ** 2 if k % 2 == 0 else 0.0)
    return coeffs, TWO_PI / k**2 * float(power)


def _alias(coeffs, n_points: int):
    """(modes, runs) of the alias fold of coefficients (..., 2*degree + 1) onto
    the rfft bins of ``uniform_eval_points(K)``.  Mode ell adds
    Re(m_ell * exp(2*pi*i*ell*j/K)) at point j, m_ell = g_ell * (cosine - i *
    sine coefficient): the values of r = ell mod K or, for r > K/2, of K - r
    with the sine negated.  So ``modes`` is K/2 * m_ell (irfft divides by K
    and counts a bin twice), conjugated when mirrored, and twice its real
    part on the constant and an even K's Nyquist bin (real, counted once).
    ``runs`` pair ell slices with rising or (mirrored) falling bin slices;
    the first puts 0..h-1 on bins 0..h-1, h = min(degree, K//2) + 1."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim < 1 or coeffs.shape[-1] % 2 == 0:
        raise ValueError(
            f"expected coefficients of shape (..., 2*degree + 1), got {coeffs.shape}"
        )
    k = int(n_points)
    if k < 1:
        raise ValueError(f"need at least one evaluation point, got {n_points}")
    degree = coeffs.shape[-1] // 2
    modes = np.empty(coeffs.shape[:-1] + (degree + 1,), dtype=complex)
    modes[..., 0] = coeffs[..., 0]
    modes[..., 1:].real = coeffs[..., 1::2]
    modes[..., 1:].imag = -coeffs[..., 2::2]
    modes *= 0.5 * k * _mode_factors(degree)
    runs, half = [], k // 2 + 1
    for start in range(0, degree + 1, k):  # each period: rising to bin K//2, then falling mirrored
        rise, fall = min(degree + 1 - start, half), min(degree + 1 - start, k) - half
        runs.append((slice(start, start + rise), slice(0, rise)))
        if fall > 0:
            ells = slice(start + half, start + half + fall)
            np.conjugate(modes[..., ells], out=modes[..., ells])
            runs.append((ells, slice(k - half, k - half - fall, -1)))
    for own in (0, k // 2) if k % 2 == 0 else (0,):  # the bins that are their own mirror
        modes[..., own::k] = 2.0 * modes[..., own::k].real
    return modes, runs


def _fold(modes, runs, shrink, out) -> None:
    """Write into out[..., :h] the alias fold (:func:`_alias`) of the modes, each
    scaled by its real ``shrink`` (..., degree + 1): the one map of modes onto
    rfft bins.  Bins sum in increasing ell: the first run stored, then added."""
    (ells, bins), *rest = runs
    np.multiply(modes[..., ells], shrink[..., ells], out=out[..., bins])
    for ells, bins in rest:
        out[..., bins] += modes[..., ells] * shrink[..., ells]


def uniform_spectrum(coeffs, n_points: int) -> np.ndarray:
    """Half-spectrum on ``uniform_eval_points(K)`` of the polynomials with the given coefficients.

    ``coeffs`` has shape (..., 2*degree + 1) in canonical order; the result,
    shape (..., K//2 + 1), is the rfft of their values, which its irfft with
    n=K gives back (:func:`uniform_synthesis`), for every K >= 1: modes above
    K/2 fold onto their alias (:func:`_fold`), and the constant bin and an
    even K's Nyquist bin are real.  When K >= 2*degree + 1 nothing folds.
    """
    modes, runs = _alias(coeffs, n_points)
    spec = np.zeros(modes.shape[:-1] + (int(n_points) // 2 + 1,), dtype=complex)
    _fold(modes, runs, np.ones(modes.shape[-1]), spec)
    spec += 0.0  # a -0.0 the first run stored becomes 0.0: zero data synthesizes to 0.0
    return spec


def uniform_synthesis(coeffs, n_points: int) -> np.ndarray:
    """Values at ``uniform_eval_points(K)`` of the polynomials with the given coefficients.

    ``coeffs`` has shape (..., 2*degree + 1) in canonical order; the result
    has shape (..., K), one irfft along the last axis (Cooley and Tukey,
    1965) of :func:`uniform_spectrum`, and inverts
    :func:`uniform_projection` whenever K >= 2*degree + 1.  It is exact for
    every K >= 1.
    """
    return np.fft.irfft(uniform_spectrum(coeffs, n_points), n=int(n_points))
