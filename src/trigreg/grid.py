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
the squared remainder ||f - P_L f||**2, in O(N log N) time and O(N) memory,
on the sample grid (:func:`analyze` and the regularization path) and on the
K-point evaluation grid (the oracle error curves) alike.  A fixed numpy build
fixes the FFT's summation order, so results are reproducible run to run, and
its roundoff grows like log N, where a direct sum's grows with ell*x.
:func:`basis_matrix` remains for evaluation at arbitrary points.

Every angle is reduced into [-pi, pi) before basis evaluation, so callers may
pass arbitrary real angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "HarmonicIndex",
    "TrapezoidalGrid",
    "FourierCoefficients",
    "reduce_angle",
    "harmonic_indices",
    "make_grid",
    "uniform_eval_points",
    "eval_harmonic",
    "basis_matrix",
    "discrete_inner",
    "weighted_norm",
    "analyze",
    "synthesize",
    "uniform_projection",
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


@dataclass(frozen=True)
class HarmonicIndex:
    """Index (ell, k) of one basis mode: k=1 cosine branch, k=2 sine branch.

    The constant mode is (0, 1); there is no (0, 2).
    """

    ell: int
    k: int

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError(f"harmonic degree must be >= 0, got {self.ell}")
        if self.k not in (1, 2):
            raise ValueError(
                f"harmonic branch must be 1 (cosine) or 2 (sine), got {self.k}"
            )
        if self.ell == 0 and self.k == 2:
            raise ValueError("the constant mode has no sine branch: (0, 2) is invalid")


def harmonic_indices(degree: int) -> list[HarmonicIndex]:
    """All 2*degree + 1 indices in canonical order (0,1), (1,1), (1,2), ..."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    out = [HarmonicIndex(0, 1)]
    for ell in range(1, degree + 1):
        out.append(HarmonicIndex(ell, 1))
        out.append(HarmonicIndex(ell, 2))
    return out


def _position(degree: int, ell: int, k: int) -> int:
    """Array offset of mode (ell, k) in canonical ordering."""
    HarmonicIndex(ell, k)  # validates the pair
    if ell > degree:
        raise ValueError(f"mode ({ell}, {k}) exceeds degree {degree}")
    return 0 if ell == 0 else 2 * ell - 1 + (k - 1)


@dataclass(frozen=True)
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


def eval_harmonic(index: HarmonicIndex, x):
    """Evaluate one basis mode at angle(s) x (reduced mod 2*pi first)."""
    theta = reduce_angle(x)
    scalar = np.ndim(theta) == 0
    theta = np.atleast_1d(theta)
    if index.ell == 0:
        out = np.full_like(theta, 1.0 / np.sqrt(TWO_PI))
    elif index.k == 1:
        out = np.cos(index.ell * theta) / np.sqrt(np.pi)
    else:
        out = np.sin(index.ell * theta) / np.sqrt(np.pi)
    return float(out[0]) if scalar else out


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


@dataclass(frozen=True)
class FourierCoefficients:
    """Coefficients of a trigonometric polynomial in the orthonormal basis.

    ``values`` follows the canonical harmonic ordering and has length
    2*degree + 1.  ``n_points`` records the grid size the coefficients were
    analyzed on (several consumers need to know whether N = 2*degree + 1).
    Instances are callable: ``coeffs(x)`` synthesizes the polynomial at x.
    """

    degree: int
    values: np.ndarray
    n_points: int

    def coefficient(self, ell: int, k: int) -> float:
        """Coefficient of mode (ell, k)."""
        return float(self.values[_position(self.degree, ell, k)])

    def indices(self) -> list[HarmonicIndex]:
        return harmonic_indices(self.degree)

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
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
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


def uniform_projection(values, degree: int) -> tuple[np.ndarray, float]:
    """Project values sampled at ``uniform_eval_points(K)`` onto degree ``degree``.

    Returns the coefficients <values, Y(ell,k)>_K in canonical order and the
    squared remainder ||values - P_L values||_K**2 under the K-point weight
    2*pi/K.  Any K >= 2*degree + 1 works, even K included, because the
    basis is orthonormal on every such grid.  One real FFT gives both
    (Cooley and Tukey, 1965): the points start at -pi, so
    cos(ell*x_j) = (-1)**ell * cos(2*pi*ell*j/K) and likewise for sin, and
    each coefficient is a signed real or imaginary part of bin ell.  The
    remainder is the norm of the literal residual vector, synthesized from
    the bins above the degree; it is never formed as
    ||values||**2 - ||coefficients||**2, which cancels catastrophically when
    the projection captures nearly everything.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-d vector of samples, got shape {values.shape}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    k = values.size
    if 2 * degree + 1 > k:
        raise ValueError(
            f"degree {degree} too high for {k} evaluation points: need "
            f"2*degree + 1 <= points"
        )
    _require_finite(values, "values")
    spec = np.fft.rfft(values)
    scale = TWO_PI / k
    phase = np.where(np.arange(1, degree + 1) % 2 == 0, 1.0, -1.0)
    coeffs = np.empty(2 * degree + 1)
    coeffs[0] = scale * spec[0].real / np.sqrt(TWO_PI)
    coeffs[1::2] = scale / np.sqrt(np.pi) * phase * spec[1 : degree + 1].real
    coeffs[2::2] = -scale / np.sqrt(np.pi) * phase * spec[1 : degree + 1].imag
    spec[: degree + 1] = 0.0
    rest = np.fft.irfft(spec, n=k)
    return coeffs, scale * float(np.dot(rest, rest))
