"""Grid construction, angle folding, and the orthonormal trigonometric basis."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference as ref

import trigreg as tr


# ---------------------------------------------------------------------------
# reduce_angle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, folded",
    [
        (0.0, 0.0),
        (np.pi, -np.pi),
        (-np.pi, -np.pi),
        (2 * np.pi, 0.0),
        (3 * np.pi, -np.pi),
        (-1.5 * np.pi, 0.5 * np.pi),
        (5.5 * np.pi, -0.5 * np.pi),
    ],
)
def test_reduce_angle_folds_into_half_open_interval(raw, folded):
    assert tr.reduce_angle(raw) == pytest.approx(folded, abs=1e-14)


def test_reduce_angle_scalar_returns_float():
    out = tr.reduce_angle(7.0)
    assert isinstance(out, float)


def test_reduce_angle_array_stays_in_range():
    rng = np.random.default_rng(0)
    x = rng.uniform(-50.0, 50.0, size=300)
    folded = tr.reduce_angle(x)
    assert folded.shape == x.shape
    assert np.all(folded >= -np.pi)
    assert np.all(folded < np.pi)
    # folding never changes the point on the circle
    assert_allclose(np.cos(folded), np.cos(x), atol=1e-12)
    assert_allclose(np.sin(folded), np.sin(x), atol=1e-12)


# ---------------------------------------------------------------------------
# make_grid / uniform_eval_points
# ---------------------------------------------------------------------------


def test_make_grid_nodes_and_weight():
    g = tr.make_grid(5)
    assert g.n_points == 5
    assert g.weight == pytest.approx(2 * np.pi / 5)
    assert_allclose(g.nodes, -np.pi + 2 * np.pi * np.arange(5) / 5)
    assert g.nodes[0] == -np.pi
    # equispaced, endpoint pi excluded
    assert_allclose(np.diff(g.nodes), 2 * np.pi / 5)
    assert g.nodes[-1] < np.pi


def test_make_grid_nodes_are_read_only():
    g = tr.make_grid(7)
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0


@pytest.mark.parametrize("bad", [4, 1, 0, -3])
def test_make_grid_rejects_even_or_small(bad):
    with pytest.raises(ValueError, match="odd integer >= 3"):
        tr.make_grid(bad)


def test_make_grid_rejects_non_integer():
    with pytest.raises(TypeError, match="integer"):
        tr.make_grid(5.0)


def test_uniform_eval_points_spacing():
    pts = tr.uniform_eval_points(8)
    assert len(pts) == 8
    assert pts[0] == -np.pi
    assert_allclose(np.diff(pts), 2 * np.pi / 8)
    assert pts[-1] < np.pi
    with pytest.raises(ValueError, match="at least one"):
        tr.uniform_eval_points(0)


# ---------------------------------------------------------------------------
# harmonic indexing
# ---------------------------------------------------------------------------


def test_harmonic_indices_canonical_order():
    idx = tr.harmonic_indices(2)
    assert [(i.ell, i.k) for i in idx] == [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(tr.harmonic_indices(10)) == 21


@pytest.mark.parametrize("degree", [0, 1, 2, 7])
def test_mode_layout_is_the_canonical_order(degree):
    ells, branches = tr.mode_layout(degree)
    assert ells.dtype.kind == branches.dtype.kind == "i"
    assert list(zip(ells.tolist(), branches.tolist())) == [
        (i.ell, i.k) for i in tr.harmonic_indices(degree)
    ]
    with pytest.raises(ValueError, match="degree must be >= 0"):
        tr.mode_layout(-1)


@pytest.mark.parametrize(
    "ell, k, msg",
    [
        (0, 2, "no sine branch"),
        (1, 3, "must be 1 .* or 2"),
        (-1, 1, "degree must be >= 0"),
    ],
)
def test_harmonic_index_validation(ell, k, msg):
    with pytest.raises(ValueError, match=msg):
        tr.HarmonicIndex(ell, k)


def test_harmonic_index_is_frozen():
    idx = tr.HarmonicIndex(2, 1)
    with pytest.raises(Exception):
        idx.ell = 3


# ---------------------------------------------------------------------------
# basis evaluation and orthonormality
# ---------------------------------------------------------------------------


def test_constant_mode_value():
    x = np.linspace(-3, 3, 11)
    assert_allclose(tr.basis_matrix(x, 0)[:, 0], np.full(11, 1 / math.sqrt(2 * np.pi)))


@pytest.mark.parametrize("ell", [1, 2, 5])
def test_harmonic_values_match_cos_sin(ell):
    # columns 2*ell - 1 and 2*ell hold the cosine and sine of frequency ell
    x = np.linspace(-np.pi, np.pi, 17)
    mat = tr.basis_matrix(x, ell)
    assert_allclose(mat[:, 2 * ell - 1], np.cos(ell * x) / math.sqrt(np.pi), atol=1e-15)
    assert_allclose(mat[:, 2 * ell], np.sin(ell * x) / math.sqrt(np.pi), atol=1e-15)


def test_basis_matrix_columns_follow_canonical_order():
    pts = np.array([-1.0, 0.3, 2.0])
    mat = tr.basis_matrix(pts, 3)
    assert mat.shape == (3, 7)
    for col, idx in enumerate(tr.harmonic_indices(3)):
        assert_allclose(mat[:, col], ref.harmonic(idx.ell, idx.k, pts), rtol=1e-15)


def test_gram_matrix_is_identity():
    """Node-based inner products of the basis reproduce exact orthonormality."""
    g = tr.make_grid(11)
    mat = tr.basis_matrix(g.nodes, 5)
    gram = g.weight * (mat.T @ mat)
    assert np.max(np.abs(gram - np.eye(11))) < 1e-13


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_quadrature_exact_on_resolved_products(ell):
    g = tr.make_grid(11)
    c = np.cos(ell * g.nodes)
    assert tr.discrete_inner(c, c, g) == pytest.approx(np.pi, rel=1e-14)


def test_weighted_norm_of_ones():
    g = tr.make_grid(9)
    assert tr.weighted_norm(np.ones(9), g) == pytest.approx(math.sqrt(2 * np.pi))


# ---------------------------------------------------------------------------
# analyze / synthesize
# ---------------------------------------------------------------------------


def test_analyze_pure_cosine():
    g = tr.make_grid(5)
    c = tr.analyze(np.cos(g.nodes), g, 2)
    # canonical slots (0,1), (1,1), (1,2), (2,1), (2,2)
    assert c.values[1] == pytest.approx(math.sqrt(np.pi), rel=1e-14)
    assert np.all(np.abs(c.values[[0, 2, 3, 4]]) < 1e-14)


def test_analyze_rejects_unresolvable_degree():
    g = tr.make_grid(5)
    with pytest.raises(ValueError, match="2\\*degree \\+ 1 <= n_points"):
        tr.analyze(np.cos(g.nodes), g, 3)


def test_interpolatory_roundtrip_reproduces_samples():
    """At N = 2L+1 the truncated expansion interpolates arbitrary node data."""
    g = tr.make_grid(9)
    rng = np.random.default_rng(42)
    samples = rng.standard_normal(9)
    c = tr.analyze(samples, g, 4)
    assert_allclose(tr.synthesize(c, g.nodes), samples, atol=1e-13)
    # the coefficient container is itself callable
    assert_allclose(c(g.nodes), samples, atol=1e-13)


def test_mean_coefficient_matches_bessel_series():
    # the mean of exp(cos x) over the circle is the modified Bessel value
    # I_0(1) = sum_k (1/4)^k / (k!)^2, so the constant-mode coefficient is
    # sqrt(2*pi) * I_0(1); the trapezoidal rule resolves it to machine
    # precision at this size.
    g = tr.make_grid(51)
    c = tr.analyze(np.exp(np.cos(g.nodes)), g, 25)
    i0 = sum(0.25**k / math.factorial(k) ** 2 for k in range(25))
    assert c.values[0] == pytest.approx(math.sqrt(2 * np.pi) * i0, rel=1e-14)


def test_synthesize_between_nodes_matches_direct_sum():
    g = tr.make_grid(9)
    samples = np.exp(np.sin(g.nodes))
    c = tr.analyze(samples, g, 4)
    x = np.array([0.123, -2.5, 3.0])
    direct = tr.basis_matrix(x, 4) @ c.values
    assert_allclose(tr.synthesize(c, x), direct, rtol=1e-14)


def _direct_analysis(samples, grid, degree, chunk=500):
    """Reference analysis: the direct sum weight * basis_matrix(nodes, L).T @ f,
    accumulated over row chunks so the N = 4001 case stays small in memory."""
    total = np.zeros(2 * degree + 1)
    for start in range(0, grid.n_points, chunk):
        rows = slice(start, start + chunk)
        total += tr.basis_matrix(grid.nodes[rows], degree).T @ samples[rows]
    return grid.weight * total


@pytest.mark.parametrize("n", [3, 101, 4001])
def test_analyze_matches_direct_sum(n):
    g = tr.make_grid(n)
    rng = np.random.default_rng(n)
    samples = np.exp(np.cos(g.nodes)) + np.sign(np.sin(3 * g.nodes)) + rng.standard_normal(n)
    for degree in ((n - 1) // 2, (n - 1) // 5):
        got = tr.analyze(samples, g, degree).values
        want = _direct_analysis(samples, g, degree)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_analyze_rejects_non_finite_samples(bad):
    g = tr.make_grid(9)
    samples = np.sin(g.nodes)
    samples[3] = bad
    with pytest.raises(ValueError, match="finite.*index 3"):
        tr.analyze(samples, g, 4)


# ---------------------------------------------------------------------------
# projection on a K-point evaluation grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [13, 14, 1000, 1001])
def test_uniform_projection_matches_direct_sums(k):
    """rfft coefficients and remainder agree with the dense basis on odd and even K."""
    degree = 6
    x = tr.uniform_eval_points(k)
    values = np.exp(np.cos(x)) + np.sign(np.sin(3 * x)) + 0.3 * x
    coeffs, remainder = tr.uniform_projection(values, degree)
    mat = tr.basis_matrix(x, degree)
    direct = (2 * np.pi / k) * (mat.T @ values)
    assert_allclose(coeffs, direct, rtol=0, atol=1e-13 * np.max(np.abs(direct)))
    rest = values - mat @ direct
    assert remainder == pytest.approx((2 * np.pi / k) * np.dot(rest, rest), rel=1e-12)


def test_uniform_projection_agrees_with_analyze_on_odd_grid():
    g = tr.make_grid(21)
    values = tr.gallery("sawtooth")(g.nodes)
    coeffs, _ = tr.uniform_projection(values, 10)
    assert_allclose(coeffs, tr.analyze(values, g, 10).values, rtol=0, atol=1e-14)


def test_uniform_projection_remainder_vanishes_on_resolved_polynomial():
    x = tr.uniform_eval_points(16)
    values = 2.0 + np.cos(3 * x) - 0.5 * np.sin(7 * x)
    coeffs, remainder = tr.uniform_projection(values, 7)
    assert remainder < 1e-28
    assert coeffs[14] == pytest.approx(-0.5 * math.sqrt(math.pi), rel=1e-13)  # slot (7, 2)


def test_uniform_projection_needs_resolving_grid():
    with pytest.raises(ValueError, match="2\\*degree \\+ 1"):
        tr.uniform_projection(np.ones(12), 6)
    with pytest.raises(ValueError, match="finite"):
        tr.uniform_projection(np.array([1.0, np.nan, 2.0]), 1)


# ---------------------------------------------------------------------------
# synthesis on a K-point evaluation grid
# ---------------------------------------------------------------------------


# (degree, K): K < 2L+1 folds modes onto their alias, and even K has a
# Nyquist bin (L = 5, K = 10 puts mode 5 on it; K = 4 folds mode 2 onto it).
SYNTHESIS_CASES = [(5, 1), (5, 4), (5, 7), (5, 10), (6, 13), (6, 14), (50, 1000), (50, 1001)]


@pytest.mark.parametrize("degree, k", SYNTHESIS_CASES)
def test_uniform_synthesis_matches_basis_matrix(degree, k):
    coeffs = np.random.default_rng(degree * k).standard_normal((3, 2 * degree + 1))
    direct = coeffs @ tr.basis_matrix(tr.uniform_eval_points(k), degree).T
    stacked = tr.uniform_synthesis(coeffs, k)
    assert stacked.shape == (3, k)
    assert np.linalg.norm(stacked - direct) <= 1e-12 * np.linalg.norm(direct)
    single = tr.uniform_synthesis(coeffs[1], k)
    assert single.shape == (k,)
    assert np.linalg.norm(single - direct[1]) <= 1e-12 * np.linalg.norm(direct[1])


@pytest.mark.parametrize("degree, k", [(0, 1), (5, 11), (5, 12), (50, 101), (50, 1000)])
def test_uniform_synthesis_inverts_projection(degree, k):
    coeffs = np.random.default_rng(k).standard_normal(2 * degree + 1)
    back, remainder = tr.uniform_projection(tr.uniform_synthesis(coeffs, k), degree)
    assert_allclose(back, coeffs, rtol=0, atol=1e-13)
    assert remainder < 1e-25


@pytest.mark.parametrize("degree, k", SYNTHESIS_CASES)
def test_uniform_synthesis_is_the_irfft_of_uniform_spectrum(degree, k):
    coeffs = np.random.default_rng(degree * k).standard_normal((3, 2 * degree + 1))
    spectrum = tr.uniform_spectrum(coeffs, k)
    assert spectrum.shape == (3, k // 2 + 1)
    assert np.array_equal(np.fft.irfft(spectrum, n=k), tr.uniform_synthesis(coeffs, k))


@pytest.mark.parametrize("degree, k", [(d, k) for d, k in SYNTHESIS_CASES if k >= 2 * d + 1])
def test_uniform_spectrum_is_the_rfft_of_the_values(degree, k):
    # nothing folds when K >= 2L+1: bin ell holds frequency ell alone, with
    # the constant (and even-K Nyquist) bin weighted as rfft weights it
    coeffs = np.random.default_rng(degree + k).standard_normal(2 * degree + 1)
    values = tr.basis_matrix(tr.uniform_eval_points(k), degree) @ coeffs
    spectrum = tr.uniform_spectrum(coeffs, k)
    assert_allclose(spectrum, np.fft.rfft(values), rtol=0, atol=1e-12 * k)
    assert not np.any(spectrum[degree + 1:])


def test_uniform_synthesis_validates_shape_and_points():
    with pytest.raises(ValueError, match="2\\*degree \\+ 1"):
        tr.uniform_synthesis(np.ones(4), 10)
    with pytest.raises(ValueError, match="at least one"):
        tr.uniform_synthesis(np.ones(3), 0)


@pytest.mark.parametrize("degree, k", [(3, 8), (5, 1000), (5, 4), (6, 13)])
def test_uniform_synthesis_of_signed_zeros_is_positive_zero(degree, k):
    # every mode is added into a zero spectrum, folded (2L >= K) or not, so
    # a -0.0 coefficient cannot leave a -0.0 in the values: zero data is
    # written as 0.0 (a plain store of the modes would keep -0.0 at (3, 8))
    coeffs = np.zeros((2, 2 * degree + 1))
    coeffs[:, ::2] = -0.0
    values = tr.uniform_synthesis(coeffs, k)
    assert not np.any(values) and not np.any(np.signbit(values))
