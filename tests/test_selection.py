"""Parameter grid, scalar diagnostics, and the lambda selection strategies.

The single-mode problem f = cos x on five nodes admits hand values for every
diagnostic: the only penalized coefficient is sqrt(pi) at (1, 1), so

    J(lam) = pi * (lam/(1+lam))**2,   K(lam) = pi / (1+lam)**2,

and at lam = 1 both equal pi/4 while J' = pi/4 and K' = -pi/4.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trigreg as tr


@pytest.fixture
def single_mode():
    g = tr.make_grid(5)
    return g, np.cos(g.nodes), tr.laplace_penalty(2, 1.0)


# ---------------------------------------------------------------------------
# parameter grid
# ---------------------------------------------------------------------------


def test_default_grid_geometry():
    params = tr.parameter_grid()
    assert params.zeta0 == 1.0
    assert params.t_max == 400
    assert len(params.lambdas) == 400
    assert params.lambdas[0] == pytest.approx(2 ** -0.1)
    # ten steps halve the parameter: lambda_30 = 2^-3
    assert params.lambdas[29] == pytest.approx(0.125, rel=1e-12)
    assert params.lambdas[-1] == pytest.approx(2.0**-40, rel=1e-12)
    assert np.all(np.diff(params.lambdas) < 0)


def test_custom_grid():
    params = tr.parameter_grid(zeta0=2.0, q=0.5, t_max=3)
    assert_allclose(params.lambdas, [1.0, 0.5, 0.25])


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"q": 1.5}, "strictly between 0 and 1"),
        ({"q": 0.0}, "strictly between 0 and 1"),
        ({"zeta0": -1.0}, "zeta0 must be > 0"),
        ({"t_max": 0}, "t_max must be >= 1"),
        ({"zeta0": float("nan")}, "zeta0 must be > 0, got nan"),
        ({"zeta0": float("inf")}, "zeta0 must be finite, got inf"),
    ],
)
def test_grid_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        tr.parameter_grid(**kwargs)


# ---------------------------------------------------------------------------
# scalar diagnostics
# ---------------------------------------------------------------------------


def test_single_mode_hand_values(single_mode):
    g, samples, pen = single_mode
    assert tr.residual_sq(samples, g, 2, pen, 1.0) == pytest.approx(np.pi / 4, rel=1e-13)
    assert tr.penalty_sq(samples, g, 2, pen, 1.0) == pytest.approx(np.pi / 4, rel=1e-13)
    assert tr.residual_sq_prime(samples, g, 2, pen, 1.0) == pytest.approx(np.pi / 4, rel=1e-13)
    assert tr.penalty_sq_prime(samples, g, 2, pen, 1.0) == pytest.approx(-np.pi / 4, rel=1e-13)
    assert tr.penalty_sq(samples, g, 2, pen, 0.0) == pytest.approx(np.pi, rel=1e-13)
    assert tr.residual_sq(samples, g, 2, pen, 0.0) == pytest.approx(0.0, abs=1e-25)


@pytest.mark.parametrize("lam", [0.01, 0.3, 2.0, 50.0])
def test_single_mode_residual_closed_form(single_mode, lam):
    g, samples, pen = single_mode
    expected = np.pi * (lam / (1 + lam)) ** 2
    assert tr.residual_sq(samples, g, 2, pen, lam) == pytest.approx(expected, rel=1e-12)


def test_residual_matches_literal_node_sum():
    """The diagnostic agrees with evaluating the solution at the nodes."""
    g = tr.make_grid(9)
    rng = np.random.default_rng(3)
    samples = np.sin(2 * g.nodes) + 0.1 * rng.standard_normal(9)
    pen = tr.laplace_penalty(4)
    for lam in (0.0, 0.2, 1.7):
        approx = tr.solve(samples, g, 4, lam, pen)
        brute = g.weight * np.sum((approx(g.nodes) - samples) ** 2)
        assert tr.residual_sq(samples, g, 4, pen, lam) == pytest.approx(brute, abs=1e-14)


def test_residual_matches_literal_node_sum_off_interpolation():
    """N > 2L + 1: the closed form carries the projection remainder r0 > 0."""
    g = tr.make_grid(31)
    rng = np.random.default_rng(5)
    samples = np.exp(np.cos(g.nodes)) + np.sign(np.sin(g.nodes)) + 0.1 * rng.standard_normal(31)
    pen = tr.laplace_penalty(6)
    params = tr.parameter_grid(t_max=60)
    path = tr.RegularizationPath.from_samples(samples, g, 6, pen, params.lambdas)
    fit = tr.solve(samples, g, 6, 0.0, pen)
    assert path.r0 == pytest.approx(g.weight * np.sum((fit(g.nodes) - samples) ** 2), rel=1e-13)
    assert path.r0 > 0.1
    for lam in (0.0, 0.03, 0.2, 1.7, 40.0):
        approx = tr.solve(samples, g, 6, lam, pen)
        brute = g.weight * np.sum((approx(g.nodes) - samples) ** 2)
        assert tr.residual_sq(samples, g, 6, pen, lam) == pytest.approx(brute, rel=1e-13)
    # the vectorized scan gives the same values as the scalar wrapper
    j_scan = path.residual_sq()
    for k in (0, 17, 59):
        lam = params.lambdas[k]
        assert j_scan[k] == pytest.approx(tr.residual_sq(samples, g, 6, pen, lam), rel=1e-14)


@pytest.mark.parametrize("n_points", [101, 4097])
def test_path_scan_matches_whole_path_formulas(n_points):
    """The lambda-block scan equals the closed forms evaluated on the whole
    (2L+1, T) factor matrices at once: several lambdas per block at N = 101
    with a short last block (T = 397), one per block at N = 4097."""
    g = tr.make_grid(n_points)
    degree = (n_points - 1) // 2
    samples = tr.add_noise_snr(tr.gallery("square")(g.nodes), 30.0, 4).noisy
    pen = tr.laplace_penalty(degree)
    lambdas = tr.parameter_grid(t_max=397).lambdas
    path = tr.RegularizationPath.from_samples(samples, g, degree, pen, lambdas)
    truth, remainder = tr.uniform_projection(tr.gallery("square")(tr.uniform_eval_points(10000)), degree)

    c, beta_sq = path.coeffs, pen.beta**2
    lam_bsq = np.outer(beta_sq, lambdas)
    shrink = 1.0 / (1.0 + lam_bsq)
    weight = lam_bsq * shrink
    rtol = 1e-12  # sums of nonnegative terms over <= 4097 modes in another order
    assert_allclose(path.residual_sq(), c**2 @ weight**2, rtol=rtol)
    assert_allclose(path.penalty_sq(), (beta_sq * c**2) @ shrink**2, rtol=rtol)
    assert_allclose(path.penalty_sq_prime(), -2.0 * (beta_sq**2 * c**2) @ shrink**3, rtol=rtol)
    assert_allclose(path.gcv(), c**2 @ weight**2 / weight.sum(axis=0) ** 2, rtol=rtol)
    dense_l2 = np.sqrt(np.sum((shrink * c[:, None] - truth[:, None]) ** 2, axis=0) + remainder)
    assert_allclose(path.l2_error(truth, remainder), dense_l2, rtol=rtol)
    assert_allclose(path.alpha(), shrink * c[:, None], rtol=0, atol=0)


def test_path_interpolatory_remainder_is_exactly_zero():
    g = tr.make_grid(13)
    samples = np.random.default_rng(1).standard_normal(13)
    path = tr.RegularizationPath.from_samples(samples, g, 6, tr.laplace_penalty(6), 0.5)
    assert path.r0 == 0.0
    assert path.residual_sq(0.0) == 0.0
    assert isinstance(path.residual_sq(), float)


@pytest.mark.parametrize("degree", [50, 20])
def test_morozov_upper_bound_is_mean_residual_norm(degree):
    """sqrt(r0 + sum of the nonconstant c**2) equals ||f - mean(f)||_N on
    interpolatory (L = 50) and non-interpolatory (L = 20) grids alike."""
    g = tr.make_grid(101)
    samples = np.exp(np.cos(g.nodes)) + 2.0 + np.random.default_rng(9).standard_normal(101)
    path = tr.RegularizationPath.from_samples(samples, g, degree, tr.laplace_penalty(degree), 0.5)
    lower, upper = path.discrepancy_bounds()
    assert upper == pytest.approx(tr.weighted_norm(samples - np.mean(samples), g), rel=1e-12)
    assert lower == math.sqrt(path.r0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_selectors_reject_non_finite_samples(bad):
    g = tr.make_grid(11)
    samples = np.sin(g.nodes)
    samples[2] = bad
    pen, params = tr.laplace_penalty(5), tr.parameter_grid(t_max=20)
    for select in (tr.select_lcurve, tr.select_gcv):
        with pytest.raises(ValueError, match="finite"):
            select(samples, g, 5, pen, params)
    with pytest.raises(ValueError, match="finite"):
        tr.select_morozov(samples, g, 5, pen, params, 0.1)


def test_exchange_identity_between_derivatives():
    g = tr.make_grid(11)
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(11)
    pen = tr.laplace_penalty(5, 1.5)
    for lam in (0.01, 0.5, 3.0):
        jp = tr.residual_sq_prime(samples, g, 5, pen, lam)
        kp = tr.penalty_sq_prime(samples, g, 5, pen, lam)
        assert jp == pytest.approx(-lam * kp, rel=1e-13)


def test_diagnostics_reject_constant_form_penalty(single_mode):
    g, samples, _ = single_mode
    with pytest.raises(ValueError, match="constant-form"):
        tr.residual_sq(samples, g, 2, tr.constant_penalty(2, 1.0), 1.0)


def test_diagnostics_reject_negative_lambda(single_mode):
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match=">= 0"):
        tr.penalty_sq(samples, g, 2, pen, -1.0)


# ---------------------------------------------------------------------------
# L-curve
# ---------------------------------------------------------------------------


def test_curvature_single_mode_hand_value():
    # at lam = 1: rho = eta = pi/4, eta' = -pi/4, and the log-log curve has
    # curvature -1/(2*sqrt(2)) there
    kappa = tr.lcurve_curvature(np.pi / 4, np.pi / 4, -np.pi / 4, 1.0)
    assert kappa == pytest.approx(-1 / (2 * math.sqrt(2)), rel=1e-13)


def test_curvature_matches_finite_difference(single_mode):
    """Closed-form curvature agrees with differencing the log-log curve."""
    g, samples, pen = single_mode

    def log_coords(lam):
        return (
            math.log(tr.residual_sq(samples, g, 2, pen, lam)),
            math.log(tr.penalty_sq(samples, g, 2, pen, lam)),
        )

    for lam in (0.2, 1.0, 5.0):
        h = 1e-4 * lam
        u0, v0 = log_coords(lam - h)
        u1, v1 = log_coords(lam)
        u2, v2 = log_coords(lam + h)
        du = (u2 - u0) / (2 * h)
        dv = (v2 - v0) / (2 * h)
        ddu = (u2 - 2 * u1 + u0) / h**2
        ddv = (v2 - 2 * v1 + v0) / h**2
        fd = (du * ddv - ddu * dv) / (du**2 + dv**2) ** 1.5
        closed = tr.lcurve_curvature(
            tr.residual_sq(samples, g, 2, pen, lam),
            tr.penalty_sq(samples, g, 2, pen, lam),
            tr.penalty_sq_prime(samples, g, 2, pen, lam),
            lam,
        )
        assert closed == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize(
    "rho, eta, eta_prime, msg",
    [
        (0.0, 1.0, -1.0, "residual must be > 0"),
        (1.0, 0.0, -1.0, "seminorm must be > 0"),
        (1.0, 1.0, 0.0, "seminorm derivative must be < 0"),
    ],
)
def test_curvature_validation(rho, eta, eta_prime, msg):
    with pytest.raises(ValueError, match=msg):
        tr.lcurve_curvature(rho, eta, eta_prime, 1.0)


def test_lcurve_picks_maximum_curvature(single_mode):
    g, samples, pen = single_mode
    rep = tr.select_lcurve(samples, g, 2, pen, tr.parameter_grid())
    assert rep.strategy == "lcurve"
    assert rep.chosen_index == int(np.argmax(np.abs(rep.curvature)))
    assert rep.chosen_lambda == rep.lambdas[rep.chosen_index]
    assert rep.residual_sq.shape == rep.lambdas.shape
    assert rep.penalty_sq.shape == rep.lambdas.shape


@pytest.mark.parametrize("data", [np.zeros(5), np.full(5, 3.0)])
def test_lcurve_refuses_degenerate_signal(data):
    g = tr.make_grid(5)
    with pytest.raises(tr.InapplicableStrategyError, match="constant mode"):
        tr.select_lcurve(data, g, 2, tr.laplace_penalty(2), tr.parameter_grid())


# ---------------------------------------------------------------------------
# Morozov discrepancy
# ---------------------------------------------------------------------------


def test_morozov_single_mode_analytic_root(single_mode):
    # J(lam) = pi*(lam/(1+lam))^2 crosses noise^2 = pi/4 exactly at lam = 1
    g, samples, pen = single_mode
    rep = tr.select_morozov(samples, g, 2, pen, tr.parameter_grid(), math.sqrt(np.pi) / 2)
    assert rep.strategy == "morozov"
    assert rep.refined
    assert rep.assumption_ok
    assert rep.chosen_lambda == pytest.approx(1.0, abs=1e-8)
    assert rep.noise_norm_used == pytest.approx(math.sqrt(np.pi) / 2)


def test_morozov_unrefined_stays_on_grid(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    rep = tr.select_morozov(samples, g, 2, pen, params, math.sqrt(np.pi) / 2, refine=False)
    assert not rep.refined
    assert rep.chosen_lambda in params.lambdas
    # the unrefined pick is the first grid value with nonpositive discrepancy
    assert rep.discrepancy[rep.chosen_index] <= 0
    assert np.all(rep.discrepancy[: rep.chosen_index] > 0)


def test_morozov_discrepancy_has_one_sign_change(single_mode):
    # noise^2 = J(0.4) = pi*(0.4/1.4)^2 puts the root at lam = 0.4, strictly
    # between two grid values
    g, samples, pen = single_mode
    rep = tr.select_morozov(samples, g, 2, pen, tr.parameter_grid(), 2 * math.sqrt(np.pi) / 7)
    signs = np.sign(rep.discrepancy)
    assert np.sum(np.diff(signs) != 0) == 1
    assert rep.chosen_lambda == pytest.approx(0.4, abs=1e-8)


def test_morozov_zero_noise_pushes_to_grid_floor(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    rep = tr.select_morozov(samples, g, 2, pen, params, 0.0, refine=False)
    assert rep.assumption_ok
    assert rep.chosen_index == params.t_max - 1
    refined = tr.select_morozov(samples, g, 2, pen, params, 0.0)
    assert refined.chosen_lambda <= params.lambdas[-1]


def test_morozov_reports_violated_assumption(single_mode):
    g, samples, pen = single_mode
    # noise claimed larger than the centered signal norm: no root can exist
    rep = tr.select_morozov(samples, g, 2, pen, tr.parameter_grid(), 100.0)
    assert rep.assumption_ok is False
    assert rep.chosen_lambda is None
    assert rep.chosen_index is None


def test_morozov_exhaustion_error_when_check_disabled():
    # truncating at degree 2 leaves a genuine least-squares floor J(0) > 0,
    # so a claimed noise level below it admits no discrepancy root at all
    g = tr.make_grid(11)
    samples = np.cos(g.nodes) + 0.5 * np.sin(4 * g.nodes)
    pen = tr.laplace_penalty(2)
    with pytest.raises(tr.GridExhaustedError, match="never reached the noise level"):
        tr.select_morozov(
            samples, g, 2, pen, tr.parameter_grid(), 1e-8, check_assumption=False
        )
    # with the default check the same input reports the violated assumption
    rep = tr.select_morozov(samples, g, 2, pen, tr.parameter_grid(), 1e-8)
    assert rep.assumption_ok is False
    assert rep.chosen_lambda is None


def test_morozov_requires_nonnegative_noise(single_mode):
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match="noise"):
        tr.select_morozov(samples, g, 2, pen, tr.parameter_grid(), -1.0)


def test_morozov_refuses_infinite_noise_norm(single_mode):
    # it used to return a report with no chosen lambda and assumption_ok=False
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match="noise norm must be finite, got inf"):
        tr.select_morozov(samples, g, 2, pen, tr.parameter_grid(), math.inf)


def test_run_strategies_refuses_infinite_noise_norm(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    path = tr.RegularizationPath.from_samples(samples, g, 2, pen, params.lambdas)
    with pytest.raises(ValueError, match="noise norm must be finite, got inf"):
        tr.run_strategies(path, params, ["morozov"], noise_norm=math.inf)


def test_nan_noise_norm_and_lambda_are_rejected(single_mode):
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match="noise norm must be >= 0"):
        tr.select_morozov(samples, g, 2, pen, tr.parameter_grid(), math.nan)
    for diagnostic in (tr.residual_sq, tr.penalty_sq, tr.residual_sq_prime, tr.penalty_sq_prime):
        with pytest.raises(ValueError, match="must be >= 0"):
            diagnostic(samples, g, 2, pen, math.nan)
    with pytest.raises(ValueError, match="must be >= 0"):
        tr.gcv_trace(pen, math.nan)


def test_exhaustion_error_is_a_selection_error():
    assert issubclass(tr.GridExhaustedError, tr.SelectionError)
    assert issubclass(tr.InapplicableStrategyError, tr.SelectionError)


# ---------------------------------------------------------------------------
# GCV
# ---------------------------------------------------------------------------


def test_gcv_trace_hand_value(single_mode):
    # sum over modes of lam*beta^2/(1+lam*beta^2) = 2*(1/2) + 2*(4/5) = 2.6
    _, _, pen = single_mode
    assert tr.gcv_trace(pen, 1.0) == pytest.approx(2.6, rel=1e-14)


def test_gcv_value_hand_value(single_mode):
    g, samples, pen = single_mode
    c = tr.analyze(samples, g, 2)
    # numerator (pi/4) over trace 2.6 squared
    assert tr.gcv_value(c, pen, 1.0) == pytest.approx((np.pi / 4) / 6.76, rel=1e-13)


def test_gcv_value_matches_explicit_matrices(single_mode):
    """The shortcut equals the defining quotient assembled from matrices."""
    g, samples, pen = single_mode
    c = tr.analyze(samples, g, 2)
    mat = tr.basis_matrix(g.nodes, 2)
    w = np.eye(5) * g.weight
    b_sq = np.diag(pen.beta**2)
    for lam in (0.3, 1.0, 4.0):
        gram = mat.T @ w @ mat + lam * b_sq
        alpha = np.linalg.solve(gram, mat.T @ w @ samples)
        resid = np.sqrt(np.diag(w)) * (mat @ alpha - samples)
        smoother = np.sqrt(w) @ mat @ np.linalg.solve(gram, mat.T @ np.sqrt(w))
        explicit = float(resid @ resid) / float(np.trace(np.eye(5) - smoother)) ** 2
        assert tr.gcv_value(c, pen, lam) == pytest.approx(explicit, rel=1e-12)


def test_gcv_value_refuses_zero_lambda(single_mode):
    g, samples, pen = single_mode
    c = tr.analyze(samples, g, 2)
    with pytest.raises(ValueError, match="needs lam > 0"):
        tr.gcv_value(c, pen, 0.0)


def test_gcv_value_refuses_non_interpolatory_coefficients():
    g = tr.make_grid(11)
    c = tr.analyze(np.cos(g.nodes), g, 2)  # 11 nodes but degree 2
    with pytest.raises(ValueError, match="2\\*degree \\+ 1"):
        tr.gcv_value(c, tr.laplace_penalty(2), 1.0)


def test_gcv_envelope_brackets_score(single_mode):
    g, samples, pen = single_mode
    c = tr.analyze(samples, g, 2)
    for lam in (0.05, 1.0, 20.0):
        lower, upper = tr.gcv_bounds(c, lam)
        assert lower <= tr.gcv_value(c, pen, lam) <= upper


def test_select_gcv_minimizes_score(single_mode):
    g, samples, pen = single_mode
    rep = tr.select_gcv(samples, g, 2, pen, tr.parameter_grid())
    assert rep.strategy == "gcv"
    assert rep.chosen_index == int(np.argmin(rep.gcv))
    explicit = [tr.gcv_value(tr.analyze(samples, g, 2), pen, l) for l in rep.lambdas[:5]]
    assert_allclose(rep.gcv[:5], explicit, rtol=1e-13)


def test_select_gcv_requires_interpolatory_grid():
    g = tr.make_grid(11)
    with pytest.raises(tr.InapplicableStrategyError, match="interpolatory"):
        tr.select_gcv(np.cos(g.nodes), g, 2, tr.laplace_penalty(2), tr.parameter_grid())


def test_select_gcv_refuses_zero_data():
    g = tr.make_grid(5)
    with pytest.raises(tr.InapplicableStrategyError, match="zero"):
        tr.select_gcv(np.zeros(5), g, 2, tr.laplace_penalty(2), tr.parameter_grid())


def test_select_gcv_refuses_constant_data():
    # the penalized coefficients of constant samples are roundoff relics
    g = tr.make_grid(11)
    with pytest.raises(tr.InapplicableStrategyError, match="zero"):
        tr.select_gcv(np.full(11, 2.5), g, 5, tr.laplace_penalty(5), tr.parameter_grid())


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_minimizes_true_error():
    g = tr.make_grid(21)
    clean = np.exp(np.cos(g.nodes))
    noisy = tr.add_noise_snr(clean, 20.0, 4).noisy
    pen = tr.laplace_penalty(10)
    params = tr.parameter_grid()
    rep = tr.select_oracle(noisy, g, 10, pen, params, tr.gallery("f1"), eval_points=2000)
    assert rep.strategy == "oracle"
    assert rep.l2_error.shape == params.lambdas.shape
    assert rep.chosen_index == int(np.argmin(rep.l2_error))
    # spot-check the tabulated error curve against the standalone metric
    k = rep.chosen_index
    approx = tr.solve(noisy, g, 10, params.lambdas[k], pen)
    assert rep.l2_error[k] == pytest.approx(
        tr.l2_error(approx, tr.gallery("f1"), eval_points=2000), rel=1e-12
    )


@pytest.mark.parametrize("eval_points", [10000, 2001])
def test_oracle_curve_matches_dense_l2_error(eval_points):
    """The Parseval curve equals the dense metric on even and odd K."""
    g = tr.make_grid(101)
    f = tr.gallery("square")
    noisy = tr.add_noise_snr(f(g.nodes), 30.0, 9).noisy
    pen = tr.laplace_penalty(50)
    params = tr.parameter_grid()
    rep = tr.select_oracle(noisy, g, 50, pen, params, f, eval_points=eval_points)
    for k in (0, 40, rep.chosen_index, 250, 399):
        approx = tr.solve(noisy, g, 50, params.lambdas[k], pen)
        dense = tr.l2_error(approx, f, eval_points=eval_points)
        assert rep.l2_error[k] == pytest.approx(dense, rel=1e-10)


def test_oracle_needs_eval_grid_that_resolves_the_degree():
    g = tr.make_grid(1201)
    samples = np.cos(g.nodes)
    with pytest.raises(ValueError, match="2\\*degree \\+ 1"):
        tr.select_oracle(samples, g, 600, tr.laplace_penalty(600), tr.parameter_grid(t_max=5),
                         np.cos, eval_points=1000)


def test_selection_rejects_constant_form_penalty_everywhere(single_mode):
    g, samples, _ = single_mode
    cpen = tr.constant_penalty(2, 1.0)
    params = tr.parameter_grid(t_max=10)
    with pytest.raises(ValueError, match="constant-form"):
        tr.select_lcurve(samples, g, 2, cpen, params)
    with pytest.raises(ValueError, match="constant-form"):
        tr.select_morozov(samples, g, 2, cpen, params, 0.1)
    with pytest.raises(ValueError, match="constant-form"):
        tr.select_gcv(samples, g, 2, cpen, params)
    with pytest.raises(ValueError, match="constant-form"):
        tr.select_oracle(samples, g, 2, cpen, params, np.cos)
