"""Parameter grid, path diagnostics, and the lambda selection strategies.

The single-mode problem f = cos x on five nodes admits hand values for every
diagnostic: the only penalized coefficient is sqrt(pi) at (1, 1), so

    J(lam) = pi * (lam/(1+lam))**2,   K(lam) = pi / (1+lam)**2,

and at lam = 1 both equal pi/4 while J' = pi/4 and K' = -pi/4.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference as ref

import trigreg as tr


@pytest.fixture
def single_mode():
    g = tr.make_grid(5)
    return g, np.cos(g.nodes), tr.laplace_penalty(2, 1.0)


def _path(samples, grid, degree, penalty, *lambdas):
    return tr.RegularizationPath.from_samples(samples, grid, degree, penalty, np.array(lambdas))


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


def test_grid_refuses_values_below_the_smallest_normal_float():
    # 2**-1022 is the smallest normal float; 0.5**1100 underflows to 0.0
    assert tr.parameter_grid(q=0.5, t_max=1022).lambdas[-1] == 2.0**-1022
    with pytest.raises(ValueError, match="underflows: zeta0\\*q\\*\\*t_max = 1.1125"):
        tr.parameter_grid(q=0.5, t_max=1023)
    with pytest.raises(ValueError, match="= 0.0 with zeta0=1.0, q=0.5, t_max=1100"):
        tr.parameter_grid(q=0.5, t_max=1100)


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
# path diagnostics
# ---------------------------------------------------------------------------


def test_single_mode_hand_values(single_mode):
    g, samples, pen = single_mode
    path = _path(samples, g, 2, pen, 1.0, 0.0)
    assert tr.residual_sq(samples, g, 2, pen, 1.0) == pytest.approx(np.pi / 4, rel=1e-13)
    assert path.residual_sq()[0] == pytest.approx(np.pi / 4, rel=1e-13)
    assert path.penalty_sq()[0] == pytest.approx(np.pi / 4, rel=1e-13)
    assert path.penalty_sq_prime()[0] == pytest.approx(-np.pi / 4, rel=1e-13)
    assert path.penalty_sq()[1] == pytest.approx(np.pi, rel=1e-13)
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
    # the path scan gives the same values as the one-lambda function
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
    path = _path(samples, g, 6, tr.laplace_penalty(6), 0.5)
    assert path.r0 == 0.0
    assert path.residual_sq(0.0) == 0.0
    assert isinstance(path.residual_sq(0.0), float)
    assert path.residual_sq().shape == (1,)


@pytest.mark.parametrize("degree", [50, 20])
def test_morozov_upper_bound_is_mean_residual_norm(degree):
    """sqrt(r0 + sum of the nonconstant c**2) equals ||f - mean(f)||_N on
    interpolatory (L = 50) and non-interpolatory (L = 20) grids alike."""
    g = tr.make_grid(101)
    samples = np.exp(np.cos(g.nodes)) + 2.0 + np.random.default_rng(9).standard_normal(101)
    path = _path(samples, g, degree, tr.laplace_penalty(degree), 0.5)
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
    """-lam*K' equals J' = sum 2*lam*beta**4/(1 + lam*beta**2)**3 * c**2,
    the derivative of J summed mode by mode."""
    g = tr.make_grid(11)
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(11)
    pen = tr.laplace_penalty(5, 1.5)
    lams = np.array([0.01, 0.5, 3.0])
    path = tr.RegularizationPath.from_samples(samples, g, 5, pen, lams)
    c, b_sq = tr.analyze(samples, g, 5).values, pen.beta**2
    for lam, kp in zip(lams, path.penalty_sq_prime()):
        jp = float(np.sum(2 * lam * b_sq**2 / (1 + lam * b_sq) ** 3 * c**2))
        assert jp == pytest.approx(-lam * kp, rel=1e-13)


def test_diagnostics_reject_constant_form_penalty(single_mode):
    g, samples, _ = single_mode
    cpen = tr.PenaltySequence(2, np.ones(5))
    with pytest.raises(ValueError, match=r"zero weight on the constant mode, got beta\[0\] = 1.0"):
        tr.residual_sq(samples, g, 2, cpen, 1.0)
    with pytest.raises(ValueError, match=r"zero weight on the constant mode, got beta\[0\] = 1.0"):
        tr.solve(samples, g, 2, 1.0, cpen)


def test_diagnostics_reject_negative_lambda(single_mode):
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match=">= 0"):
        tr.residual_sq(samples, g, 2, pen, -1.0)


# ---------------------------------------------------------------------------
# L-curve
# ---------------------------------------------------------------------------


def test_curvature_single_mode_hand_value():
    # at lam = 1: rho = eta = pi/4, eta' = -pi/4, and the log-log curve has
    # curvature -1/(2*sqrt(2)) there
    g = tr.make_grid(5)
    kappa = _path(np.cos(g.nodes), g, 2, tr.laplace_penalty(2), 1.0).curvature()[0]
    assert kappa == pytest.approx(-1 / (2 * math.sqrt(2)), rel=1e-13)


def test_curvature_matches_finite_difference(single_mode):
    """Closed-form curvature agrees with differencing the log-log curve."""
    g, samples, pen = single_mode
    for lam in (0.2, 1.0, 5.0):
        h = 1e-4 * lam
        path = _path(samples, g, 2, pen, lam - h, lam, lam + h)
        u0, u1, u2 = np.log(path.residual_sq())
        v0, v1, v2 = np.log(path.penalty_sq())
        du = (u2 - u0) / (2 * h)
        dv = (v2 - v0) / (2 * h)
        ddu = (u2 - 2 * u1 + u0) / h**2
        ddv = (v2 - 2 * v1 + v0) / h**2
        fd = (du * ddv - ddu * dv) / (du**2 + dv**2) ** 1.5
        assert path.curvature()[1] == pytest.approx(fd, rel=1e-4)


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


MOROZOV_VIOLATED = (
    "morozov noise assumption violated: the noise norm does not separate "
    "the full-degree residual from the residual of the node mean"
)


def test_morozov_reports_violated_assumption(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    # noise claimed larger than the centered signal norm: no root can exist
    with pytest.raises(tr.InapplicableStrategyError, match=f"^{MOROZOV_VIOLATED}$"):
        tr.select_morozov(samples, g, 2, pen, params, 100.0)
    path = tr.RegularizationPath.from_samples(samples, g, 2, pen, params.lambdas)
    reports, failures = tr.run_strategies(path, params, ["morozov", "lcurve"], noise_norm=100.0)
    assert list(reports) == ["lcurve"]
    assert failures == {"morozov": MOROZOV_VIOLATED}
    # truncating at degree 2 leaves a least-squares floor J(0) > 0, so a
    # claimed noise level below it violates the assumption from the other side
    g = tr.make_grid(11)
    samples = np.cos(g.nodes) + 0.5 * np.sin(4 * g.nodes)
    with pytest.raises(tr.InapplicableStrategyError, match=f"^{MOROZOV_VIOLATED}$"):
        tr.select_morozov(samples, g, 2, tr.laplace_penalty(2), params, 1e-8)


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
    with pytest.raises(ValueError, match="must be >= 0"):
        tr.residual_sq(samples, g, 2, pen, math.nan)


def test_exhaustion_error_is_a_selection_error():
    assert issubclass(tr.InapplicableStrategyError, tr.SelectionError)


# ---------------------------------------------------------------------------
# GCV
# ---------------------------------------------------------------------------


def test_gcv_trace_hand_value(single_mode):
    # sum over modes of lam*beta^2/(1+lam*beta^2) = 2*(1/2) + 2*(4/5) = 2.6;
    # on an interpolatory grid V = J / trace**2
    g, samples, pen = single_mode
    path = _path(samples, g, 2, pen, 1.0)
    assert math.sqrt(path.residual_sq()[0] / path.gcv()[0]) == pytest.approx(2.6, rel=1e-14)


def test_gcv_value_hand_value(single_mode):
    g, samples, pen = single_mode
    # numerator (pi/4) over trace 2.6 squared
    assert _path(samples, g, 2, pen, 1.0).gcv()[0] == pytest.approx((np.pi / 4) / 6.76, rel=1e-13)


def test_gcv_value_matches_explicit_matrices(single_mode):
    """The shortcut equals the defining quotient assembled from matrices."""
    g, samples, pen = single_mode
    lams = (0.3, 1.0, 4.0)
    closed_scores = _path(samples, g, 2, pen, *lams).gcv()
    mat = tr.basis_matrix(g.nodes, 2)
    w = np.eye(5) * g.weight
    b_sq = np.diag(pen.beta**2)
    for lam, closed in zip(lams, closed_scores):
        gram = mat.T @ w @ mat + lam * b_sq
        alpha = np.linalg.solve(gram, mat.T @ w @ samples)
        resid = np.sqrt(np.diag(w)) * (mat @ alpha - samples)
        smoother = np.sqrt(w) @ mat @ np.linalg.solve(gram, mat.T @ np.sqrt(w))
        explicit = float(resid @ resid) / float(np.trace(np.eye(5) - smoother)) ** 2
        assert closed == pytest.approx(explicit, rel=1e-12)


def test_select_gcv_minimizes_score(single_mode):
    g, samples, pen = single_mode
    rep = tr.select_gcv(samples, g, 2, pen, tr.parameter_grid())
    assert rep.strategy == "gcv"
    assert rep.chosen_index == int(np.argmin(rep.gcv))
    # V = sum (w*c)**2 / (sum w)**2 with w = lam*beta**2/(1 + lam*beta**2)
    c, b_sq = tr.analyze(samples, g, 2).values, pen.beta**2
    weight = np.outer(rep.lambdas[:5], b_sq) / (1 + np.outer(rep.lambdas[:5], b_sq))
    assert_allclose(rep.gcv[:5], ((weight * c) ** 2).sum(axis=1) / weight.sum(axis=1) ** 2, rtol=1e-13)


def test_select_gcv_on_a_hyperinterpolation_grid_minimizes_the_explicit_quotient():
    # N = 21 > 2L + 1 = 11: the hat matrix also drops the 10 directions no
    # degree-5 polynomial reaches, so they add N - (2L + 1) to tr(I - H)
    g = tr.make_grid(21)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 21).noisy
    pen, params = tr.laplace_penalty(5), tr.parameter_grid(q=0.5**0.5, t_max=60)
    mat, sqrt_w = tr.basis_matrix(g.nodes, 5), math.sqrt(g.weight)
    explicit = []
    for lam in params.lambdas:
        gram = g.weight * mat.T @ mat + lam * np.diag(pen.beta**2)
        hat = g.weight * mat @ np.linalg.solve(gram, mat.T)
        resid = sqrt_w * (hat @ noisy - noisy)
        explicit.append(float(resid @ resid) / float(np.trace(np.eye(21) - hat)) ** 2)
    rep = tr.select_gcv(noisy, g, 5, pen, params)
    assert_allclose(rep.gcv, explicit, rtol=1e-12)
    assert rep.chosen_index == int(np.argmin(explicit))
    assert 0 < rep.chosen_index < params.t_max - 1


def test_select_gcv_refuses_zero_data():
    g = tr.make_grid(5)
    with pytest.raises(tr.InapplicableStrategyError, match="zero"):
        tr.select_gcv(np.zeros(5), g, 2, tr.laplace_penalty(2), tr.parameter_grid())


def test_select_gcv_refuses_constant_data():
    # the penalized coefficients of constant samples are roundoff relics
    g = tr.make_grid(11)
    with pytest.raises(tr.InapplicableStrategyError, match="zero"):
        tr.select_gcv(np.full(11, 2.5), g, 5, tr.laplace_penalty(5), tr.parameter_grid())


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_steep_penalty_curvature_is_finite():
    # beta**4 = ell**160 used to overflow in K' and leave every kappa NaN
    g = tr.make_grid(1001)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0).noisy
    rep = tr.select_lcurve(noisy, g, 500, tr.laplace_penalty(500, 40.0), tr.parameter_grid())
    assert rep.curvature.size == 400 and np.isfinite(rep.curvature).all()
    assert np.isfinite(rep.penalty_sq).all()


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_selectors_refuse_a_non_finite_objective():
    # argmax and argmin return the first NaN, so these used to pick from it
    g = tr.make_grid(101)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0).noisy
    deep = tr.parameter_grid(q=0.5, t_max=1000)  # down to 9.3e-302: J and the trace underflow
    with pytest.raises(tr.InapplicableStrategyError, match="curvature is not finite at 640 of 1000"):
        tr.select_lcurve(noisy, g, 50, tr.laplace_penalty(50), deep)
    with pytest.raises(tr.InapplicableStrategyError, match="GCV score is not finite at 447 of 1000"):
        tr.select_gcv(noisy, g, 50, tr.laplace_penalty(50), deep)
    params = tr.parameter_grid(t_max=10)
    path = tr.RegularizationPath.from_samples(noisy, g, 50, tr.laplace_penalty(50), params.lambdas)
    reports, failures = tr.run_strategies(path, params, ["oracle"], truth=(path.coeffs, math.nan))
    assert reports == {}
    assert failures["oracle"] == "oracle is inapplicable: the L2 error is not finite at 10 of 10 grid lambdas"


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_lcurve_refuses_an_infinite_curvature():
    # N > 2L + 1 keeps J >= r0 > 0; at lam = 1e-200, B = lam**2 * K' underflows
    # to 0 while A = lam * K > 0, so kappa is +inf, which argmax |kappa| would pick
    g = tr.make_grid(21)
    samples = np.exp(np.cos(g.nodes)) + np.sign(np.sin(g.nodes))
    lambdas = np.array([1e-3, 1e-200])
    path = tr.RegularizationPath.from_samples(samples, g, 5, tr.laplace_penalty(5), lambdas)
    assert path.r0 > 0.1
    assert np.isfinite(path.curvature()[0]) and path.curvature()[1] == math.inf
    params = tr.ParameterGrid(zeta0=1.0, q=1e-3, t_max=2, lambdas=lambdas)
    reports, failures = tr.run_strategies(path, params, ["lcurve"])
    assert reports == {}
    assert failures["lcurve"] == "L-curve is inapplicable: the curvature is not finite at 1 of 2 grid lambdas"


@pytest.mark.filterwarnings("error")  # as under python -W error
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 20.0])
@pytest.mark.parametrize("n_points", [3, 21, 101, 1001])
def test_path_matches_the_mode_wise_reference(n_points, s):
    """The per-frequency bounded sums against J, K, K', kappa and V summed
    mode by mode from their textbook forms (tests/reference.py)."""
    g = tr.make_grid(n_points)
    degree = (n_points - 1) // 2
    noisy = tr.add_noise_snr(tr.gallery("square")(g.nodes), 30.0, n_points).noisy
    path = tr.RegularizationPath.from_samples(
        noisy, g, degree, tr.laplace_penalty(degree, s), tr.parameter_grid().lambdas
    )
    want = ref.path_diagnostics(path.coeffs, path.beta_sq, path.lambdas, path.r0)
    assert_allclose(path.residual_sq(), want["J"], rtol=1e-12, atol=0)
    assert_allclose(path.penalty_sq(), want["K"], rtol=1e-12, atol=0)
    assert_allclose(path.penalty_sq_prime(), want["K'"], rtol=1e-12, atol=0)
    assert_allclose(path.gcv(), want["V"], rtol=1e-12, atol=0)
    kappa = path.curvature()
    assert np.linalg.norm(kappa - want["kappa"]) <= 1e-10 * np.linalg.norm(want["kappa"])


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_overflowing_lambda_beta_sq_has_the_limit_factors():
    """Where lam*beta**2 overflows, s = 0 and w = 1; every other entry is
    bitwise the one a lambda below the overflow limit gets."""
    g = tr.make_grid(101)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0).noisy
    lambdas = np.array([1e305, 1e300, 1.0])
    path = tr.RegularizationPath.from_samples(noisy, g, 50, tr.laplace_penalty(50), lambdas)
    beta_sq = np.arange(51.0) ** 2
    with np.errstate(over="ignore"):
        scaled = np.multiply.outer(lambdas, beta_sq)
    overflowed = np.isinf(scaled)
    assert overflowed[0].any() and not overflowed[1:].any()
    shrink, weight = path.factors(lambdas)
    assert np.all(shrink[overflowed] == 0.0) and np.all(weight[overflowed] == 1.0)
    want = 1.0 / (1.0 + scaled[~overflowed])
    assert np.array_equal(shrink[~overflowed], want)
    assert np.array_equal(weight[~overflowed], scaled[~overflowed] * want)
    for k, lam in enumerate(lambdas):  # one float takes the same branch as the array
        assert np.array_equal(path.factors(float(lam))[1], weight[k])
    # s = 0 on every penalized mode leaves the mean: J is the squared upper Morozov bound
    assert path.residual_sq()[0] == pytest.approx(path.discrepancy_bounds()[1] ** 2, rel=1e-14)
    assert np.all(np.isfinite(path.curvature())) and np.all(np.isfinite(path.gcv()))
    alpha = path.alpha(1e305)
    assert np.all(alpha[overflowed[0][tr.mode_layout(50)[0]]] == 0.0) and alpha[0] == path.coeffs[0]
    approx = tr.solve(noisy, g, 50, 1e305, tr.laplace_penalty(50))
    assert np.array_equal(approx.alpha, path.alpha(1e305))


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_penalty_sq_prime_on_lambdas_whose_square_overflows():
    """K' = B/lam/lam: lam**2 overflows above 1.3e154, and K' there is -0.0
    (its limit) or a subnormal, with no overflow warning."""
    g = tr.make_grid(101)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0).noisy
    lambdas = np.geomspace(1e200, 1.0, 50)
    path = tr.RegularizationPath.from_samples(noisy, g, 50, tr.laplace_penalty(50), lambdas)
    k_prime = path.penalty_sq_prime()
    assert k_prime[0] == 0.0 and np.all(k_prime <= 0.0)
    with np.errstate(all="ignore"):  # the reference's kappa squares lam
        want = ref.path_diagnostics(path.coeffs, path.beta_sq, lambdas, path.r0)
    assert_allclose(k_prime, want["K'"], rtol=1e-12, atol=1e-300)
    assert_allclose(path.penalty_sq(), want["K"], rtol=1e-12, atol=0)


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
    assert rep.l2_error[k] == pytest.approx(ref.l2_error(approx, tr.gallery("f1"), 2000), rel=1e-12)


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
        dense = ref.l2_error(approx, f, eval_points)
        assert rep.l2_error[k] == pytest.approx(dense, rel=1e-10)


def test_oracle_needs_eval_grid_that_resolves_the_degree():
    g = tr.make_grid(1201)
    samples = np.cos(g.nodes)
    with pytest.raises(ValueError, match="2\\*degree \\+ 1"):
        tr.select_oracle(samples, g, 600, tr.laplace_penalty(600), tr.parameter_grid(t_max=5),
                         np.cos, eval_points=1000)


def test_selection_rejects_constant_form_penalty_everywhere(single_mode):
    g, samples, _ = single_mode
    cpen = tr.PenaltySequence(2, np.ones(5))
    params = tr.parameter_grid(t_max=10)
    for call in (
        lambda: tr.select_lcurve(samples, g, 2, cpen, params),
        lambda: tr.select_morozov(samples, g, 2, cpen, params, 0.1),
        lambda: tr.select_gcv(samples, g, 2, cpen, params),
        lambda: tr.select_oracle(samples, g, 2, cpen, params, np.cos),
        lambda: tr.solve(samples, g, 2, 0.5, cpen),
    ):
        with pytest.raises(ValueError, match="zero weight on the constant mode"):
            call()
