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


def _path(samples, penalty, *lambdas):
    return tr.RegularizationPath.from_samples(samples, penalty, np.array(lambdas))


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
    path = _path(samples, pen, 1.0, 0.0)
    assert tr.residual_sq(samples, pen, 1.0) == pytest.approx(np.pi / 4, rel=1e-13)
    assert path.residual_sq()[0] == pytest.approx(np.pi / 4, rel=1e-13)
    assert path.penalty_sq()[0] == pytest.approx(np.pi / 4, rel=1e-13)
    assert path.penalty_sq_prime()[0] == pytest.approx(-np.pi / 4, rel=1e-13)
    assert path.penalty_sq()[1] == pytest.approx(np.pi, rel=1e-13)
    assert tr.residual_sq(samples, pen, 0.0) == pytest.approx(0.0, abs=1e-25)


@pytest.mark.parametrize("lam", [0.01, 0.3, 2.0, 50.0])
def test_single_mode_residual_closed_form(single_mode, lam):
    g, samples, pen = single_mode
    expected = np.pi * (lam / (1 + lam)) ** 2
    assert tr.residual_sq(samples, pen, lam) == pytest.approx(expected, rel=1e-12)


def test_residual_matches_literal_node_sum():
    """The diagnostic agrees with evaluating the solution at the nodes."""
    g = tr.make_grid(9)
    rng = np.random.default_rng(3)
    samples = np.sin(2 * g.nodes) + 0.1 * rng.standard_normal(9)
    pen = tr.laplace_penalty(4)
    for lam in (0.0, 0.2, 1.7):
        approx = tr.solve(samples, pen, lam)
        brute = g.weight * np.sum((approx(g.nodes) - samples) ** 2)
        assert tr.residual_sq(samples, pen, lam) == pytest.approx(brute, abs=1e-14)


def test_residual_matches_literal_node_sum_off_interpolation():
    """N > 2L + 1: the closed form carries the projection remainder r0 > 0."""
    g = tr.make_grid(31)
    rng = np.random.default_rng(5)
    samples = np.exp(np.cos(g.nodes)) + np.sign(np.sin(g.nodes)) + 0.1 * rng.standard_normal(31)
    pen = tr.laplace_penalty(6)
    params = tr.parameter_grid(t_max=60)
    path = tr.RegularizationPath.from_samples(samples, pen, params.lambdas)
    fit = tr.solve(samples, pen, 0.0)
    assert path.r0 == pytest.approx(g.weight * np.sum((fit(g.nodes) - samples) ** 2), rel=1e-13)
    assert path.r0 > 0.1
    for lam in (0.0, 0.03, 0.2, 1.7, 40.0):
        approx = tr.solve(samples, pen, lam)
        brute = g.weight * np.sum((approx(g.nodes) - samples) ** 2)
        assert tr.residual_sq(samples, pen, lam) == pytest.approx(brute, rel=1e-13)
    # the path scan gives the same values as the one-lambda function
    j_scan = path.residual_sq()
    for k in (0, 17, 59):
        lam = params.lambdas[k]
        assert j_scan[k] == pytest.approx(tr.residual_sq(samples, pen, lam), rel=1e-14)


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
    path = tr.RegularizationPath.from_samples(samples, pen, lambdas)
    square = tr.gallery("square")(tr.uniform_eval_points(10000))
    truth, remainder = tr.uniform_projection(square, degree)

    c, beta_sq = path.coeffs, pen.beta[tr.mode_layout(degree)[0]] ** 2  # per mode
    lam_bsq = np.outer(beta_sq, lambdas)
    shrink = 1.0 / (1.0 + lam_bsq)
    weight = lam_bsq * shrink
    rtol = 1e-12  # sums of nonnegative terms over <= 4097 modes in another order
    assert_allclose(path.residual_sq(), c**2 @ weight**2, rtol=rtol)
    assert_allclose(path.penalty_sq(), (beta_sq * c**2) @ shrink**2, rtol=rtol)
    assert_allclose(path.penalty_sq_prime(), -2.0 * (beta_sq**2 * c**2) @ shrink**3, rtol=rtol)
    assert_allclose(path.gcv(), c**2 @ weight**2 / weight.sum(axis=0) ** 2, rtol=rtol)
    dense_l2 = np.sqrt(np.sum((shrink * c[:, None] - truth[:, None]) ** 2, axis=0) + remainder)
    assert_allclose(path.l2_error(*tr.uniform_rfft(square)), dense_l2, rtol=rtol)
    assert_allclose(path.alpha(), shrink * c[:, None], rtol=0, atol=0)


def test_path_interpolatory_remainder_is_exactly_zero():
    samples = np.random.default_rng(1).standard_normal(13)
    path = _path(samples, tr.laplace_penalty(6), 0.5)
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
    path = _path(samples, tr.laplace_penalty(degree), 0.5)
    lower, upper = path.discrepancy_bounds()
    assert upper == pytest.approx(tr.weighted_norm(samples - np.mean(samples)), rel=1e-12)
    assert lower == math.sqrt(path.r0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_selectors_reject_non_finite_samples(bad):
    g = tr.make_grid(11)
    samples = np.sin(g.nodes)
    samples[2] = bad
    pen, params = tr.laplace_penalty(5), tr.parameter_grid(t_max=20)
    for select in (tr.select_lcurve, tr.select_gcv):
        with pytest.raises(ValueError, match="finite"):
            select(samples, pen, params)
    with pytest.raises(ValueError, match="finite"):
        tr.select_morozov(samples, pen, params, 0.1)


# Every entry point that takes samples reads N from them and L from the
# penalty, and refuses what make_grid refuses (not 1-d, N even or below 3)
# and a penalty degree with 2L + 1 > N.
SAMPLE_ENTRY_POINTS = {
    "from_samples": lambda y, pen: tr.RegularizationPath.from_samples(y, pen, tr.parameter_grid().lambdas),
    "solve": lambda y, pen: tr.solve(y, pen, 0.1),
    "residual_sq": lambda y, pen: tr.residual_sq(y, pen, 0.1),
    "analyze": lambda y, pen: tr.analyze(y, pen.degree),
    "select_morozov": lambda y, pen: tr.select_morozov(y, pen, tr.parameter_grid(), 0.1),
    "select_lcurve": lambda y, pen: tr.select_lcurve(y, pen, tr.parameter_grid()),
    "select_gcv": lambda y, pen: tr.select_gcv(y, pen, tr.parameter_grid()),
    "select_oracle": lambda y, pen: tr.select_oracle(y, pen, tr.parameter_grid(), np.cos, eval_points=1000),
}
BAD_SAMPLES = {
    "2-d": (np.ones((5, 1)), 2, r"expected a 1-d vector of samples, got shape \(5, 1\)"),
    "even": (np.ones(6), 2, "need an odd number >= 3 of samples, got 6"),
    "fewer-than-3": (np.ones(1), 0, "need an odd number >= 3 of samples, got 1"),
    "degree-too-high": (np.ones(5), 3, "degree 3 too high for 5 nodes"),
}


@pytest.mark.parametrize("case", list(BAD_SAMPLES))
@pytest.mark.parametrize("entry", list(SAMPLE_ENTRY_POINTS))
def test_every_entry_point_refuses_bad_samples(entry, case):
    samples, degree, message = BAD_SAMPLES[case]
    with pytest.raises(ValueError, match=message):
        SAMPLE_ENTRY_POINTS[entry](samples, tr.laplace_penalty(degree))


def test_exchange_identity_between_derivatives():
    """-lam*K' equals J' = sum 2*lam*beta**4/(1 + lam*beta**2)**3 * c**2,
    the derivative of J summed mode by mode."""
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(11)
    pen = tr.laplace_penalty(5, 1.5)
    lams = np.array([0.01, 0.5, 3.0])
    path = tr.RegularizationPath.from_samples(samples, pen, lams)
    c, b_sq = tr.analyze(samples, 5).values, pen.beta[tr.mode_layout(5)[0]] ** 2
    for lam, kp in zip(lams, path.penalty_sq_prime()):
        jp = float(np.sum(2 * lam * b_sq**2 / (1 + lam * b_sq) ** 3 * c**2))
        assert jp == pytest.approx(-lam * kp, rel=1e-13)


def test_diagnostics_reject_constant_form_penalty(single_mode):
    g, samples, _ = single_mode
    with pytest.raises(ValueError, match=r"zero weight on the constant mode, got beta\[0\] = 1.0$"):
        tr.residual_sq(samples, tr.PenaltySequence(2, np.ones(3)), 1.0)
    with pytest.raises(ValueError, match=r"zero weight on the constant mode, got beta\[0\] = 1.0$"):
        tr.solve(samples, tr.PenaltySequence(2, np.ones(3)), 1.0)


def test_diagnostics_reject_negative_lambda(single_mode):
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match=">= 0"):
        tr.residual_sq(samples, pen, -1.0)


# ---------------------------------------------------------------------------
# L-curve
# ---------------------------------------------------------------------------


def test_curvature_single_mode_hand_value():
    # at lam = 1: rho = eta = pi/4, eta' = -pi/4, and the log-log curve has
    # curvature -1/(2*sqrt(2)) there
    g = tr.make_grid(5)
    kappa = _path(np.cos(g.nodes), tr.laplace_penalty(2), 1.0).curvature()[0]
    assert kappa == pytest.approx(-1 / (2 * math.sqrt(2)), rel=1e-13)


def test_curvature_matches_finite_difference(single_mode):
    """Closed-form curvature agrees with differencing the log-log curve."""
    g, samples, pen = single_mode
    for lam in (0.2, 1.0, 5.0):
        h = 1e-4 * lam
        path = _path(samples, pen, lam - h, lam, lam + h)
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
    rep = tr.select_lcurve(samples, pen, tr.parameter_grid())
    assert rep.strategy == "lcurve"
    assert rep.chosen_index == int(np.argmax(rep.objective))
    assert rep.chosen_lambda == rep.lambdas[rep.chosen_index]


@pytest.mark.parametrize("data", [np.zeros(5), np.full(5, 3.0)])
def test_lcurve_refuses_degenerate_signal(data):
    with pytest.raises(tr.InapplicableStrategyError, match="constant mode"):
        tr.select_lcurve(data, tr.laplace_penalty(2), tr.parameter_grid())


# ---------------------------------------------------------------------------
# Morozov discrepancy
# ---------------------------------------------------------------------------


def test_morozov_single_mode_analytic_root(single_mode):
    # J(lam) = pi*(lam/(1+lam))^2 crosses noise^2 = pi/4 exactly at lam = 1
    g, samples, pen = single_mode
    rep = tr.select_morozov(samples, pen, tr.parameter_grid(), math.sqrt(np.pi) / 2)
    assert rep.strategy == "morozov"
    assert rep.refined
    assert rep.chosen_lambda == pytest.approx(1.0, abs=1e-8)


def test_morozov_unrefined_stays_on_grid(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    rep = tr.select_morozov(samples, pen, params, math.sqrt(np.pi) / 2, refine=False)
    assert not rep.refined
    assert rep.chosen_lambda in params.lambdas
    # the unrefined pick is the first grid value with nonpositive discrepancy
    assert rep.objective[rep.chosen_index] <= 0
    assert np.all(rep.objective[: rep.chosen_index] > 0)


def test_morozov_discrepancy_has_one_sign_change(single_mode):
    # noise^2 = J(0.4) = pi*(0.4/1.4)^2 puts the root at lam = 0.4, strictly
    # between two grid values
    g, samples, pen = single_mode
    rep = tr.select_morozov(samples, pen, tr.parameter_grid(), 2 * math.sqrt(np.pi) / 7)
    signs = np.sign(rep.objective)
    assert np.sum(np.diff(signs) != 0) == 1
    assert rep.chosen_lambda == pytest.approx(0.4, abs=1e-8)


def test_morozov_zero_noise_pushes_to_grid_floor(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    rep = tr.select_morozov(samples, pen, params, 0.0, refine=False)
    assert rep.chosen_index == params.t_max - 1
    refined = tr.select_morozov(samples, pen, params, 0.0)
    assert refined.chosen_lambda <= params.lambdas[-1]


@pytest.fixture(scope="module")
def f1_row():
    """A noisy f1 row (N = 101, 20 dB, seed 0) whose Morozov root is about 0.00912."""
    g = tr.make_grid(101)
    real = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0)
    return g, real.noisy, tr.laplace_penalty(50), real.eps_wnorm


# One bracket per case: (lambda_k, lambda_{k-1} or zeta0] after a crossing,
# (0, lambda_T] without one; each refined lambda is pinned to its repr.
@pytest.mark.parametrize("grid_args, noise, index, refined, chosen", [
    # F(zeta0) < 0: the root lies above the grid, lambda_1 is kept
    ({"zeta0": 1e-6}, None, 0, False, "9.330329915368074e-07"),
    ({"zeta0": 0.0095}, None, 0, True, "0.00912060586962466"),  # root in (lambda_1, zeta0]
    ({}, None, 67, True, "0.009120605870708162"),  # an interior crossing
    ({"t_max": 60}, None, 59, True, "0.009120605869611605"),  # root in (0, lambda_T]
    ({}, 0.0, 399, True, "7.888609052210098e-31"),  # no noise: F > 0 on the whole grid
], ids=["above-zeta0", "below-zeta0", "interior", "below-grid", "zero-noise"])
def test_morozov_bracket_cases(f1_row, grid_args, noise, index, refined, chosen):
    g, samples, pen, eps_wnorm = f1_row
    params = tr.parameter_grid(**grid_args)
    noise = eps_wnorm if noise is None else noise
    rep = tr.select_morozov(samples, pen, params, noise)
    assert (rep.chosen_index, rep.refined, repr(rep.chosen_lambda)) == (index, refined, chosen)
    grid_pick = tr.select_morozov(samples, pen, params, noise, refine=False)
    assert grid_pick.chosen_index == index and grid_pick.chosen_lambda == params.lambdas[index]
    upper = params.lambdas[index - 1] if index else params.zeta0
    if rep.objective[index] > 0:  # no crossing
        assert 0 < rep.chosen_lambda <= params.lambdas[index]
    elif refined:
        assert params.lambdas[index] <= rep.chosen_lambda <= upper


MOROZOV_VIOLATED = (
    "morozov noise assumption violated: the noise norm does not separate "
    "the full-degree residual from the residual of the node mean"
)


def test_morozov_reports_violated_assumption(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    # noise claimed larger than the centered signal norm: no root can exist
    with pytest.raises(tr.InapplicableStrategyError, match=f"^{MOROZOV_VIOLATED}$"):
        tr.select_morozov(samples, pen, params, 100.0)
    path = tr.RegularizationPath.from_samples(samples, pen, params.lambdas)
    reports, failures = tr.run_strategies(path, params, ["morozov", "lcurve"], noise_norm=100.0)
    assert list(reports) == ["lcurve"]
    assert failures == {"morozov": MOROZOV_VIOLATED}
    # truncating at degree 2 leaves a least-squares floor J(0) > 0, so a
    # claimed noise level below it violates the assumption from the other side
    g = tr.make_grid(11)
    samples = np.cos(g.nodes) + 0.5 * np.sin(4 * g.nodes)
    with pytest.raises(tr.InapplicableStrategyError, match=f"^{MOROZOV_VIOLATED}$"):
        tr.select_morozov(samples, tr.laplace_penalty(2), params, 1e-8)


def test_morozov_requires_nonnegative_noise(single_mode):
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match="noise"):
        tr.select_morozov(samples, pen, tr.parameter_grid(), -1.0)


def test_morozov_refuses_infinite_noise_norm(single_mode):
    # it used to return a report with no chosen lambda and assumption_ok=False
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match="noise norm must be finite, got inf"):
        tr.select_morozov(samples, pen, tr.parameter_grid(), math.inf)


def test_run_strategies_refuses_infinite_noise_norm(single_mode):
    g, samples, pen = single_mode
    params = tr.parameter_grid()
    path = tr.RegularizationPath.from_samples(samples, pen, params.lambdas)
    with pytest.raises(ValueError, match="noise norm must be finite, got inf"):
        tr.run_strategies(path, params, ["morozov"], noise_norm=math.inf)


def test_run_strategies_refuses_a_path_over_other_lambdas():
    # each objective is computed on path.lambdas and the pick read from
    # params.lambdas: on this row, a default-grid path with a zeta0 = 1e-3
    # grid used to return GCV 1.95e-6 where its minimum sits at 1.95e-3
    g = tr.make_grid(101)
    real = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0)
    pen, params = tr.laplace_penalty(50), tr.parameter_grid()
    path = tr.RegularizationPath.from_samples(real.noisy, pen, params.lambdas)
    names = ["morozov", "lcurve", "gcv"]
    with pytest.raises(ValueError, match=r"^the path does not run over params\.lambdas"):
        tr.run_strategies(path, tr.parameter_grid(zeta0=1e-3), names, noise_norm=real.eps_wnorm)
    # an equal grid built apart is the same grid
    reports, _ = tr.run_strategies(path, tr.parameter_grid(), names, noise_norm=real.eps_wnorm)
    assert reports["gcv"].chosen_lambda == tr.select_gcv(real.noisy, pen, params).chosen_lambda
    assert reports["gcv"].chosen_lambda == pytest.approx(1.95e-3, rel=1e-2)


def _first_nonpositive(discrepancy):
    hits = np.flatnonzero(discrepancy <= 0)
    return hits[0] if hits.size else discrepancy.size - 1


# noise 0 leaves F > 0 on the whole grid, so Morozov takes the last index
@pytest.mark.parametrize("zero_noise", [False, True], ids=["crossing", "no-crossing"])
def test_every_report_keeps_the_objective_it_ranked(f1_row, zero_noise):
    """chosen_index is best(objective), and each objective is the path's own
    per-lambda array, bit for bit."""
    g, samples, pen, eps_wnorm = f1_row
    noise = 0.0 if zero_noise else eps_wnorm
    params = tr.parameter_grid()
    path = tr.RegularizationPath.from_samples(samples, pen, params.lambdas)
    truth = tr.uniform_rfft(tr.gallery("f1")(tr.uniform_eval_points(1000)))
    reports, failures = tr.run_strategies(path, params, list(tr.STRATEGIES), noise_norm=noise, truth=truth)
    assert failures == {} and list(reports) == list(tr.STRATEGIES)
    want = {
        "morozov": (path.residual_sq() - noise**2, _first_nonpositive),
        "lcurve": (np.abs(path.curvature()), np.argmax),
        "gcv": (path.gcv(), np.argmin),
        "oracle": (path.l2_error(*truth), np.argmin),
    }
    for name, (objective, best) in want.items():
        assert np.array_equal(reports[name].objective, objective), name
        assert reports[name].chosen_index == best(objective), name
    assert (reports["morozov"].chosen_index == params.t_max - 1) == zero_noise


def test_nan_noise_norm_and_lambda_are_rejected(single_mode):
    g, samples, pen = single_mode
    with pytest.raises(ValueError, match="noise norm must be >= 0"):
        tr.select_morozov(samples, pen, tr.parameter_grid(), math.nan)
    with pytest.raises(ValueError, match="must be >= 0"):
        tr.residual_sq(samples, pen, math.nan)


def test_exhaustion_error_is_a_selection_error():
    assert issubclass(tr.InapplicableStrategyError, tr.SelectionError)


# ---------------------------------------------------------------------------
# GCV
# ---------------------------------------------------------------------------


def test_gcv_trace_hand_value(single_mode):
    # sum over modes of lam*beta^2/(1+lam*beta^2) = 2*(1/2) + 2*(4/5) = 2.6;
    # on an interpolatory grid V = J / trace**2
    g, samples, pen = single_mode
    path = _path(samples, pen, 1.0)
    assert math.sqrt(path.residual_sq()[0] / path.gcv()[0]) == pytest.approx(2.6, rel=1e-14)


def test_gcv_value_hand_value(single_mode):
    g, samples, pen = single_mode
    # numerator (pi/4) over trace 2.6 squared
    assert _path(samples, pen, 1.0).gcv()[0] == pytest.approx((np.pi / 4) / 6.76, rel=1e-13)


def test_gcv_value_matches_explicit_matrices(single_mode):
    """The shortcut equals the defining quotient assembled from matrices."""
    g, samples, pen = single_mode
    lams = (0.3, 1.0, 4.0)
    closed_scores = _path(samples, pen, *lams).gcv()
    mat = tr.basis_matrix(g.nodes, 2)
    w = np.eye(5) * g.weight
    b_sq = np.diag(pen.beta[tr.mode_layout(2)[0]] ** 2)
    for lam, closed in zip(lams, closed_scores):
        gram = mat.T @ w @ mat + lam * b_sq
        alpha = np.linalg.solve(gram, mat.T @ w @ samples)
        resid = np.sqrt(np.diag(w)) * (mat @ alpha - samples)
        smoother = np.sqrt(w) @ mat @ np.linalg.solve(gram, mat.T @ np.sqrt(w))
        explicit = float(resid @ resid) / float(np.trace(np.eye(5) - smoother)) ** 2
        assert closed == pytest.approx(explicit, rel=1e-12)


def test_select_gcv_minimizes_score(single_mode):
    g, samples, pen = single_mode
    rep = tr.select_gcv(samples, pen, tr.parameter_grid())
    assert rep.strategy == "gcv"
    assert rep.chosen_index == int(np.argmin(rep.objective))
    # V = sum (w*c)**2 / (sum w)**2 with w = lam*beta**2/(1 + lam*beta**2)
    c, b_sq = tr.analyze(samples, 2).values, pen.beta[tr.mode_layout(2)[0]] ** 2
    weight = np.outer(rep.lambdas[:5], b_sq) / (1 + np.outer(rep.lambdas[:5], b_sq))
    want = ((weight * c) ** 2).sum(axis=1) / weight.sum(axis=1) ** 2
    assert_allclose(rep.objective[:5], want, rtol=1e-13)


def test_select_gcv_on_a_hyperinterpolation_grid_minimizes_the_explicit_quotient():
    # N = 21 > 2L + 1 = 11: the hat matrix also drops the 10 directions no
    # degree-5 polynomial reaches, so they add N - (2L + 1) to tr(I - H)
    g = tr.make_grid(21)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 21).noisy
    pen, params = tr.laplace_penalty(5), tr.parameter_grid(q=0.5**0.5, t_max=60)
    mat, sqrt_w = tr.basis_matrix(g.nodes, 5), math.sqrt(g.weight)
    explicit = []
    for lam in params.lambdas:
        gram = g.weight * mat.T @ mat + lam * np.diag(pen.beta[tr.mode_layout(5)[0]] ** 2)
        hat = g.weight * mat @ np.linalg.solve(gram, mat.T)
        resid = sqrt_w * (hat @ noisy - noisy)
        explicit.append(float(resid @ resid) / float(np.trace(np.eye(21) - hat)) ** 2)
    rep = tr.select_gcv(noisy, pen, params)
    assert_allclose(rep.objective, explicit, rtol=1e-12)
    assert rep.chosen_index == int(np.argmin(explicit))
    assert 0 < rep.chosen_index < params.t_max - 1


def test_select_gcv_refuses_zero_data():
    with pytest.raises(tr.InapplicableStrategyError, match="zero"):
        tr.select_gcv(np.zeros(5), tr.laplace_penalty(2), tr.parameter_grid())


def test_select_gcv_refuses_constant_data():
    # the penalized coefficients of constant samples are roundoff relics
    with pytest.raises(tr.InapplicableStrategyError, match="zero"):
        tr.select_gcv(np.full(11, 2.5), tr.laplace_penalty(5), tr.parameter_grid())


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_steep_penalty_curvature_is_finite():
    # beta**4 = ell**160 used to overflow in K' and leave every kappa NaN
    g = tr.make_grid(1001)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0).noisy
    pen, params = tr.laplace_penalty(500, 40.0), tr.parameter_grid()
    rep = tr.select_lcurve(noisy, pen, params)
    assert rep.objective.size == 400 and np.isfinite(rep.objective).all()
    path = tr.RegularizationPath.from_samples(noisy, pen, params.lambdas)
    assert np.isfinite(path.curvature()).all() and np.isfinite(path.penalty_sq()).all()


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_selectors_refuse_a_non_finite_objective():
    # argmax and argmin return the first NaN, so these used to pick from it
    g = tr.make_grid(101)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0).noisy
    deep = tr.parameter_grid(q=0.5, t_max=1000)  # down to 9.3e-302: J and the trace underflow
    with pytest.raises(tr.InapplicableStrategyError, match="curvature is not finite at 640 of 1000"):
        tr.select_lcurve(noisy, tr.laplace_penalty(50), deep)
    with pytest.raises(tr.InapplicableStrategyError, match="GCV score is not finite at 447 of 1000"):
        tr.select_gcv(noisy, tr.laplace_penalty(50), deep)
    params = tr.parameter_grid(t_max=10)
    path = tr.RegularizationPath.from_samples(noisy, tr.laplace_penalty(50), params.lambdas)
    truth = (np.full(501, complex(math.nan)), 1000)
    reports, failures = tr.run_strategies(path, params, ["oracle"], truth=truth)
    assert reports == {}
    assert failures["oracle"] == "oracle is inapplicable: the L2 error is not finite at 10 of 10 grid lambdas"


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_lcurve_refuses_an_infinite_curvature():
    # N > 2L + 1 keeps J >= r0 > 0; at lam = 1e-200, B = lam**2 * K' underflows
    # to 0 while A = lam * K > 0, so kappa is +inf, which argmax |kappa| would pick
    g = tr.make_grid(21)
    samples = np.exp(np.cos(g.nodes)) + np.sign(np.sin(g.nodes))
    lambdas = np.array([1e-3, 1e-200])
    path = tr.RegularizationPath.from_samples(samples, tr.laplace_penalty(5), lambdas)
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
    path = tr.RegularizationPath.from_samples(noisy, tr.laplace_penalty(degree, s), tr.parameter_grid().lambdas)
    beta_sq = path.beta_sq[tr.mode_layout(degree)[0]]  # the reference sums mode by mode
    want = ref.path_diagnostics(path.coeffs, beta_sq, path.lambdas, path.r0)
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
    path = tr.RegularizationPath.from_samples(noisy, tr.laplace_penalty(50), lambdas)
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
    approx = tr.solve(noisy, tr.laplace_penalty(50), 1e305)
    assert np.array_equal(approx.values, path.alpha(1e305))


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_penalty_sq_prime_on_lambdas_whose_square_overflows():
    """K' = B/lam/lam: lam**2 overflows above 1.3e154, and K' there is -0.0
    (its limit) or a subnormal, with no overflow warning."""
    g = tr.make_grid(101)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 0).noisy
    lambdas = np.geomspace(1e200, 1.0, 50)
    path = tr.RegularizationPath.from_samples(noisy, tr.laplace_penalty(50), lambdas)
    k_prime = path.penalty_sq_prime()
    assert k_prime[0] == 0.0 and np.all(k_prime <= 0.0)
    with np.errstate(all="ignore"):  # the reference's kappa squares lam
        want = ref.path_diagnostics(path.coeffs, path.beta_sq[tr.mode_layout(50)[0]], lambdas, path.r0)
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
    rep = tr.select_oracle(noisy, pen, params, tr.gallery("f1"), eval_points=2000)
    assert rep.strategy == "oracle"
    assert rep.objective.shape == params.lambdas.shape
    assert rep.chosen_index == int(np.argmin(rep.objective))
    # spot-check the tabulated error curve against the standalone metric
    k = rep.chosen_index
    approx = tr.solve(noisy, pen, params.lambdas[k])
    assert rep.objective[k] == pytest.approx(ref.l2_error(approx, tr.gallery("f1"), 2000), rel=1e-12)


@pytest.mark.parametrize("eval_points", [10000, 2001])
def test_oracle_curve_matches_dense_l2_error(eval_points):
    """The Parseval curve equals the dense metric on even and odd K."""
    g = tr.make_grid(101)
    f = tr.gallery("square")
    noisy = tr.add_noise_snr(f(g.nodes), 30.0, 9).noisy
    pen = tr.laplace_penalty(50)
    params = tr.parameter_grid()
    rep = tr.select_oracle(noisy, pen, params, f, eval_points=eval_points)
    for k in (0, 40, rep.chosen_index, 250, 399):
        approx = tr.solve(noisy, pen, params.lambdas[k])
        dense = ref.l2_error(approx, f, eval_points)
        assert rep.objective[k] == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("eval_points", [1000, 1001])
def test_oracle_reads_an_eval_grid_below_the_degree(eval_points):
    """K < 2L + 1 = 1201: the approximant's modes fold onto their alias.  The
    L2 curve equals the dense metric at every lambda, the oracle picks that
    curve's argmin, and the uniform curve equals the dense maximum."""
    g = tr.make_grid(1201)
    f = tr.gallery("f2")
    noisy = tr.add_noise_snr(f(g.nodes), 30.0, 3).noisy
    pen = tr.laplace_penalty(600)
    params = tr.parameter_grid(q=0.5, t_max=40)
    rep = tr.select_oracle(noisy, pen, params, f, eval_points=eval_points)
    approximants = [tr.solve(noisy, pen, lam) for lam in params.lambdas]
    dense = np.array([ref.l2_error(approx, f, eval_points) for approx in approximants])
    assert_allclose(rep.objective, dense, rtol=1e-12)
    assert rep.chosen_index == int(np.argmin(dense))
    path = tr.RegularizationPath.from_samples(noisy, pen, params.lambdas)
    truth = tr.uniform_rfft(f(tr.uniform_eval_points(eval_points)))
    expected = [ref.uniform_error(approx, f, eval_points) for approx in approximants]
    assert_allclose(tr.uniform_error_curve(path, params.lambdas, *truth), expected, rtol=0, atol=1e-12)


def test_selection_rejects_constant_form_penalty_everywhere(single_mode):
    g, samples, _ = single_mode
    params = tr.parameter_grid(t_max=10)
    for call in (
        lambda: tr.select_lcurve(samples, tr.PenaltySequence(2, np.ones(3)), params),
        lambda: tr.select_morozov(samples, tr.PenaltySequence(2, np.ones(3)), params, 0.1),
        lambda: tr.select_gcv(samples, tr.PenaltySequence(2, np.ones(3)), params),
        lambda: tr.select_oracle(samples, tr.PenaltySequence(2, np.ones(3)), params, np.cos),
        lambda: tr.solve(samples, tr.PenaltySequence(2, np.ones(3)), 0.5),
    ):
        with pytest.raises(ValueError, match="zero weight on the constant mode"):
            call()
