"""Regularized least-squares solve and stability bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trigreg as tr


@pytest.fixture
def cos_problem():
    g = tr.make_grid(5)
    return g, np.cos(g.nodes), tr.laplace_penalty(2, 1.0)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_shrinks_single_mode(cos_problem):
    """With lam = 1 and unit weight on ell = 1 the cosine mode is halved."""
    g, samples, pen = cos_problem
    approx = tr.solve(samples, pen, 1.0)
    assert approx.values[1] == pytest.approx(math.sqrt(np.pi) / 2, rel=1e-14)
    assert approx(0.0) == pytest.approx(0.5, rel=1e-13)


def test_solve_zero_lambda_interpolates(cos_problem):
    g, samples, pen = cos_problem
    approx = tr.solve(samples, pen, 0.0)
    assert_allclose(approx(g.nodes), samples, atol=1e-13)


def test_solve_validates_lambda(cos_problem):
    g, samples, pen = cos_problem
    with pytest.raises(ValueError, match="must be >= 0"):
        tr.solve(samples, pen, -0.5)


def test_nan_lambda_is_rejected(cos_problem):
    # a NaN compares false with 0 both ways, so a "lam < 0" guard lets it through
    g, samples, pen = cos_problem
    with pytest.raises(ValueError, match="must be >= 0"):
        tr.solve(samples, pen, math.nan)
    with pytest.raises(ValueError, match="must be >= 0"):
        tr.condition_number(math.nan, pen)
    with pytest.raises(ValueError, match="must be >= 0"):
        tr.lebesgue_bound(math.nan, pen)


@pytest.mark.parametrize("lam", [math.inf, -math.inf])
def test_infinite_lambda_is_rejected(cos_problem, lam):
    # inf * beta**2 is NaN on the unpenalized constant mode
    g, samples, pen = cos_problem
    for call in (
        lambda: tr.solve(samples, pen, lam),
        lambda: tr.condition_number(lam, pen),
        lambda: tr.lebesgue_bound(lam, pen),
        lambda: tr.residual_sq(samples, pen, lam),
    ):
        with pytest.raises(ValueError, match="must be (>= 0|finite), got -?inf"):
            call()


def test_zero_data_gives_zero_function():
    approx = tr.solve(np.zeros(7), tr.laplace_penalty(3), 0.1)
    assert np.linalg.norm(approx.values) == 0.0
    assert_allclose(approx(np.linspace(-3, 3, 5)), np.zeros(5))


def test_l2_norm_is_coefficient_norm(cos_problem):
    # orthonormal basis: the continuous norm equals the euclidean alpha norm
    g, samples, pen = cos_problem
    approx = tr.solve(samples, pen, 0.0)
    assert np.linalg.norm(approx.values) == pytest.approx(math.sqrt(np.pi), rel=1e-13)


def test_shrinkage_grows_with_lambda(cos_problem):
    g, samples, pen = cos_problem
    norms = [np.linalg.norm(tr.solve(samples, pen, lam).values) for lam in (0.0, 0.5, 1.0, 4.0)]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_constant_mode_never_shrunk():
    samples = np.full(5, 3.0)
    approx = tr.solve(samples, tr.laplace_penalty(2), 100.0)
    assert_allclose(approx(np.array([0.4, -1.0])), [3.0, 3.0], rtol=1e-13)


def test_evaluate_function_matches_call(cos_problem):
    g, samples, pen = cos_problem
    approx = tr.solve(samples, pen, 0.3)
    x = np.linspace(-np.pi, np.pi, 6)
    assert_allclose(tr.evaluate(approx, x), approx(x))


# ---------------------------------------------------------------------------
# conditioning and stability bounds
# ---------------------------------------------------------------------------


def test_condition_number_hand_value():
    # (1 + lam*beta_max^2)/(1 + lam*beta_min^2) with beta in {0, 1, 2}
    pen = tr.laplace_penalty(2, 1.0)
    assert tr.condition_number(1.0, pen) == 5.0
    assert tr.condition_number(0.0, pen) == 1.0


def test_condition_number_monotone_in_lambda():
    pen = tr.laplace_penalty(4, 1.0)
    lams = np.linspace(0.0, 3.0, 40)
    vals = [tr.condition_number(l, pen) for l in lams]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "degree, lam, expected",
    [
        # 1 + lam^-2 * sum of beta^-4 over the penalized modes
        (2, 1.0, math.sqrt(1 + (1 + 1 + 1 / 16 + 1 / 16))),
        (1, 2.0, math.sqrt(1.5)),
    ],
)
def test_stability_constant_hand_values(degree, lam, expected):
    assert tr.stability_constant(lam, tr.laplace_penalty(degree, 1.0)) == pytest.approx(
        expected, rel=1e-14
    )


def test_stability_constant_requires_positive_lambda():
    with pytest.raises(ValueError, match="needs lam > 0"):
        tr.stability_constant(0.0, tr.laplace_penalty(2))


def test_stability_constant_needs_every_nonconstant_frequency_weighted():
    pen = tr.PenaltySequence(2, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="nonconstant frequency has zero weight"):
        tr.stability_constant(1.0, pen)
    assert tr.lebesgue_bound(0.5, pen) == pytest.approx(1 + 2 * math.sqrt(2) * (1 + 1 / 1.5), rel=1e-14)


def test_stability_constant_rejects_constant_form(cos_problem):
    # a weighted constant mode is refused where the penalty is built, so neither
    # the bound nor the solver can be handed one
    g, samples, _ = cos_problem
    with pytest.raises(ValueError, match=r"zero weight on the constant mode, got beta\[0\] = 1.0$"):
        tr.stability_constant(1.0, tr.PenaltySequence(2, np.ones(3)))
    with pytest.raises(ValueError, match=r"zero weight on the constant mode, got beta\[0\] = 1.0$"):
        tr.solve(samples, tr.PenaltySequence(2, np.ones(3)), 1.0)


@pytest.mark.parametrize(
    "degree, lam, expected",
    [
        (2, 0.0, 1 + 4 * math.sqrt(2)),
        (1, 1.0, 1 + math.sqrt(2)),
    ],
)
def test_lebesgue_bound_hand_values(degree, lam, expected):
    assert tr.lebesgue_bound(lam, tr.laplace_penalty(degree, 1.0)) == pytest.approx(
        expected, rel=1e-14
    )


def test_lebesgue_bound_decreases_with_lambda():
    pen = tr.laplace_penalty(6)
    vals = [tr.lebesgue_bound(l, pen) for l in (0.0, 0.1, 1.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_operator_sup_norm_within_lebesgue_bound():
    """The realized sup of the smoothing operator stays below the bound."""
    pen = tr.laplace_penalty(10)
    rng = np.random.default_rng(17)
    x = tr.uniform_eval_points(4096)
    for lam in (0.0, 0.05, 1.0):
        bound = tr.lebesgue_bound(lam, pen)
        for _ in range(5):
            samples = rng.uniform(-1.0, 1.0, 21)
            approx = tr.solve(samples, pen, lam)
            assert np.max(np.abs(approx(x))) <= bound * np.max(np.abs(samples)) + 1e-12
