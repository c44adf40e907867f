"""Penalization sequences and the truncated smoothness norm."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trigreg as tr


def test_laplace_weights_default_exponent():
    pen = tr.laplace_penalty(2)
    assert pen.degree == 2
    assert pen.exponent_s == 1.0
    assert not pen.constant_form
    assert_allclose(pen.beta, [0.0, 1.0, 1.0, 2.0, 2.0])


def test_laplace_weights_follow_mode_degree_power():
    pen = tr.laplace_penalty(3, s=2.0)
    assert_allclose(pen.beta, [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0])


def test_laplace_zero_on_constant_mode_any_exponent():
    for s in (0.5, 1.0, 3.0):
        assert tr.laplace_penalty(4, s).beta[0] == 0.0


def test_laplace_validation():
    with pytest.raises(ValueError, match="s must be > 0"):
        tr.laplace_penalty(2, 0.0)
    with pytest.raises(ValueError, match="s must be > 0, got nan"):
        tr.laplace_penalty(2, float("nan"))
    with pytest.raises(ValueError, match="s must be finite, got inf"):
        tr.laplace_penalty(2, float("inf"))
    with pytest.raises(ValueError, match="degree must be >= 0"):
        tr.laplace_penalty(-1)


def test_constant_penalty_fills_every_mode():
    pen = tr.constant_penalty(2, 1.5)
    assert pen.constant_form
    assert pen.exponent_s is None
    assert_allclose(pen.beta, np.full(5, 1.5))


def test_constant_penalty_rejects_negative():
    with pytest.raises(ValueError, match=">= 0"):
        tr.constant_penalty(2, -0.1)


@pytest.mark.parametrize("value, message", [(math.nan, "must be >= 0, got nan"),
                                            (math.inf, "must be finite, got inf")])
def test_constant_penalty_rejects_non_finite(value, message):
    # a NaN weight used to give all-NaN weights, so solve returned NaN coefficients
    with pytest.raises(ValueError, match=f"constant weight {message}"):
        tr.constant_penalty(2, value)


def test_beta_arrays_are_read_only():
    for pen in (tr.laplace_penalty(3), tr.constant_penalty(3, 2.0)):
        with pytest.raises(ValueError):
            pen.beta[0] = 9.9


def test_smoothness_norm_single_mode():
    """For cos x the weighted norm is just beta(1,1) * sqrt(pi)."""
    g = tr.make_grid(7)
    c = tr.analyze(np.cos(g.nodes), g, 3)
    assert tr.sobolev_norm_truncated(c, tr.laplace_penalty(3, 1.0)) == pytest.approx(
        math.sqrt(np.pi), rel=1e-13
    )
    assert tr.sobolev_norm_truncated(c, tr.laplace_penalty(3, 2.0)) == pytest.approx(
        math.sqrt(np.pi), rel=1e-13
    )


def test_smoothness_norm_ignores_constant_mode():
    g = tr.make_grid(7)
    c = tr.analyze(np.full(7, 4.0), g, 3)
    assert tr.sobolev_norm_truncated(c, tr.laplace_penalty(3)) == pytest.approx(0.0, abs=1e-13)


def test_smoothness_norm_hand_value():
    # beta = [0, 1, 1, 2, 2] against coefficients [5, 3, 0, 0, 4]:
    # sqrt((1*3)^2 + (2*4)^2) = sqrt(73)
    coeffs = tr.FourierCoefficients(
        degree=2, values=np.array([5.0, 3.0, 0.0, 0.0, 4.0]), n_points=5
    )
    assert tr.sobolev_norm_truncated(coeffs, tr.laplace_penalty(2)) == pytest.approx(
        math.sqrt(73.0)
    )
