"""Penalization sequences."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trigreg as tr


def test_laplace_weights_default_exponent():
    pen = tr.laplace_penalty(2)
    assert pen.degree == 2
    assert_allclose(pen.beta, [0.0, 1.0, 2.0])


def test_laplace_weights_follow_mode_degree_power():
    pen = tr.laplace_penalty(3, s=2.0)
    assert_allclose(pen.beta, [0.0, 1.0, 4.0, 9.0])


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


def test_laplace_refuses_an_overflowing_top_weight():
    # every consumer squares beta: 500**(2*57) is a float, 500**(2*58) is not
    assert np.isfinite(tr.laplace_penalty(500, 57.0).beta[-1] ** 2)
    with pytest.raises(ValueError, match=r"s = 58.0 is too steep for degree 500: .* 500\*\*\(2\*s\)"):
        tr.laplace_penalty(500, 58.0)


def test_beta_arrays_are_read_only():
    with pytest.raises(ValueError):
        tr.laplace_penalty(3).beta[0] = 9.9



# ---------------------------------------------------------------------------
# the PenaltySequence constructor: one weight per frequency, or a ValueError
# ---------------------------------------------------------------------------


def test_hand_built_penalty_matches_laplace():
    weights = np.array([0, 1, 2])
    pen = tr.PenaltySequence(2, weights)
    weights[2] = 7  # the sequence keeps its own read-only float copy
    assert pen.beta.dtype == float and not pen.beta.flags.writeable
    assert_allclose(pen.beta, tr.laplace_penalty(2).beta, rtol=0, atol=0)
    g = tr.make_grid(5)
    samples = np.cos(g.nodes) + np.sin(2 * g.nodes)
    assert np.array_equal(tr.solve(samples, pen, 0.7).values,
                          tr.solve(samples, tr.laplace_penalty(2), 0.7).values)


@pytest.mark.parametrize("beta", [
    np.array([0.0, 1.0]),  # too short: a consumer would index past its end
    np.array([0.0, 1.0, 1.0, 2.0, 2.0]),  # per mode: read per frequency, it would misplace weights
    np.zeros((3, 1)),
], ids=["short", "per-mode", "2-d"])
def test_wrong_weight_count_is_refused(beta):
    with pytest.raises(ValueError, match=r"degree \+ 1 = 3 weights, one per frequency, got degree 2 and shape"):
        tr.PenaltySequence(2, beta)


def test_negative_degree_is_refused():
    with pytest.raises(ValueError, match="needs degree >= 0"):
        tr.PenaltySequence(-1, np.zeros(0))


def test_constant_mode_weight_is_refused():
    # the constant mode is never shrunk, so no solve, selector or bound checks beta[0]
    with pytest.raises(ValueError, match=r"zero weight on the constant mode, got beta\[0\] = 1.0$"):
        tr.PenaltySequence(2, np.ones(3))


@pytest.mark.parametrize("bad, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-1.0, "-1.0"), (1e155, "1e\\+155"),
])
def test_negative_or_non_finite_weight_is_refused(bad, shown):
    beta = np.array([0.0, 1.0, 2.0])
    beta[1] = bad
    with pytest.raises(ValueError, match=rf"weights must be >= 0 with a finite square, got beta\[1\] = {shown}$"):
        tr.PenaltySequence(2, beta)
