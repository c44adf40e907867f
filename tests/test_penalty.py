"""Penalization sequences."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trigreg as tr


def test_laplace_weights_default_exponent():
    pen = tr.laplace_penalty(2)
    assert pen.degree == 2
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


def test_laplace_refuses_an_overflowing_top_weight():
    # every consumer squares beta: 500**(2*57) is a float, 500**(2*58) is not
    assert np.isfinite(tr.laplace_penalty(500, 57.0).beta[-1] ** 2)
    with pytest.raises(ValueError, match=r"s = 58.0 is too steep for degree 500: .* 500\*\*\(2\*s\)"):
        tr.laplace_penalty(500, 58.0)


def test_beta_arrays_are_read_only():
    with pytest.raises(ValueError):
        tr.laplace_penalty(3).beta[0] = 9.9

