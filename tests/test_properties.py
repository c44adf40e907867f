"""Invariances of the selection rules that the maths guarantees, as seeded loops.

The L-curve and GCV read the samples only through |c|**2 of the penalized
modes (J, K, K' and the GCV score), so their picks cannot move when

* a constant is added: only the unpenalized constant mode changes;
* the samples are scaled: J, K and the GCV score scale by the square, and
  the curvature of the log-log L-curve not at all;
* the samples are rolled circularly along the nodes or reflected (x -> -x):
  each (cos, sin) pair of frequency ell turns by an angle or flips its sine,
  which keeps c(ell,1)**2 + c(ell,2)**2.

Morozov compares J with the squared noise norm, so scaling the samples and
the noise norm together cannot move its pick either.

Cases: every gallery signal x N in {101, 501} x three SNR levels, first at
the interpolatory degree L = (N - 1)/2 and then at a lower one, (N, L) =
(101, 40) and (501, 200): hyperinterpolation, N > 2L + 1, where the
remainder r0 = ||f - P_L f||**2 of the samples is positive.  The same
transforms keep r0 or scale it with J.  There r0 may exceed the squared
noise norm, and Morozov is then inapplicable; so a hyperinterpolation case
must keep its set of failed strategies as well as its picks, while an
interpolatory one has no failure.
"""

import numpy as np
import pytest

import trigreg as tr

INTERPOLATION = [(101, 50), (501, 250)]
HYPERINTERPOLATION = [(101, 40), (501, 200)]
CASES = [
    (name, n, degree, snr)
    for sizes in (INTERPOLATION, HYPERINTERPOLATION)
    for name in tr.gallery_names()
    for n, degree in sizes
    for snr in (10.0, 40.0, 70.0)
]

TRANSFORMS = {
    "shift": lambda y: y + 3.0,
    "scale": lambda y: 7.0 * y,
    "roll": lambda y: np.roll(y, y.size // 3),
    # -x_j is node N - j (mod N), so node 0 stays where it is
    "reflect": lambda y: np.roll(y[::-1], 1),
}


def _problem(name, n, degree, snr, seed):
    noisy = tr.add_noise_snr(tr.gallery(name)(tr.make_grid(n).nodes), snr, seed)
    return tr.laplace_penalty(degree), noisy


def _picks(samples, pen, params, names, **inputs):
    """Each strategy's chosen index, and the names of those that failed:
    none at N = 2L + 1."""
    path = tr.RegularizationPath.from_samples(samples, pen, params.lambdas)
    reports, failures = tr.run_strategies(path, params, names, **inputs)
    if samples.size == 2 * pen.degree + 1:
        assert failures == {}
    return {name: report.chosen_index for name, report in reports.items()}, sorted(failures)


@pytest.fixture(scope="module")
def base_picks():
    params = tr.parameter_grid()
    out = {}
    for seed, case in enumerate(CASES):
        pen, noisy = _problem(*case, seed)
        out[case] = (noisy.noisy, _picks(noisy.noisy, pen, params, ("lcurve", "gcv")))
    return out


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_lcurve_and_gcv_picks_are_invariant(base_picks, transform):
    params = tr.parameter_grid()
    moved = []
    for (name, n, degree, snr), (samples, want) in base_picks.items():
        got = _picks(TRANSFORMS[transform](samples), tr.laplace_penalty(degree), params, ("lcurve", "gcv"))
        if got != want:
            moved.append((name, n, degree, snr, want, got))
    assert moved == []


def test_morozov_pick_is_invariant_under_joint_scaling():
    params = tr.parameter_grid()
    moved = []
    for seed, case in enumerate(CASES):
        pen, noisy = _problem(*case, seed)
        picks = [
            _picks(factor * noisy.noisy, pen, params, ("morozov",),
                   noise_norm=factor * noisy.eps_wnorm, refine=False)
            for factor in (1.0, 7.0, 1e-3)
        ]
        if picks[1] != picks[0] or picks[2] != picks[0]:
            moved.append((case, picks))
    assert moved == []

