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

Cases: every gallery signal x N in {101, 501} x three SNR levels.
"""

import numpy as np
import pytest

import trigreg as tr

CASES = [
    (name, n, snr)
    for name in tr.gallery_names()
    for n in (101, 501)
    for snr in (10.0, 40.0, 70.0)
]

TRANSFORMS = {
    "shift": lambda y: y + 3.0,
    "scale": lambda y: 7.0 * y,
    "roll": lambda y: np.roll(y, y.size // 3),
    # -x_j is node N - j (mod N), so node 0 stays where it is
    "reflect": lambda y: np.roll(y[::-1], 1),
}


def _problem(name, n, snr, seed):
    g = tr.make_grid(n)
    degree = (n - 1) // 2
    noisy = tr.add_noise_snr(tr.gallery(name)(g.nodes), snr, seed)
    return g, degree, tr.laplace_penalty(degree), noisy


def _picks(samples, g, degree, pen, params, names, **inputs):
    path = tr.RegularizationPath.from_samples(samples, g, degree, pen, params.lambdas)
    reports, failures = tr.run_strategies(path, params, names, **inputs)
    assert failures == {}
    return {name: report.chosen_index for name, report in reports.items()}


@pytest.fixture(scope="module")
def base_picks():
    params = tr.parameter_grid()
    out = {}
    for seed, case in enumerate(CASES):
        g, degree, pen, noisy = _problem(*case, seed)
        out[case] = (noisy.noisy, _picks(noisy.noisy, g, degree, pen, params, ("lcurve", "gcv")))
    return out


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_lcurve_and_gcv_picks_are_invariant(base_picks, transform):
    params = tr.parameter_grid()
    moved = []
    for (name, n, snr), (samples, want) in base_picks.items():
        g = tr.make_grid(n)
        degree = (n - 1) // 2
        got = _picks(TRANSFORMS[transform](samples), g, degree, tr.laplace_penalty(degree),
                     params, ("lcurve", "gcv"))
        if got != want:
            moved.append((name, n, snr, want, got))
    assert moved == []


def test_morozov_pick_is_invariant_under_joint_scaling():
    params = tr.parameter_grid()
    moved = []
    for seed, case in enumerate(CASES):
        g, degree, pen, noisy = _problem(*case, seed)
        picks = [
            _picks(factor * noisy.noisy, g, degree, pen, params, ("morozov",),
                   noise_norm=factor * noisy.eps_wnorm, refine=False)
            for factor in (1.0, 7.0, 1e-3)
        ]
        if picks[1] != picks[0] or picks[2] != picks[0]:
            moved.append((case, picks))
    assert moved == []
