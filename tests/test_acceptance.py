"""Acceptance suite: end-to-end checks of the full pipeline.

Each test prints one PASS line when its criterion holds; under ``pytest -v``
every criterion also appears as its own PASSED/FAILED row.  The heavyweight
N = 501 scenario (degree 250, the full 400-point parameter grid) is shared
through module-scoped fixtures so the suite stays fast.
"""

import math
import time

import numpy as np
import pytest

import reference as ref

import trigreg as tr

SEED = 7
LEVELS = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0)


@pytest.fixture(scope="module")
def big_grid():
    return tr.make_grid(501)


@pytest.fixture(scope="module")
def big_penalty():
    return tr.laplace_penalty(250, 1.0)


@pytest.fixture(scope="module")
def params():
    return tr.parameter_grid()


@pytest.fixture(scope="module")
def noisy_20db(big_grid):
    clean = tr.gallery("f1")(big_grid.nodes)
    return tr.add_noise_snr(clean, 20.0, SEED)


@pytest.fixture(scope="module")
def level_sweep():
    """f1 at N = 501 across 10..80 dB, one master seed, all four strategies."""
    return tr.sweep("f1", 501, snr_levels=LEVELS, seed=SEED)


def test_01_node_inner_products_are_orthonormal():
    """Assembled Gram matrix of the full degree-250 basis on 501 nodes."""
    t0 = time.perf_counter()
    g = tr.make_grid(501)
    mat = tr.basis_matrix(g.nodes, 250)
    gram = g.weight * (mat.T @ mat)
    deviation = float(np.max(np.abs(gram - np.eye(501))))
    elapsed = time.perf_counter() - t0
    assert deviation <= 1e-12
    assert elapsed < 5.0
    print(f"PASS orthonormality: max Gram deviation {deviation:.2e} in {elapsed:.2f}s")


def test_02_zero_lambda_interpolates_noisy_samples():
    """Unregularized fit at N = 2L+1 reproduces the data at the nodes."""
    g = tr.make_grid(101)
    noisy = tr.add_noise_snr(tr.gallery("f2")(g.nodes), 20.0, SEED).noisy
    approx = tr.solve(noisy, g, 50, 0.0, tr.laplace_penalty(50))
    residual = float(np.max(np.abs(approx(g.nodes) - noisy)))
    bound = 1e-8 * float(np.max(np.abs(noisy)))
    assert residual <= bound
    print(f"PASS interpolation: node residual {residual:.2e} <= {bound:.2e}")


def test_04_noiseless_pipeline_reaches_spectral_accuracy():
    """Smooth periodic data is recovered to near machine precision."""
    g = tr.make_grid(31)
    f = tr.gallery("f1")
    approx = tr.solve(f(g.nodes), g, 15, 0.0, tr.laplace_penalty(15))
    err = ref.uniform_error(approx, f, 10000)
    assert err <= 1e-9
    print(f"PASS spectral accuracy: uniform error {err:.2e} <= 1e-09")


def test_05_diagnostics_monotone_with_consistent_derivatives(
    big_grid, big_penalty, params, noisy_20db
):
    """Residual grows and seminorm shrinks in lambda; closed-form derivatives
    agree with central differences and with the exchange identity."""
    noisy = noisy_20db.noisy
    lams = params.lambdas

    path = tr.RegularizationPath.from_samples(noisy, big_grid, 250, big_penalty, lams)
    j_vals, k_vals = path.residual_sq(), path.penalty_sq()
    # lams decreases along the grid, so J must fall and K must rise with it
    assert np.all(np.diff(j_vals) < 0)
    assert np.all(np.diff(k_vals) > 0)

    sampled = lams[(lams >= 1e-6) & (lams <= 1.0)]
    sampled = sampled[np.linspace(0, len(sampled) - 1, 50).astype(int)]
    # one path over every (lam - h, lam, lam + h) triple, h = 5e-4 * lam
    h = 5e-4 * sampled
    stencil = tr.RegularizationPath(
        path.coeffs, path.beta_sq, np.stack([sampled - h, sampled, sampled + h], axis=1).ravel(),
        path.r0, path.n_points,
    )
    j_lo, _, j_hi = stencil.residual_sq().reshape(-1, 3).T
    k_lo, _, k_hi = stencil.penalty_sq().reshape(-1, 3).T
    kp = stencil.penalty_sq_prime()[1::3]
    # J' by the exchange identity J' = -lam*K', against central differences
    # of J; K' against central differences of K
    jp = -sampled * kp
    worst_identity = float(np.max(np.abs(jp - (j_hi - j_lo) / (2 * h)) / np.abs(jp)))
    worst_fd = float(np.max(np.abs(kp - (k_hi - k_lo) / (2 * h)) / np.abs(kp)))
    assert worst_fd <= 1e-6
    assert worst_identity <= 1e-6
    print(
        "PASS diagnostics: monotone J/K, K' vs central difference "
        f"{worst_fd:.2e} <= 1e-06, exchange identity J' = -lam*K' vs central "
        f"difference {worst_identity:.2e} <= 1e-06"
    )


def test_06_discrepancy_principle_root_and_regularity(
    big_grid, big_penalty, params, level_sweep
):
    """Analytic single-mode root; one sign change on real data; the chosen
    lambda never moves the fit further from the raw interpolant than the
    uniform noise bound allows."""
    # (a) for cos x the residual crosses noise^2 = pi/4 exactly at lambda = 1
    g5 = tr.make_grid(5)
    rep = tr.select_morozov(
        np.cos(g5.nodes), g5, 2, tr.laplace_penalty(2), params, math.sqrt(np.pi) / 2
    )
    root_error = abs(rep.chosen_lambda - 1.0)
    assert root_error <= 1e-8

    # (b) on the noisy f1 run the discrepancy has exactly one sign change
    clean = tr.gallery("f1")(big_grid.nodes)
    row20 = level_sweep.rows[1]
    real20 = tr.add_noise_snr(clean, 20.0, row20.row_seed)
    scan = tr.select_morozov(
        real20.noisy, big_grid, 250, big_penalty, params, real20.eps_wnorm, refine=False
    )
    changes = int(np.sum(np.diff(np.sign(scan.discrepancy)) != 0))
    assert changes == 1

    # (c) regularity: at every level the chosen fit stays within
    # sqrt(2*pi*(2L+1)) * sup|eps| of the unregularized fit, uniformly
    x = tr.uniform_eval_points(10000)
    for row in level_sweep.rows:
        real = tr.add_noise_snr(clean, row.snr_db, row.row_seed)
        chosen = tr.solve(real.noisy, big_grid, 250, row.chosen["morozov"], big_penalty)
        raw = tr.solve(real.noisy, big_grid, 250, 0.0, big_penalty)
        drift = float(np.max(np.abs(chosen(x) - raw(x))))
        assert drift <= math.sqrt(2 * np.pi * 501) * real.eps_sup
    print(
        f"PASS discrepancy principle: root error {root_error:.2e} <= 1e-08, "
        f"{changes} sign change, regularity bound at {len(level_sweep.rows)} levels"
    )


@pytest.mark.parametrize("n, degree", [(11, 5), (21, 5), (31, 7), (101, 20)])
def test_07_gcv_closed_form_matches_explicit_matrices(params, n, degree):
    """Shortcut GCV score vs the defining quotient with assembled matrices,
    on interpolation (N = 2L + 1) and hyperinterpolation (N > 2L + 1) grids."""
    g = tr.make_grid(n)
    noisy = tr.add_noise_snr(np.exp(np.cos(g.nodes)), 20.0, 11).noisy
    mat = tr.basis_matrix(g.nodes, degree)
    w = np.eye(n) * g.weight
    worst = 0.0
    # the 20 largest grid values keep the reference trace away from the
    # catastrophic cancellation it suffers for lam*beta^2 << 1 (a limit of
    # the assembled-matrix computation itself, not of the closed form)
    for s in (1.0, 2.0):
        pen = tr.laplace_penalty(degree, s)
        closed_scores = tr.RegularizationPath.from_samples(noisy, g, degree, pen, params.lambdas[:20]).gcv()
        b_sq = np.diag(pen.beta**2)
        for lam, closed in zip(params.lambdas[:20], closed_scores):
            gram = mat.T @ w @ mat + lam * b_sq
            alpha = np.linalg.solve(gram, mat.T @ w @ noisy)
            resid = np.sqrt(np.diag(w)) * (mat @ alpha - noisy)
            smoother = np.sqrt(w) @ mat @ np.linalg.solve(gram, mat.T @ np.sqrt(w))
            explicit = float(resid @ resid) / float(np.trace(np.eye(n) - smoother)) ** 2
            worst = max(worst, abs(closed - explicit) / explicit)
    assert worst <= 1e-12
    print(f"PASS gcv at N={n}, L={degree}: closed vs explicit {worst:.2e} <= 1e-12")


def test_08_condition_number_matches_assembled_system(params):
    """The closed-form condition number is the exact ratio of the extreme
    assembled diagonal entries, and never decreases with lambda."""
    pen = tr.laplace_penalty(5, 1.0)
    for lam in params.lambdas:
        diag = 1.0 + lam * pen.beta**2
        assert tr.condition_number(lam, pen) == float(diag.max() / diag.min())
    ordered = [tr.condition_number(l, pen) for l in params.lambdas[::-1]]
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))
    print("PASS conditioning: exact match on all 400 lambdas, monotone in lambda")


def test_09_denoising_beats_raw_fit_within_oracle_factor():
    """Every automatic strategy lands in the useful part of the U-shaped
    error curve on the noisy f1 benchmark."""
    t0 = time.perf_counter()
    report = tr.sweep("f1", 501, snr_levels=(20.0,), seed=SEED, emit_curves=True)
    elapsed = time.perf_counter() - t0
    row = report.rows[0]
    l2_curve, _ = row.curve
    floor_error = l2_curve[-1]  # near-zero regularization
    oracle_error = row.l2["oracle"]
    for name in ("oracle", "lcurve", "morozov", "gcv"):
        assert row.l2[name] <= floor_error
        assert row.l2[name] <= 5.0 * oracle_error
    interior_min = int(np.argmin(l2_curve))
    assert 0 < interior_min < len(l2_curve) - 1
    assert elapsed < 30.0
    ratios = ", ".join(f"{n}={row.l2[n] / oracle_error:.2f}x" for n in row.l2)
    print(
        f"PASS denoising: all strategies <= raw-fit error {floor_error:.3e}, "
        f"oracle ratios {ratios}, U-shape minimum at index {interior_min}, {elapsed:.1f}s"
    )


def test_10_chosen_lambda_tracks_noise_level(big_grid, big_penalty, params, level_sweep):
    """More signal-to-noise means weaker smoothing: the discrepancy choice
    decays monotonically (within one grid step) and every strategy keeps
    producing an in-grid choice with full diagnostics."""
    indices = [row.chosen_index["morozov"] for row in level_sweep.rows]
    # lambda nonincreasing within one grid step == index nondecreasing - 1
    assert all(b >= a - 1 for a, b in zip(indices, indices[1:]))
    assert level_sweep.rows[-1].chosen["morozov"] <= 1e-4

    lo, hi = params.lambdas[-1], params.lambdas[0]
    for row in level_sweep.rows:
        assert row.messages == {}
        for name in ("oracle", "lcurve", "morozov", "gcv"):
            assert row.chosen[name] is not None
            assert lo <= row.chosen[name] <= hi

    # one direct run per strategy to confirm the diagnostics all come out
    clean = tr.gallery("f1")(big_grid.nodes)
    row20 = level_sweep.rows[1]
    real = tr.add_noise_snr(clean, 20.0, row20.row_seed)
    mor = tr.select_morozov(
        real.noisy, big_grid, 250, big_penalty, params, real.eps_wnorm, refine=False
    )
    lcu = tr.select_lcurve(real.noisy, big_grid, 250, big_penalty, params)
    gcv = tr.select_gcv(real.noisy, big_grid, 250, big_penalty, params)
    ora = tr.select_oracle(
        real.noisy, big_grid, 250, big_penalty, params, tr.gallery("f1"), eval_points=2000
    )
    for arr in (
        mor.residual_sq, mor.discrepancy,
        lcu.residual_sq, lcu.penalty_sq, lcu.curvature,
        gcv.gcv, ora.l2_error,
    ):
        assert arr is not None and arr.shape == params.lambdas.shape
        assert np.all(np.isfinite(arr))
    lam80 = level_sweep.rows[-1].chosen["morozov"]
    print(
        f"PASS noise tracking: discrepancy lambda nonincreasing across "
        f"{len(indices)} levels, lambda(80 dB) = {lam80:.3e} <= 1e-04, "
        "full diagnostics emitted for all strategies"
    )
