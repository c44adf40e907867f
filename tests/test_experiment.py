"""Noise generation, error metrics, the function gallery, and the sweep harness."""

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference as ref

import trigreg as tr
from trigreg import experiment


# ---------------------------------------------------------------------------
# noise by target SNR
# ---------------------------------------------------------------------------


def test_noise_is_reproducible():
    clean = np.exp(np.cos(tr.make_grid(51).nodes))
    a = tr.add_noise_snr(clean, 20.0, 123)
    b = tr.add_noise_snr(clean, 20.0, 123)
    assert_allclose(a.noisy, b.noisy, rtol=0, atol=0)
    c = tr.add_noise_snr(clean, 20.0, 124)
    assert not np.allclose(a.noisy, c.noisy)


def test_noise_hits_target_snr():
    """The amplitude scale is chosen so the RMS ratio equals the requested level."""
    g = tr.make_grid(101)
    clean = np.exp(np.cos(g.nodes))
    for snr in (10.0, 40.0, 80.0):
        real = tr.add_noise_snr(clean, snr, 9)
        p_signal = np.sqrt(np.mean(clean**2))
        p_noise = np.std(real.epsilon / real.alpha_scale)
        achieved = 10 * np.log10(p_signal / (real.alpha_scale * p_noise))
        assert achieved == pytest.approx(snr, abs=1e-10)


def test_noise_fields_are_consistent():
    g = tr.make_grid(51)
    clean = np.sin(g.nodes)
    real = tr.add_noise_snr(clean, 30.0, 2)
    assert real.snr_db == 30.0
    assert real.seed == 2
    assert_allclose(real.clean + real.epsilon, real.noisy, rtol=0, atol=0)
    assert real.eps_sup == np.max(np.abs(real.epsilon))
    assert real.eps_wnorm == pytest.approx(tr.weighted_norm(real.epsilon, g), rel=1e-14)


def test_noise_uses_seeded_generator_convention():
    # epsilon is the alpha scale times a standard normal draw from the seed
    clean = np.exp(np.cos(tr.make_grid(21).nodes))
    real = tr.add_noise_snr(clean, 25.0, 77)
    raw = np.random.default_rng(77).standard_normal(21)
    assert_allclose(real.epsilon, real.alpha_scale * raw, rtol=1e-14)


def test_higher_snr_means_smaller_noise():
    clean = np.exp(np.cos(tr.make_grid(51).nodes))
    sups = [tr.add_noise_snr(clean, snr, 5).eps_sup for snr in (10, 30, 50, 70)]
    assert all(a > b for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def test_error_metrics_on_zero_approximant():
    g = tr.make_grid(7)
    zero = tr.solve(np.zeros(7), g, 3, 0.0, tr.laplace_penalty(3))
    # ||0 - sin||_2 over the circle is sqrt(pi); sup is 1 (the dense
    # reference metrics the library's error curves are checked against)
    assert ref.l2_error(zero, np.sin) == pytest.approx(math.sqrt(np.pi), rel=1e-6)
    assert ref.uniform_error(zero, np.sin) == pytest.approx(1.0, rel=1e-6)
    path = tr.RegularizationPath.from_samples(np.zeros(7), g, 3, tr.laplace_penalty(3), np.zeros(1))
    sine = np.sin(tr.uniform_eval_points(10000))
    assert path.l2_error(*tr.uniform_rfft(sine))[0] == pytest.approx(math.sqrt(np.pi), rel=1e-6)
    assert tr.uniform_error_curve(path, path.lambdas, np.fft.rfft(sine), 10000)[0] == pytest.approx(
        1.0, rel=1e-6
    )


def test_error_metrics_validate_resolution():
    g = tr.make_grid(7)
    with pytest.raises(ValueError, match=">= 1000"):
        tr.select_oracle(np.zeros(7), g, 3, tr.laplace_penalty(3), tr.parameter_grid(t_max=5),
                         np.sin, eval_points=999)


@pytest.mark.parametrize("k", [1, 2, 7, 8, 60, 77, 1000])
def test_error_curves_read_any_eval_grid(k):
    """Below K = 2L + 1 = 101 the modes fold onto their alias (even K onto a
    Nyquist bin too); both curves equal a basis-matrix evaluation of p - f."""
    g = tr.make_grid(101)
    func = tr.gallery("f2")
    noisy = tr.add_noise_snr(func(g.nodes), 20.0, 5).noisy
    lambdas = tr.parameter_grid(q=0.5, t_max=20).lambdas
    path = tr.RegularizationPath.from_samples(noisy, g, 50, tr.laplace_penalty(50), lambdas)
    x = tr.uniform_eval_points(k)
    diff = tr.basis_matrix(x, 50) @ path.alpha() - func(x)[:, None]
    truth = tr.uniform_rfft(func(x))
    assert_allclose(path.l2_error(*truth), np.sqrt(2 * np.pi / k * np.sum(diff**2, axis=0)),
                    rtol=0, atol=1e-12)
    assert_allclose(tr.uniform_error_curve(path, lambdas, *truth), np.abs(diff).max(axis=0),
                    rtol=0, atol=1e-12)


def test_perfect_reconstruction_has_tiny_error():
    g = tr.make_grid(31)
    f = tr.gallery("f1")
    path = tr.RegularizationPath.from_samples(f(g.nodes), g, 15, tr.laplace_penalty(15), np.zeros(1))
    truth = f(tr.uniform_eval_points(10000))
    assert path.l2_error(*tr.uniform_rfft(truth))[0] < 1e-12
    assert tr.uniform_error_curve(path, path.lambdas, np.fft.rfft(truth), 10000)[0] < 1e-12


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def test_gallery_names_sorted_and_complete():
    assert tr.gallery_names() == ["f1", "f2", "sawtooth", "sine", "square", "triangle"]


def test_gallery_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="f1, f2, sawtooth"):
        tr.gallery("lorentzian")


@pytest.mark.parametrize(
    "name, x, value",
    [
        ("f1", 0.0, math.e),
        ("f1", np.pi / 2, 1.0),
        ("sine", np.pi / 2, 1.0),
        ("square", 0.5, 1.0),
        ("square", -0.5, -1.0),
        ("triangle", np.pi / 2, 1.0),
        ("sawtooth", 0.0, 0.0),
    ],
)
def test_gallery_point_values(name, x, value):
    assert tr.gallery(name)(np.array([x]))[0] == pytest.approx(value, abs=1e-12)


def test_f2_is_f1_plus_high_frequency():
    x = np.linspace(-np.pi, np.pi, 64)
    assert_allclose(tr.gallery("f2")(x), tr.gallery("f1")(x) + np.sin(30 * x), atol=1e-14)


def test_sawtooth_is_periodic_ramp():
    x = np.array([-np.pi, -np.pi / 2, 0.0, np.pi - 1e-9])
    assert_allclose(tr.gallery("sawtooth")(x), [-1.0, -0.5, 0.0, 1.0], atol=1e-8)


def test_square_matches_sign_of_sine():
    x = np.linspace(-np.pi, np.pi, 257)
    assert_allclose(tr.gallery("square")(x), np.sign(np.sin(x)))


# ---------------------------------------------------------------------------
# delayed-mean smoothing operator
# ---------------------------------------------------------------------------


def test_filter_taper_values():
    assert tr.vallee_poussin_filter(0, 4) == 1.0
    assert tr.vallee_poussin_filter(4, 4) == 1.0
    assert tr.vallee_poussin_filter(6, 4) == 0.5
    assert tr.vallee_poussin_filter(7, 4) == 0.25
    assert tr.vallee_poussin_filter(8, 4) == 0.0
    assert tr.vallee_poussin_filter(100, 4) == 0.0


def test_vp_reproduces_low_degree_polynomials():
    """Frequencies at or below n pass through the taper untouched."""
    out = tr.vallee_poussin(lambda x: np.cos(2 * x) - 3.0, 4, 17)
    x = tr.uniform_eval_points(2000)
    assert np.max(np.abs(out(x) - (np.cos(2 * x) - 3.0))) < 1e-12


def test_vp_output_degree_and_taper():
    out = tr.vallee_poussin(lambda x: np.sin(6 * x), 4, 17)
    assert out.degree == 7
    # the surviving coefficient is the taper value times sqrt(pi)
    ells, branches = tr.mode_layout(out.degree)
    sine6 = out.values[(ells == 6) & (branches == 2)]
    assert sine6 == pytest.approx([0.5 * math.sqrt(np.pi)], rel=1e-12)


def test_vp_quadrature_validation():
    with pytest.raises(ValueError, match="quad_points >= 9"):
        tr.vallee_poussin(np.cos, 2, 7)
    with pytest.raises(ValueError, match="odd integer"):
        tr.vallee_poussin(np.cos, 2, 10)


def test_vp_sup_norm_is_uniformly_controlled():
    # the delayed mean never amplifies the sup norm by more than 3
    x = tr.uniform_eval_points(4096)
    for name in tr.gallery_names():
        f = tr.gallery(name)
        out = tr.vallee_poussin(f, 8, 64 * 4 + 1)
        assert np.max(np.abs(out(x))) <= 3.0 * np.max(np.abs(f(x)))


# ---------------------------------------------------------------------------
# sweep harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_sweep():
    return tr.sweep("f1", 51, snr_levels=(20.0, 40.0), seed=3, eval_points=2000)


def test_sweep_report_shape(small_sweep):
    lambdas = tr.parameter_grid().lambdas
    assert isinstance(small_sweep, tuple)
    assert [row.snr_db for row in small_sweep] == [20.0, 40.0]
    for row in small_sweep:
        assert list(row.reports) == ["morozov", "lcurve", "gcv", "oracle"]
        assert row.failures == {}
        assert row.l2.keys() == row.uniform.keys() == row.reports.keys()
        for name, report in row.reports.items():
            assert report.strategy == name
            assert lambdas[-1] <= report.chosen_lambda <= lambdas[0]
            assert row.l2[name] > 0
            assert row.uniform[name] > 0


def test_sweep_is_reproducible(small_sweep):
    again = tr.sweep("f1", 51, snr_levels=(20.0, 40.0), seed=3, eval_points=2000)
    for row, row2 in zip(small_sweep, again):
        assert row.row_seed == row2.row_seed
        for name, report in row.reports.items():
            assert report.chosen_lambda == row2.reports[name].chosen_lambda
        assert row.l2 == row2.l2


def test_sweep_rows_use_distinct_derived_seeds(small_sweep):
    seeds = [row.row_seed for row in small_sweep]
    assert len(set(seeds)) == len(seeds)
    other = tr.sweep("f1", 51, snr_levels=(20.0,), seed=4, eval_points=2000)
    assert other[0].row_seed != seeds[0]


def test_sweep_morozov_choice_stays_on_grid(small_sweep):
    for row in small_sweep:
        report = row.reports["morozov"]
        assert not report.refined
        assert report.chosen_lambda == tr.parameter_grid().lambdas[report.chosen_index]


def test_sweep_rows_match_the_selectors():
    """Every sweep pick equals the select_* pick on the same realization."""
    func = tr.gallery("sawtooth")
    rows = tr.sweep(func, 51, snr_levels=(10.0, 40.0, 70.0), seed=5, eval_points=2000)
    g, degree = tr.make_grid(51), 25
    pen, params = tr.laplace_penalty(degree), tr.parameter_grid()
    clean = func(g.nodes)
    for row in rows:
        noisy = tr.add_noise_snr(clean, row.snr_db, row.row_seed)
        y = noisy.noisy
        expected = {
            "morozov": tr.select_morozov(y, g, degree, pen, params, noisy.eps_wnorm, refine=False),
            "lcurve": tr.select_lcurve(y, g, degree, pen, params),
            "gcv": tr.select_gcv(y, g, degree, pen, params),
            "oracle": tr.select_oracle(y, g, degree, pen, params, func, 2000),
        }
        for name, report in expected.items():
            assert row.reports[name].chosen_index == report.chosen_index, (row.snr_db, name)


def test_sweep_accepts_callable_and_subset_of_strategies():
    rows = tr.sweep(
        np.cos, 21, snr_levels=(30.0,), strategies=("oracle",), seed=1, eval_points=1000
    )
    assert list(rows[0].reports) == ["oracle"]


def test_sweep_emit_curves_shapes():
    rows = tr.sweep(
        "f1", 21, snr_levels=(20.0,), seed=2, eval_points=1000, emit_curves=True,
        params=tr.parameter_grid(t_max=50),
    )
    l2_curve, uniform_curve = rows[0].curve
    assert l2_curve.shape == (50,)
    assert uniform_curve.shape == (50,)
    # the oracle row is the argmin of the emitted curve
    assert rows[0].reports["oracle"].chosen_index == int(np.argmin(l2_curve))


def _sweep_path(func, n, params, row):
    """The regularization path ``sweep`` built for ``row`` on n points (default s)."""
    grid, degree = tr.make_grid(n), (n - 1) // 2
    noisy = tr.add_noise_snr(func(grid.nodes), row.snr_db, row.row_seed).noisy
    return tr.RegularizationPath.from_samples(
        noisy, grid, degree, tr.laplace_penalty(degree), params.lambdas
    )


@pytest.mark.parametrize("name", tr.gallery_names())
@pytest.mark.parametrize("k", [1000, 1001])
def test_sweep_uniform_curve_matches_dense_evaluation(name, k):
    # an independent reference: every p_lam on the K points from one GEMM
    # with the basis matrix, minus f, max-abs per column; T = 100 is no
    # multiple of the sweep's block of lambdas, so the last block is partial
    func = tr.gallery(name)
    params = tr.parameter_grid(t_max=100)
    rows = tr.sweep(name, 101, snr_levels=(20.0, 60.0), eval_points=k, emit_curves=True,
                    params=params)
    x = tr.uniform_eval_points(k)
    basis = tr.basis_matrix(x, 50)
    for row in rows:
        diff = basis @ _sweep_path(func, 101, params, row).alpha() - func(x)[:, None]
        assert_allclose(row.curve[1], np.abs(diff).max(axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", tr.gallery_names())
def test_sweep_uniform_at_chosen_equals_the_curve(name):
    levels = (10.0, 50.0, 80.0)
    curves = tr.sweep(name, 101, snr_levels=levels, emit_curves=True)
    chosen = tr.sweep(name, 101, snr_levels=levels)
    for with_curve, row in zip(curves, chosen):
        assert row.curve is None
        for strategy, report in row.reports.items():
            assert row.uniform[strategy] == with_curve.curve[1][report.chosen_index]


def test_sweep_takes_the_truth_from_one_rfft(monkeypatch):
    """One rfft per row (its samples) and one of the truth, whose spectrum
    both curves read; the curves equal those built from a separate
    uniform_rfft."""
    rfft, calls = np.fft.rfft, []

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    levels = (10.0, 40.0, 70.0)
    rows = tr.sweep("f1", 101, snr_levels=levels, emit_curves=True)
    assert sorted(calls) == [101] * len(levels) + [10000]
    monkeypatch.undo()
    truth = tr.gallery("f1")(tr.uniform_eval_points(10000))
    spectrum, k = tr.uniform_rfft(truth)
    for row in rows:
        path = _sweep_path(tr.gallery("f1"), 101, tr.parameter_grid(), row)
        assert np.array_equal(row.curve[0], path.l2_error(spectrum, k))
        assert np.array_equal(row.curve[1], tr.uniform_error_curve(path, path.lambdas, spectrum, k))


def test_sweep_refuses_an_evaluation_grid_below_the_floor():
    # it used to return rows measured on 999 points, which select_oracle refuses
    with pytest.raises(ValueError, match="^eval_points must be >= 1000, got 999$"):
        tr.sweep("f1", 21, snr_levels=(20.0,), eval_points=999)


def test_sweep_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strateg"):
        tr.sweep("f1", 21, snr_levels=(20.0,), strategies=("ridge",), seed=1)


def test_sweep_rows_keep_what_run_strategies_returned(monkeypatch):
    # the sine's noise norm at -20 dB exceeds its centered norm, so Morozov fails
    returned, run_strategies = [], experiment.run_strategies

    def recorded(*args, **kwargs):
        returned.append(run_strategies(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(experiment, "run_strategies", recorded)
    rows = tr.sweep("sine", 21, snr_levels=(-20.0, 20.0), eval_points=1000)
    assert len(rows) == len(returned) == 2
    for row, (reports, failures) in zip(rows, returned):
        assert row.reports is reports and row.failures is failures
        assert row.l2.keys() == row.uniform.keys() == reports.keys()
    assert list(rows[0].failures) == ["morozov"]
    assert list(rows[0].reports) == ["lcurve", "gcv", "oracle"]
    assert rows[1].failures == {}


def _small_path():
    g = tr.make_grid(21)
    noisy = tr.add_noise_snr(np.exp(np.cos(g.nodes)), 20.0, 0).noisy
    return tr.RegularizationPath.from_samples(noisy, g, 10, tr.laplace_penalty(10), tr.parameter_grid().lambdas)


# one builder per frozen type that holds an ndarray
ARRAY_HOLDING_TYPES = {
    "TrapezoidalGrid": lambda: tr.make_grid(5),
    "FourierCoefficients": lambda: tr.solve(np.ones(5), tr.make_grid(5), 2, 0.1, tr.laplace_penalty(2)),
    "PenaltySequence": lambda: tr.laplace_penalty(3),
    "ParameterGrid": tr.parameter_grid,
    "RegularizationPath": _small_path,
    "SelectionReport": lambda: tr.run_strategies(_small_path(), tr.parameter_grid(), ["gcv"])[0]["gcv"],
    "NoisyRealization": lambda: tr.add_noise_snr(np.ones(5), 20.0, 0),
    "SweepRow": lambda: tr.sweep("f1", 21, snr_levels=(20.0,), eval_points=1000)[0],
}


@pytest.mark.parametrize("name", list(ARRAY_HOLDING_TYPES))
def test_array_holding_types_compare_and_hash_by_identity(name):
    # generated field-wise == and hash raised on the arrays
    first, second = ARRAY_HOLDING_TYPES[name](), ARRAY_HOLDING_TYPES[name]()
    assert type(first).__name__ == name
    assert first == first and {first} == {first}
    assert first != second and len({first, second}) == 2


# ---------------------------------------------------------------------------
# uniform-error curve on several threads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def f1_row():
    """One noisy f1 sweep row: its path at N = 501 and the default 400 lambdas."""
    g, degree = tr.make_grid(501), 250
    lambdas = tr.parameter_grid().lambdas
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 11).noisy
    return tr.RegularizationPath.from_samples(noisy, g, degree, tr.laplace_penalty(degree), lambdas), lambdas


def _f1_spectrum(k):
    return np.fft.rfft(tr.gallery("f1")(tr.uniform_eval_points(k)))


@pytest.mark.parametrize("k", [10_000, 10_001])
def test_uniform_curve_is_bitwise_independent_of_the_core_count(f1_row, k, monkeypatch):
    # 8 and 64 cores (16 workers, one lambda each) run more workers than
    # cores on any host; the short switch interval makes the threads
    # interleave often, so a block written to the wrong slice or lost would
    # show as a difference
    path, lambdas = f1_row
    spectrum = _f1_spectrum(k)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in (0, 1, 7, 16, 17, 400):
            curves = {}
            for cores in (1, 2, 3, 8, 64):
                monkeypatch.setattr(experiment, "_USABLE_CORES", cores)
                curves[cores] = tr.uniform_error_curve(path, lambdas[:t], spectrum, k)
            assert curves[1].shape == (t,)
            for cores, curve in curves.items():
                assert np.array_equal(curve, curves[1]), (t, cores)
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_is_capped_by_cores_and_blocks(monkeypatch):
    monkeypatch.setattr(experiment, "_USABLE_CORES", 3)
    assert [experiment._worker_count(t) for t in (0, 1, 16, 17, 33, 400)] == [1, 1, 1, 2, 3, 3]
    # never more workers than lambdas in flight, so memory stays flat
    monkeypatch.setattr(experiment, "_USABLE_CORES", 64)
    assert [experiment._worker_count(t) for t in (100, 400)] == [7, 16]


@pytest.mark.parametrize("cores", [1, 2])
def test_uniform_curve_matches_dense_reference(cores, monkeypatch):
    # every lambda solved on its own and evaluated point by point
    monkeypatch.setattr(experiment, "_USABLE_CORES", cores)
    g, degree, k = tr.make_grid(21), 10, 10_000
    func, pen = tr.gallery("square"), tr.laplace_penalty(10)
    noisy = tr.add_noise_snr(func(g.nodes), 20.0, 4).noisy
    lambdas = tr.parameter_grid(t_max=40).lambdas
    path = tr.RegularizationPath.from_samples(noisy, g, degree, pen, lambdas)
    curve = tr.uniform_error_curve(path, lambdas, np.fft.rfft(func(tr.uniform_eval_points(k))), k)
    expected = [ref.uniform_error(tr.solve(noisy, g, degree, lam, pen), func, k) for lam in lambdas]
    assert_allclose(curve, expected, rtol=0, atol=1e-12)


def test_one_core_starts_no_helper(f1_row, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(experiment, "_USABLE_CORES", 1)
    monkeypatch.setattr(experiment.threading, "Thread", no_thread)
    path, lambdas = f1_row
    assert np.isfinite(tr.uniform_error_curve(path, lambdas, _f1_spectrum(1001), 1001)).all()


def _irfft_raising(monkeypatch, fails):
    """Make numpy's irfft raise wherever ``fails(call_number)`` is true."""
    irfft, calls = np.fft.irfft, itertools.count(1)

    def flaky(*args, **kwargs):
        if fails(next(calls)):
            raise RuntimeError("irfft failed")
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", flaky)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_irfft_failure_reaches_the_caller(f1_row, cores, monkeypatch):
    monkeypatch.setattr(experiment, "_USABLE_CORES", cores)
    path, lambdas = f1_row
    spectrum = _f1_spectrum(1001)
    _irfft_raising(monkeypatch, lambda call: call == 3)
    with pytest.raises(RuntimeError, match="irfft failed"):
        tr.uniform_error_curve(path, lambdas, spectrum, 1001)
    _irfft_raising(monkeypatch, lambda call: call == 3)  # count afresh
    with pytest.raises(RuntimeError, match="irfft failed"):
        tr.sweep("f1", 101, snr_levels=(20.0,), eval_points=1001, emit_curves=True)


def test_helper_failure_reaches_the_caller(f1_row, monkeypatch):
    # only the helper threads fail; the caller's own share succeeds
    caller = threading.get_ident()
    monkeypatch.setattr(experiment, "_USABLE_CORES", 2)
    _irfft_raising(monkeypatch, lambda call: threading.get_ident() != caller)
    path, lambdas = f1_row
    with pytest.raises(RuntimeError, match="irfft failed"):
        tr.uniform_error_curve(path, lambdas, _f1_spectrum(1001), 1001)


def test_helper_warning_turned_error_reaches_the_caller(f1_row, monkeypatch):
    caller = threading.get_ident()
    irfft = np.fft.irfft

    def warning_irfft(*args, **kwargs):
        if threading.get_ident() != caller:
            warnings.warn("helper warning", RuntimeWarning)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(experiment, "_USABLE_CORES", 2)
    monkeypatch.setattr(np.fft, "irfft", warning_irfft)
    path, lambdas = f1_row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="helper warning"):
            tr.uniform_error_curve(path, lambdas, _f1_spectrum(1001), 1001)


def test_helpers_run_under_the_callers_error_state(f1_row, monkeypatch):
    # an irfft that overflows on the helper thread alone
    caller = threading.get_ident()
    irfft = np.fft.irfft

    def overflowing_irfft(*args, **kwargs):
        if threading.get_ident() != caller:
            np.multiply(np.array([1e305]), 1e305)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(experiment, "_USABLE_CORES", 2)
    monkeypatch.setattr(np.fft, "irfft", overflowing_irfft)
    path, lambdas = f1_row
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            tr.uniform_error_curve(path, lambdas, _f1_spectrum(1001), 1001)


def test_overflowing_lambdas_leave_the_mean(f1_row, monkeypatch):
    # with two workers of 8 lambdas each, lambdas 8-15 are the helper's
    # first block; lam * beta**2 overflows there alone, and s = 0 leaves
    # only the constant mode, as at the largest finite lam * beta**2
    monkeypatch.setattr(experiment, "_USABLE_CORES", 2)
    path, _ = f1_row
    lambdas = np.ones(40)
    lambdas[8:16] = 1e305
    with np.errstate(over="raise", invalid="raise"):
        errors = tr.uniform_error_curve(path, lambdas, _f1_spectrum(1001), 1001)
    mean_only = tr.uniform_error_curve(path, np.array([1e290]), _f1_spectrum(1001), 1001)
    assert np.all(np.isfinite(errors))
    assert_allclose(errors[8:16], mean_only[0], rtol=1e-12)
    assert np.all(errors[:8] == tr.uniform_error_curve(path, np.ones(8), _f1_spectrum(1001), 1001))


def test_package_functions_run_on_the_calling_thread(monkeypatch):
    # the benchmark's tracer keeps one span stack, so every traced function
    # must run on the thread that called sweep; the helpers run numpy alone
    monkeypatch.setattr(experiment, "_USABLE_CORES", 2)
    ran_on, irfft_on = [], []
    wrappers = {}
    for layer in ("approximant", "experiment", "grid", "penalty", "selection"):
        module = importlib.import_module(f"trigreg.{layer}")
        for name in module.__all__:
            func = getattr(module, name)
            if inspect.isfunction(func) and func.__module__ == module.__name__:
                @functools.wraps(func)
                def recorded(*args, __func=func, **kwargs):
                    ran_on.append(threading.get_ident())
                    return __func(*args, **kwargs)

                wrappers[id(func)] = recorded
    for modname, module in list(sys.modules.items()):
        if module is not None and (modname == "trigreg" or modname.startswith("trigreg.")):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    irfft = np.fft.irfft

    def recorded_irfft(*args, **kwargs):
        irfft_on.append(threading.get_ident())
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recorded_irfft)
    tr.sweep("square", 101, emit_curves=True)
    assert ran_on and set(ran_on) == {threading.get_ident()}
    assert set(irfft_on) - {threading.get_ident()}  # the curve did use helper threads
