"""End-to-end tests of the command-line interface (main() called in process,
and in a fresh interpreter where a test needs python -W error)."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trigreg as tr
from trigreg import cli


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    """Return (metadata dict, header list, data rows as string lists)."""
    meta, header, rows = {}, None, []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def write_samples(path, nodes, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        writer.writerows(zip(nodes, values))


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------


def test_approximate_manual_lambda(tmp_path, capsys):
    code = run_cli(
        "approximate", "--gallery", "f1", "--n", "21", "--lambda", "0.5",
        "--eval-points", "1000", "--output-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("ok command=approximate")
    assert "strategy=manual" in out
    assert "lambda=0.5" in out

    meta, header, rows = read_csv(tmp_path / "coefficients.csv")
    assert header == ["ell", "k", "alpha", "source_coeff"]
    assert len(rows) == 21
    assert meta["command"] == "approximate"
    assert meta["n_points"] == "21"
    assert meta["degree"] == "10"

    # coefficients must match a direct library solve
    g = tr.make_grid(21)
    approx = tr.solve(tr.gallery("f1")(g.nodes), g, 10, 0.5, tr.laplace_penalty(10))
    alpha = np.array([float(r[2]) for r in rows])
    assert_allclose(alpha, approx.alpha, rtol=1e-15)

    _, eval_header, eval_rows = read_csv(tmp_path / "evaluation.csv")
    assert eval_header == ["x", "p"]
    assert len(eval_rows) == 1000
    # manual runs scan nothing, so no diagnostics table is produced
    assert not (tmp_path / "diagnostics.csv").exists()


def test_approximate_with_gcv_strategy(tmp_path, capsys):
    code = run_cli(
        "approximate", "--gallery", "f1", "--n", "21", "--snr-db", "20",
        "--seed", "5", "--strategy", "gcv", "--eval-points", "1000",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "strategy=gcv" in out
    assert "l2_error_vs_truth=" in out
    assert (tmp_path / "diagnostics.csv").exists()

    # the chosen lambda equals a direct strategy run on the same realization
    g = tr.make_grid(21)
    noisy = tr.add_noise_snr(tr.gallery("f1")(g.nodes), 20.0, 5).noisy
    rep = tr.select_gcv(noisy, g, 10, tr.laplace_penalty(10), tr.parameter_grid())
    meta, _, _ = read_csv(tmp_path / "coefficients.csv")
    assert float(meta["chosen_lambda"]) == rep.chosen_lambda


def test_approximate_diagnostics_table_layout(tmp_path):
    run_cli(
        "approximate", "--gallery", "f1", "--n", "11", "--snr-db", "20", "--seed", "1",
        "--strategy", "lcurve", "--eval-points", "1000", "--t-max", "30",
        "--output-dir", str(tmp_path),
    )
    meta, header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header == ["lambda", "J", "K", "kappa", "V", "F"]
    assert len(rows) == 30
    assert meta["t_max"] == "30"
    # the L-curve scan fills J, K and kappa but not V or F
    assert all(r[1] and r[2] and r[3] for r in rows)
    assert all(r[4] == "" and r[5] == "" for r in rows)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("approximate", "--gallery", "f1", "--n", "21", "--snr-db", "10,20"), 2),
        (("approximate", "--gallery", "f1", "--n", "21", "--strategy", "manual"), 2),
        (("approximate", "--gallery", "f1", "--n", "20", "--lambda", "0.1"), 2),
        (("approximate", "--gallery", "f1", "--lambda", "0.1"), 2),
        (("approximate", "--gallery", "unknown", "--n", "21", "--lambda", "0.1"), 2),
        (("approximate", "--gallery", "f1", "--n", "21", "--lambda", "-1.0"), 2),
        (("approximate", "--gallery", "f1", "--n", "21", "--strategy", "all"), 2),
        (("approximate", "--n", "21", "--lambda", "0.1"), 2),
        (("approximate", "--gallery", "f1", "--n", "21", "--snr-db", "abc"), 3),
    ],
)
def test_approximate_config_failures(tmp_path, capsys, argv, code):
    got = run_cli(*argv, "--output-dir", str(tmp_path))
    assert got == code
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("approximate", "--gallery", "f1", "--n", "21", "--strategy", "manual", "--lambda", "nan"),
        ("select", "--gallery", "f1", "--n", "21", "--strategy", "morozov", "--noise-norm", "nan"),
    ],
)
def test_nan_scalar_flag_is_config_error(tmp_path, capsys, argv):
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config-error: {argv[-2]} must be >= 0, got nan")
    assert not (tmp_path / "coefficients.csv").exists()


@pytest.mark.parametrize("value, message", [("inf", "must be finite, got inf"),
                                            ("-inf", "must be >= 0, got -inf")])
def test_infinite_lambda_is_config_error(tmp_path, capsys, value, message):
    argv = ("approximate", "--gallery", "f1", "--n", "21", "--strategy", "manual", f"--lambda={value}")
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(f"error: config-error: --lambda {message}")
    assert not (tmp_path / "coefficients.csv").exists()


def test_infinite_noise_norm_is_config_error(tmp_path, capsys):
    # it used to reach Morozov and exit 5 with "noise assumption violated"
    argv = ("select", "--gallery", "f1", "--n", "21", "--strategy", "morozov", "--noise-norm", "inf")
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: config-error: --noise-norm must be finite, got inf")
    assert not (tmp_path / "chosen.json").exists()


FINITE_MESSAGES = {"inf": "finite, got inf", "nan": "> 0, got nan"}


@pytest.mark.parametrize("flag", ["--zeta0", "--s"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_grid_or_penalty_scalar_is_config_error(tmp_path, capsys, flag, value):
    # --zeta0 inf used to print ok with every lambda inf, --s inf ok with
    # three strategies failed
    argv = ("select", "--gallery", "f1", "--n", "21", "--snr-db", "20", f"{flag}={value}")
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == f"error: config-error: {flag} must be {FINITE_MESSAGES[value]}\n"
    assert not (tmp_path / "chosen.json").exists()


@pytest.mark.parametrize("key", ["zeta0", "s"])
@pytest.mark.parametrize("number", ["1e400", "1" + "0" * 400], ids=["1e400", "400-digit"])
def test_overflowing_config_number_is_config_error(tmp_path, capsys, key, number):
    # JSON reads both as numbers that only a float of inf can hold
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(f'{{"{key}": {number}}}')
    argv = ("select", "--gallery", "f1", "--n", "21", "--snr-db", "20", "--config", str(cfg_path))
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: config-error: --{key} must be finite, got inf\n"
    assert not (tmp_path / "chosen.json").exists()


@pytest.mark.parametrize("flags, message", [
    (("--n", "1001", "--s", "60"), "smoothness exponent s = 60.0 is too steep for degree 500"),
    (("--n", "101", "--q", "0.5", "--t-max", "1100"), "parameter grid underflows: zeta0*q**t_max = 0.0"),
], ids=["penalty", "grid"])
def test_uncomputable_penalty_or_grid_is_config_error(tmp_path, capsys, flags, message):
    # both used to print ok, with picks from NaN or zero-lambda diagnostics
    argv = ("select", "--gallery", "f1", "--snr-db", "20", *flags, "--output-dir", str(tmp_path))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: config-error: {message}")
    assert not (tmp_path / "chosen.json").exists()


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_steep_penalty_gives_a_finite_curvature(tmp_path, capsys):
    # --s 40 used to overflow beta**4 in K' and leave all 400 kappa NaN
    argv = ("select", "--gallery", "f1", "--n", "1001", "--snr-db", "20", "--s", "40",
            "--output-dir", str(tmp_path))
    assert run_cli(*argv, "--strategy", "lcurve") == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_csv(tmp_path / "diagnostics.csv")
    kappa = np.array([float(row[header.index("kappa")]) for row in rows])
    assert kappa.size == 400 and np.isfinite(kappa).all()
    assert run_cli(*argv, "--strategy", "all") == 0
    assert "lambda_lcurve=failed" not in capsys.readouterr().out
    assert sorted(json.loads((tmp_path / "chosen.json").read_text())["chosen"]) == [
        "gcv", "lcurve", "morozov", "oracle"]


@pytest.mark.filterwarnings("error")  # as under python -W error
def test_non_finite_objective_is_a_strategy_failure(tmp_path, capsys):
    # J and the GCV trace underflow to 0 at the smallest lambdas of this grid;
    # it used to print raw RuntimeWarnings, and die under -W error
    argv = ("select", "--gallery", "f1", "--n", "101", "--snr-db", "20", "--q", "0.5",
            "--t-max", "1000", "--output-dir", str(tmp_path))
    assert run_cli(*argv, "--strategy", "lcurve") == 5
    assert capsys.readouterr().err == (
        "error: strategy-error: L-curve is inapplicable: the curvature is not finite "
        "at 640 of 1000 grid lambdas\n"
    )
    assert run_cli(*argv, "--strategy", "all") == 0
    captured = capsys.readouterr()
    assert "lambda_lcurve=failed lambda_gcv=failed" in captured.out
    assert captured.err == ""
    payload = json.loads((tmp_path / "chosen.json").read_text())
    assert "not finite at 447 of 1000" in payload["failed"]["gcv"]
    assert sorted(payload["chosen"]) == ["morozov", "oracle"]


def _run_warnings_as_errors(*argv):
    """``python -W error -m trigreg.cli argv`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", "-m", "trigreg.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("strategy, column", [("lcurve", "kappa"), ("gcv", "V")])
def test_overflowing_lambda_beta_sq_selects_warning_free(tmp_path, strategy, column):
    # lam * beta**2 overflows at the top of this grid: w = inf * 0 used to be
    # NaN there, with raw RuntimeWarnings, exit 5, and a traceback under -W error
    proc = _run_warnings_as_errors(
        "select", "--gallery", "f1", "--n", "101", "--snr-db", "20", "--zeta0", "1e305",
        "--strategy", strategy, "--output-dir", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"ok command=select source=gallery:f1 n=101 lambda_{strategy}=")
    _, header, rows = read_csv(tmp_path / "diagnostics.csv")
    values = np.array([float(row[header.index(column)]) for row in rows])
    assert values.size == 400 and np.isfinite(values).all()


def test_overflowing_manual_lambda_keeps_the_mean_warning_free(tmp_path):
    # the ok line was right (s = 0 leaves the mean), but came after raw
    # RuntimeWarnings, and under -W error the command died with a traceback
    proc = _run_warnings_as_errors(
        "approximate", "--gallery", "f1", "--n", "101", "--strategy", "manual",
        "--lambda", "1e305", "--output-dir", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    fields = dict(part.split("=", 1) for part in proc.stdout.split()[1:])
    assert {key: fields[key] for key in ("command", "source", "n", "degree", "s", "strategy", "lambda")} == {
        "command": "approximate", "source": "gallery:f1", "n": "101", "degree": "50", "s": "1.0",
        "strategy": "manual", "lambda": "1e+305"}
    assert float(fields["max_node_residual"]) == pytest.approx(1.450901387615599, rel=1e-12)
    assert float(fields["l2_error_vs_truth"]) == pytest.approx(2.061939826915823, rel=1e-12)


@pytest.mark.parametrize("prefix, value", [("--lam", "0.1"), ("--out", "o"), ("--eval", "2000")])
def test_flag_prefix_is_config_error(tmp_path, capsys, prefix, value):
    # argparse took a unique prefix for the flag it abbreviates
    argv = ("approximate", "--gallery", "f1", "--n", "21", "--lambda", "0.1",
            "--output-dir", str(tmp_path), prefix, value)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: config-error: unrecognized arguments: {prefix} {value}\n"
    assert not (tmp_path / "coefficients.csv").exists()


def test_approximate_morozov_needs_noise_size(tmp_path, capsys):
    code = run_cli(
        "approximate", "--gallery", "f1", "--n", "21", "--strategy", "morozov",
        "--eval-points", "1000", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "noise size" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CSV sample input
# ---------------------------------------------------------------------------


def test_input_csv_roundtrip(tmp_path, capsys):
    g = tr.make_grid(11)
    values = tr.gallery("f2")(g.nodes)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, values)
    code = run_cli(
        "approximate", "--input", str(path), "--lambda", "0.0",
        "--eval-points", "1000", "--output-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"source=input:{path}" in out
    # lambda = 0 on the interpolatory grid reproduces the samples
    residual = float(out.split("max_node_residual=")[1].split()[0])
    assert residual < 1e-12


def test_input_csv_with_comments_and_header(tmp_path):
    g = tr.make_grid(5)
    path = tmp_path / "samples.csv"
    lines = ["# produced by hand", "x,y"]
    lines += [f"{float(x)!r},{float(y)!r}" for x, y in zip(g.nodes, np.sin(g.nodes))]
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(
        "approximate", "--input", str(path), "--lambda", "0.1",
        "--eval-points", "1000", "--output-dir", str(tmp_path),
    ) == 0


def test_input_csv_even_count_is_grid_error(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    g = tr.make_grid(5)
    write_samples(path, g.nodes[:4], np.sin(g.nodes[:4]))
    code = run_cli("approximate", "--input", str(path), "--lambda", "0.0",
                   "--output-dir", str(tmp_path))
    assert code == 4
    assert "odd number" in capsys.readouterr().err


def test_input_csv_off_grid_nodes_rejected(tmp_path, capsys):
    g = tr.make_grid(5)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes + 0.01, np.sin(g.nodes))
    code = run_cli("approximate", "--input", str(path), "--lambda", "0.0",
                   "--output-dir", str(tmp_path))
    assert code == 4
    assert "equidistant" in capsys.readouterr().err


def test_input_csv_bad_number_reports_location(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("x,y\n0.0,1.0\n0.5,oops\n1.0,2.0\n")
    code = run_cli("approximate", "--input", str(path), "--lambda", "0.0",
                   "--output-dir", str(tmp_path))
    assert code == 3
    assert f"{path}:3" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_input_csv_non_finite_value_is_parse_error(tmp_path, capsys, bad):
    # a NaN sample used to reach the selectors, where argmax/argmin on NaN
    # vectors silently picked grid index 0 and the command exited 0
    g = tr.make_grid(11)
    values = np.sin(g.nodes).astype(object)
    values[4] = bad
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, values)
    code = run_cli("select", "--input", str(path), "--strategy", "lcurve,gcv",
                   "--output-dir", str(tmp_path))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: parse-error:")
    assert f"{path}:6" in err  # header row, then sample 5 on line 6
    assert not (tmp_path / "chosen.json").exists()


def test_input_csv_shuffled_rows_are_grid_error(tmp_path, capsys):
    # rows must follow the node order x_1 < ... < x_N; a permuted file is refused
    g = tr.make_grid(11)
    order = np.random.default_rng(0).permutation(11)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes[order], np.sin(g.nodes)[order])
    code = run_cli("approximate", "--input", str(path), "--lambda", "0.0",
                   "--output-dir", str(tmp_path))
    assert code == 4
    assert "in that order" in capsys.readouterr().err


def test_input_csv_over_long_field_is_parse_error(tmp_path, capsys):
    # the csv module refuses a field over 131072 characters; that is a
    # parse-error naming file and line, not a traceback
    g = tr.make_grid(11)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, np.sin(g.nodes))
    lines = path.read_text().splitlines()
    lines[4] = lines[4].split(",")[0] + ',"' + "1" * 140_000 + '"'
    path.write_text("\n".join(lines) + "\n")
    code = run_cli("approximate", "--input", str(path), "--lambda", "0.1",
                   "--output-dir", str(tmp_path))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse-error: {path}:5: field larger than field limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize("comment_lines", [0, 400], ids=["first-chunk", "past-first-chunk"])
def test_input_csv_not_utf8_is_parse_error_naming_line(tmp_path, capsys, comment_lines):
    # comment lines push the bad byte past the text reader's first decoded chunk
    path = tmp_path / "samples.csv"
    path.write_bytes(b"# padding padding padding padding\n" * comment_lines + b"x,y\n\xff\xfe,1\n")
    code = run_cli("approximate", "--input", str(path), "--lambda", "0.1",
                   "--output-dir", str(tmp_path))
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: parse-error: {path}:{comment_lines + 2}: not UTF-8 text\n"


def test_input_csv_missing_file_is_io_error(tmp_path, capsys):
    code = run_cli("approximate", "--input", str(tmp_path / "absent.csv"),
                   "--lambda", "0.0", "--output-dir", str(tmp_path))
    assert code == 6


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_all_strategies(tmp_path, capsys):
    code = run_cli(
        "select", "--gallery", "f1", "--n", "21", "--snr-db", "20", "--seed", "7",
        "--eval-points", "1000", "--t-max", "100", "--output-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("ok command=select")
    for name in ("morozov", "lcurve", "gcv", "oracle"):
        assert f"lambda_{name}=" in out

    payload = json.loads((tmp_path / "chosen.json").read_text())
    assert set(payload["chosen"]) == {"morozov", "lcurve", "gcv", "oracle"}
    assert "failed" not in payload
    morozov = payload["chosen"]["morozov"]
    assert morozov["assumption_ok"] is True
    assert morozov["refined"] is True
    assert morozov["noise_norm"] > 0
    for entry in payload["chosen"].values():
        assert 1 <= entry["k"] <= 100

    meta, header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header == ["lambda", "J", "K", "kappa", "V", "F"]
    assert len(rows) == 100
    # all strategies ran, so every diagnostic column is populated
    assert all(all(cell != "" for cell in row) for row in rows)
    lams = np.array([float(r[0]) for r in rows])
    assert_allclose(lams, tr.parameter_grid(t_max=100).lambdas, rtol=1e-15)


def test_select_single_strategy_failure_exits_nonzero(tmp_path, capsys):
    g = tr.make_grid(11)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, np.cos(g.nodes))
    code = run_cli(
        "select", "--input", str(path), "--strategy", "morozov",
        "--noise-norm", "100.0", "--output-dir", str(tmp_path),
    )
    assert code == 5
    assert "assumption violated" in capsys.readouterr().err


def test_select_lcurve_on_constant_samples_fails(tmp_path, capsys):
    g = tr.make_grid(11)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, np.full(11, 2.5))
    code = run_cli("select", "--input", str(path), "--strategy", "lcurve",
                   "--output-dir", str(tmp_path))
    assert code == 5
    assert "constant mode" in capsys.readouterr().err


def test_select_gcv_on_constant_samples_fails(tmp_path, capsys):
    g = tr.make_grid(11)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, np.full(11, 2.5))
    code = run_cli("select", "--input", str(path), "--strategy", "gcv",
                   "--output-dir", str(tmp_path))
    assert code == 5
    assert "GCV is inapplicable" in capsys.readouterr().err
    code = run_cli("select", "--input", str(path), "--strategy", "all", "--noise-norm", "0.1",
                   "--output-dir", str(tmp_path))
    assert code == 0
    assert "lambda_gcv=failed" in capsys.readouterr().out
    payload = json.loads((tmp_path / "chosen.json").read_text())
    assert "zero" in payload["failed"]["gcv"]


def test_select_partial_failure_is_recorded_not_fatal(tmp_path, capsys):
    g = tr.make_grid(11)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, np.cos(g.nodes) + 0.3 * np.sin(2 * g.nodes))
    code = run_cli(
        "select", "--input", str(path), "--strategy", "oracle,lcurve",
        "--t-max", "50", "--output-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_oracle=failed" in out
    payload = json.loads((tmp_path / "chosen.json").read_text())
    assert "lcurve" in payload["chosen"]
    assert "oracle" in payload["failed"]
    assert "truth" in payload["failed"]["oracle"]


def test_select_rejects_manual_strategy(tmp_path, capsys):
    code = run_cli("select", "--gallery", "f1", "--n", "11", "--strategy", "manual",
                   "--output-dir", str(tmp_path))
    assert code == 2
    assert "manual" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_report_table(tmp_path, capsys):
    code = run_cli(
        "sweep", "--gallery", "f1", "--n", "21", "--snr-db", "10:30:10",
        "--seed", "3", "--eval-points", "1000", "--t-max", "60",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "levels=3" in out
    assert "failed_cells=0" in out

    meta, header, rows = read_csv(tmp_path / "report.csv")
    assert header == [
        "snr_db",
        "lambda_opt", "lambda_corner", "lambda_mor", "lambda_gcv",
        "l2_opt", "l2_corner", "l2_mor", "l2_gcv",
    ]
    assert [r[0] for r in rows] == ["10.0", "20.0", "30.0"]
    for row in rows:
        assert all(cell != "" for cell in row)
    # reruns are byte-identical
    first = (tmp_path / "report.csv").read_bytes()
    assert run_cli(
        "sweep", "--gallery", "f1", "--n", "21", "--snr-db", "10:30:10",
        "--seed", "3", "--eval-points", "1000", "--t-max", "60",
        "--output-dir", str(tmp_path),
    ) == 0
    assert (tmp_path / "report.csv").read_bytes() == first


def test_sweep_emit_curves(tmp_path, capsys):
    code = run_cli(
        "sweep", "--gallery", "sine", "--n", "11", "--snr-db", "20,40",
        "--seed", "1", "--eval-points", "1000", "--t-max", "40",
        "--emit-curves", "--output-dir", str(tmp_path),
    )
    assert code == 0
    for tag in ("20", "40"):
        meta, header, rows = read_csv(tmp_path / f"curves_{tag}dB.csv")
        assert header == ["lambda", "l2_error", "uniform_error"]
        assert len(rows) == 40
        assert meta["snr_db"] == f"{tag}.0"


def test_sweep_requires_gallery_and_levels(tmp_path, capsys):
    assert run_cli("sweep", "--gallery", "f1", "--n", "21",
                   "--output-dir", str(tmp_path)) == 2
    g = tr.make_grid(5)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, np.sin(g.nodes))
    assert run_cli("sweep", "--input", str(path), "--snr-db", "20",
                   "--output-dir", str(tmp_path)) == 2


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"gallery": "f1", "n": 11, "lambda": 0.25, "eval_points": 1000,
           "output_dir": str(tmp_path)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("approximate", "--config", str(cfg_path), "--n", "21")
    assert code == 0
    meta, _, rows = read_csv(tmp_path / "coefficients.csv")
    assert meta["n_points"] == "21"  # the flag wins over the file
    assert float(meta["chosen_lambda"]) == 0.25
    assert len(rows) == 21


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"gallery": "f1", "n": 11, "alpha": 1.0}))
    assert run_cli("approximate", "--config", str(cfg_path)) == 2
    assert "unknown config key 'alpha'" in capsys.readouterr().err


def test_config_file_invalid_json(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("{not json")
    assert run_cli("approximate", "--config", str(cfg_path)) == 3


def test_config_file_not_utf8_is_parse_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(b'\xff{"n": 21}')
    assert run_cli("approximate", "--config", str(cfg_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse-error: {cfg_path}: not UTF-8 text")
    assert err.count("\n") == 1


def test_config_file_missing(tmp_path, capsys):
    assert run_cli("approximate", "--config", str(tmp_path / "none.json")) == 6


# flag -> (a run it validates in, a flag value, the same value as a config
# file's JSON value, another flag value); one entry per row of cli.OPTIONS
GALLERY_RUN = ("select", "--gallery", "f1", "--n", "21")
OPTION_CASES = {
    "--gallery": (("select", "--n", "21"), "sine", "sine", "f2"),
    "--input": (("select",), "a.csv", "a.csv", "b.csv"),
    "--n": (("select", "--gallery", "f1"), "31", 31, "41"),
    "--strategy": (GALLERY_RUN, "gcv,oracle", "gcv,oracle", "lcurve"),
    "--snr-db": (GALLERY_RUN, "10:30:10", "10:30:10", "20"),
    "--seed": (GALLERY_RUN, "7", 7, "8"),
    "--lambda": (("approximate", "--gallery", "f1", "--n", "21"), "0.25", 0.25, "0.5"),
    "--s": (GALLERY_RUN, "2", 2, "3"),
    "--zeta0": (GALLERY_RUN, "1.5", 1.5, "2"),
    "--q": (GALLERY_RUN, "0.5", 0.5, "0.75"),
    "--t-max": (GALLERY_RUN, "30", 30, "40"),
    "--eval-points": (GALLERY_RUN, "2000", 2000, "3000"),
    "--noise-norm": (GALLERY_RUN, "0.05", 0.05, "0.1"),
    "--output-dir": (GALLERY_RUN, "out", "out", "other"),
    "--emit-curves": (("sweep", "--gallery", "f1", "--n", "21"), None, True, None),
}


def _parsed(argv):
    cfg = vars(cli.build_config(argv))
    cfg.pop("config")
    return cfg


def _config_file(tmp_path, content):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(content))
    return str(path)


def test_option_cases_cover_the_option_table():
    assert list(OPTION_CASES) == [flag for flag, _, _, _ in cli.OPTIONS]


@pytest.mark.parametrize("flag", list(OPTION_CASES))
@pytest.mark.parametrize("separator", ["-", "_"], ids=["dash", "underscore"])
def test_config_value_parses_like_its_flag(tmp_path, flag, separator):
    run, text, value, _ = OPTION_CASES[flag]
    cfg_path = _config_file(tmp_path, {flag[2:].replace("-", separator): value})
    typed = [flag] if text is None else [flag, text]
    assert _parsed([*run, "--config", cfg_path]) == _parsed([*run, *typed])


# a switch has no second value for a typed flag to set
@pytest.mark.parametrize("flag", [flag for flag in OPTION_CASES if flag != "--emit-curves"])
def test_flag_wins_over_config_value(tmp_path, flag):
    run, _, value, other = OPTION_CASES[flag]
    cfg_path = _config_file(tmp_path, {flag[2:]: value})
    assert _parsed([*run, "--config", cfg_path, flag, other]) == _parsed([*run, flag, other])


@pytest.mark.parametrize(
    "content",
    [{"lambda": None}, {"n": [21]}, {"emit_curves": "false"}, {"n": 21.9}, {"seed": True},
     {"lam": 0.1}, {"output_dir": None}, {"snr_db": [20]}],
    ids=json.dumps,
)
def test_bad_config_value_is_one_line_config_error(tmp_path, capsys, content):
    # each of these used to run (or crash with a traceback)
    argv = ("approximate", "--config", _config_file(tmp_path, content), "--gallery", "f1",
            "--n", "21", "--lambda", "0.1", "--eval-points", "1000", "--output-dir", str(tmp_path))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config-error:")
    assert err.count("\n") == 1
    assert not (tmp_path / "coefficients.csv").exists()


def test_bad_flag_value_is_one_line_config_error(tmp_path, capsys):
    assert run_cli("select", "--gallery", "f1", "--n", "abc", "--output-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "error: config-error: argument --n: invalid int value: 'abc'\n"


# ---------------------------------------------------------------------------
# level parsing and misc
# ---------------------------------------------------------------------------


def test_parse_levels_forms():
    assert cli._parse_levels("20") == [20.0]
    assert cli._parse_levels("10,20") == [10.0, 20.0]
    assert cli._parse_levels("10:80:10") == [10, 20, 30, 40, 50, 60, 70, 80]
    assert cli._parse_levels("5:6:0.5") == pytest.approx([5.0, 5.5, 6.0])


@pytest.mark.parametrize("bad", ["abc", "10:80", "10:80:-5"])
def test_parse_levels_rejects_malformed(bad):
    with pytest.raises(cli.CliError):
        cli._parse_levels(bad)


def test_parse_levels_empty_means_no_levels():
    # an empty value resolves to no levels; sweep rejects that downstream
    assert cli._parse_levels("") == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"trigreg {tr.__version__}"


def test_output_dir_collision_is_io_error(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("a file, not a directory")
    code = run_cli("approximate", "--gallery", "f1", "--n", "11", "--lambda", "0.1",
                   "--eval-points", "1000", "--output-dir", str(target))
    assert code == 6


def test_back_to_back_calls_share_no_values(tmp_path, capsys):
    # the argument parser is built once per process; no flag of one call may
    # reach the next
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli("sweep", "--gallery", "sine", "--n", "11", "--snr-db", "20", "--seed", "3",
                   "--s", "2", "--t-max", "20", "--eval-points", "1000", "--emit-curves",
                   "--strategy", "lcurve", "--output-dir", str(first)) == 0
    assert (first / "curves_20dB.csv").exists()
    assert run_cli("approximate", "--gallery", "f1", "--n", "11", "--lambda", "0.5",
                   "--output-dir", str(first)) == 0
    assert run_cli("sweep", "--gallery", "sine", "--n", "11", "--snr-db", "20",
                   "--output-dir", str(second)) == 0
    assert not (second / "curves_20dB.csv").exists()
    meta, _, rows = read_csv(second / "report.csv")
    assert (meta["seed"], meta["s"], meta["t_max"]) == ("0", "1.0", "400")
    assert meta["strategy"] == "morozov,lcurve,gcv,oracle"
    assert run_cli("select", "--gallery", "f1", "--n", "11", "--snr-db", "20",
                   "--output-dir", str(second)) == 0
    meta, _, _ = read_csv(second / "diagnostics.csv")
    assert "chosen_lambda" not in meta
    assert meta["eval_points"] == "10000"
    assert meta["strategy"] == "morozov,lcurve,gcv,oracle"


def test_coefficient_table_builds_no_index_objects(tmp_path, capsys, monkeypatch):
    # the ell,k columns come from the array-valued grid.mode_layout
    def refuse(*args, **kwargs):
        raise AssertionError("harmonic_indices called")

    for name, module in list(sys.modules.items()):
        if name.startswith("trigreg") and hasattr(module, "harmonic_indices"):
            monkeypatch.setattr(module, "harmonic_indices", refuse)
    assert run_cli("approximate", "--gallery", "f1", "--n", "7", "--lambda", "0.5",
                   "--output-dir", str(tmp_path)) == 0
    _, header, rows = read_csv(tmp_path / "coefficients.csv")
    assert header[:2] == ["ell", "k"]
    assert [tuple(row[:2]) for row in rows] == [
        ("0", "1"), ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"), ("3", "1"), ("3", "2")
    ]


def test_no_command_builds_a_dense_basis(tmp_path, capsys, monkeypatch):
    # equispaced evaluation is one irfft; basis_matrix serves arbitrary points only
    calls = []
    original = tr.grid.basis_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("trigreg") and getattr(module, "basis_matrix", None) is original:
            monkeypatch.setattr(module, "basis_matrix", counted)
    g = tr.make_grid(31)
    path = tmp_path / "samples.csv"
    write_samples(path, g.nodes, tr.add_noise_snr(np.cos(g.nodes), 30.0, 1).noisy)
    for argv in (
        ("approximate", "--input", str(path), "--strategy", "gcv"),
        ("approximate", "--gallery", "f2", "--n", "31", "--snr-db", "30", "--strategy", "oracle"),
        ("approximate", "--gallery", "f1", "--n", "31", "--lambda", "0.1"),
        ("select", "--gallery", "square", "--n", "31", "--snr-db", "30", "--strategy", "all"),
        ("sweep", "--gallery", "f1", "--n", "31", "--snr-db", "20,60", "--emit-curves"),
        ("sweep", "--gallery", "f1", "--n", "31", "--snr-db", "20,60"),
    ):
        assert run_cli(*argv, "--output-dir", str(tmp_path)) == 0
    assert tr.grid.synthesize(tr.analyze(np.cos(g.nodes), g, 1), 0.3) == pytest.approx(math.cos(0.3))
    assert len(calls) == 1  # the wrapper is live: only the explicit synthesize above
