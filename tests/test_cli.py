"""End-to-end tests of the command-line interface (main() called in process)."""

import csv
import json
import math

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


def test_config_file_missing(tmp_path, capsys):
    assert run_cli("approximate", "--config", str(tmp_path / "none.json")) == 6


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
