import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import roundedcounts
from roundedcounts import Poisson, RoundingScheme, rounded_moments_poisson, rounded_pmf
from roundedcounts import cli
from roundedcounts.cli import build_parser, main, parse_float_list, parse_int_list
from roundedcounts.rounding import MAX_TABLE_ENTRIES, SERIES_RTOL, TAIL_EPS
from roundedcounts.tableio import format_cell, read_csv
from test_rounding import lattice_moments_mpmath


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grid_parsing():
    assert parse_float_list("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    assert parse_float_list("1,2.5,4") == [1.0, 2.5, 4.0]
    assert parse_int_list("1,2,5") == [1, 2, 5]
    for text in ("1:2:-1", "1:2:0"):
        with pytest.raises(argparse.ArgumentTypeError, match="step must be positive"):
            parse_float_list(text)
    for text in ("", ",", "0.9:0.1:0.05"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_float_list(text)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_int_list(",,")


@pytest.mark.parametrize("text", ["0:inf:1", "-inf:1:1", "0:1:inf", "nan:1:0.5", "0:nan:0.5",
                                  "0:1:nan"])
def test_non_finite_grid_range_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="finite"):
        parse_float_list(text)


@pytest.mark.parametrize("text", ["0:1:1e-12", "0:1e308:1e-308", "-1e308:1e308:1",
                                  f"1:{MAX_TABLE_ENTRIES + 1}:1"])
def test_oversized_grid_range_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="more points than the limit"):
        parse_float_list(text)


def test_grid_range_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 10)
    assert len(parse_float_list("1:10:1")) == 10
    with pytest.raises(argparse.ArgumentTypeError, match="more points than the limit, 10"):
        parse_float_list("1:11:1")


def test_non_positive_grid_step_is_usage_error_with_its_reason(capsys):
    code, out, err = run_cli(capsys, "mse-exact", "--param-grid", "1:2:-1", "--n-list", "1")
    assert (code, out) == (2, "")
    assert "grid step must be positive" in err


@pytest.mark.parametrize("grid", ["0:inf:1", "0:1:1e-12"])
def test_bad_grid_range_is_usage_error(capsys, grid):
    code, out, err = run_cli(capsys, "mse-exact", "--param-grid", grid, "--n-list", "1")
    assert code == 2
    assert out == ""
    assert "--param-grid" in err


def test_pmf_matches_library(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--dist", "poisson", "--theta", "2",
                           "--n-list", "3")
    assert code == 0
    config, columns, rows = read_csv(io.StringIO(out))
    assert columns == ["n", "u", "prob"]
    assert config["seed"] == 12345
    assert config["tie_rule"] == "half-up"
    table = rounded_pmf(Poisson(2.0), RoundingScheme(3))
    expected = dict(table.items())
    for n, u, prob in rows:
        assert n == 3
        assert prob == expected[u]  # 17-digit serialization is lossless


def test_pmf_fig1_preset_panels(capsys, monkeypatch):
    searched = []
    search = Poisson.support_window
    monkeypatch.setattr(Poisson, "support_window",
                        lambda model, eps: searched.append(eps) or search(model, eps))
    code, out, _ = run_cli(capsys, "pmf", "--preset", "fig1")
    assert code == 0
    _, _, rows = read_csv(io.StringIO(out))
    assert {row[0] for row in rows} == {1, 3, 10}
    assert len(searched) == 1  # one latent window serves every group count
    for n in (1, 3, 10):
        assert [[u, p] for m, u, p in rows if m == n] == \
            [[u, p] for u, p in rounded_pmf(Poisson(2.0), RoundingScheme(n)).items()]


def test_moments_output(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dist", "poisson", "--theta", "0.1",
                           "--n", "2")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    values = {row[0]: dict(zip(columns[1:], row[1:])) for row in rows}
    report = rounded_moments_poisson(0.1, 2)
    assert list(values) == ["series", "enumeration"]
    assert values["series"]["mean"] == pytest.approx(0.19063462346100907, abs=1e-15)
    assert values["series"]["variance"] == report.variance
    assert values["enumeration"]["mean"] == pytest.approx(report.mean, abs=1e-10)


def test_moments_header_records_the_series_bound(capsys):
    code, out, err = run_cli(capsys, "moments", "--theta", "2", "--n", "7")
    assert (code, err) == (0, "")
    config, _, rows = read_csv(io.StringIO(out))
    assert [row[0] for row in rows] == ["series", "enumeration"]
    assert config["series_refused"] is False
    assert 0.0 < config["series_error_bound"] <= SERIES_RTOL


# At theta = 2120, n = 5000 all of E(U) comes from P(Y >= 2500) = 5.4e-16, which
# a table at 1e-14 each side leaves out, reading mean and variance 0.0.
@pytest.mark.parametrize("theta, n", [(0.1, 1000), (3.0, 365), (972.0, 5000), (2120.0, 5000)])
def test_moments_series_row_is_refused_alone(capsys, theta, n):
    code, out, err = run_cli(capsys, "moments", "--theta", str(theta), "--n", str(n))
    assert code == 0
    config, _, rows = read_csv(io.StringIO(out))
    assert [row[0] for row in rows] == ["enumeration"]
    mean, variance = lattice_moments_mpmath(Poisson(theta), n)
    assert rows[0][1] == pytest.approx(mean, rel=1e-9, abs=0.0)
    assert rows[0][2] == pytest.approx(variance, rel=1e-9, abs=0.0)
    assert config["series_refused"] is True and config["series_error_bound"] > SERIES_RTOL
    assert "series row left out" in json.loads(err.strip())["warning"]


def test_moments_negative_series_variance_within_its_bound_is_zero(capsys):
    # The series raised "negative variance" here.
    code, out, _ = run_cli(capsys, "moments", "--theta", "0.097", "--n", "100")
    assert code == 0
    _, _, rows = read_csv(io.StringIO(out))
    assert [(row[0], row[2]) for row in rows] == [("series", 0.0), ("enumeration", 0.0)]


def test_excess_deaths_at_large_group_counts(capsys):
    code, out, _ = run_cli(capsys, "excess-deaths", "--n1", "365", "--n2", "365",
                           "--theta", "3", "--beta", "1")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    values = dict(rows)
    assert columns == ["quantity", "value"]
    assert (values["mean_rounded"], values["var_rounded"]) == (0.0, 0.0)


def test_mle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mle", "--dist", "poisson", "--u", "2", "--n", "2")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    values = {row[0]: row[1] for row in rows}
    assert values["closed-form"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert values["numeric"] == pytest.approx(np.sqrt(2.0), abs=1e-6)
    assert columns == ["method", "estimate", "loglik"]


def test_mle_rejects_model_flags_it_does_not_read(capsys):
    for flag in ("--theta", "--prob"):
        code, out, _ = run_cli(capsys, "mle", "--u", "6", "--n", "3", flag, "0.3")
        assert code == 2
        assert out == ""


def test_explicit_flags_win_over_presets(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--preset", "fig1", "--theta", "3", "--n-list", "2")
    assert code == 0
    config, _, rows = read_csv(io.StringIO(out))
    assert (config["theta"], config["n_list"]) == (3.0, 2)
    assert {row[0] for row in rows} == {2}
    code, out, _ = run_cli(capsys, "true-significance", "--preset", "fig5", "--n", "11")
    assert code == 0
    config, _, _ = read_csv(io.StringIO(out))
    assert (config["modes"], config["n"], config["m"]) == ("binned-u", 11, 500)
    assert config["alpha_list"] == "0.01,0.05,0.1"


def test_presets_do_not_leak_into_later_calls(capsys):
    # One process, one parser: a preset must not change what a later call
    # without it resolves to.
    code, _, _ = run_cli(capsys, "pmf", "--preset", "fig1", "--n-list", "2")
    assert code == 0
    code, out, err = run_cli(capsys, "pmf", "--n-list", "2")
    assert code == 2
    assert out == ""
    assert "requires --theta" in json.loads(err.strip())["error"]
    code, _, _ = run_cli(capsys, "true-significance", "--preset", "fig4", "--phi0-grid", "0.5")
    assert code == 0
    code, out, _ = run_cli(capsys, "true-significance", "--phi0-grid", "0.5")
    assert code == 0
    config, _, _ = read_csv(io.StringIO(out))
    assert (config["modes"], config["alpha_list"]) == ("exact-y", 0.05)


@pytest.mark.parametrize("command, preset, flags", [
    ("pmf", "fig1", ["--theta", "2", "--n-list", "1,3,10"]),
    ("mse-sim", "fig2", ["--param-grid", "0.05:4:0.05", "--n-list", "2,5,10,25,50"]),
    ("mse-sim", "fig3", ["--param-grid", "0.2,0.5,1.0,2.0", "--n-list", "1,2,5,10,25,50,100,200"]),
    ("true-significance", "fig4", ["--alpha-list", "0.01,0.05,0.1",
                                   "--modes", "exact-y,misspecified-u"]),
    ("true-significance", "fig5", ["--alpha-list", "0.01,0.05,0.1", "--modes", "binned-u"]),
    ("mse-ratio", "fig6", ["--n-list", "1,2,5,10,25"]),
])
def test_each_preset_equals_its_flags(command, preset, flags):
    parser = build_parser()
    with_preset = vars(parser.parse_args([command, "--preset", preset]))
    spelled_out = vars(parser.parse_args([command, *flags]))
    assert (with_preset.pop("preset"), spelled_out.pop("preset")) == (preset, None)
    assert with_preset == spelled_out


def test_mse_ratio_header_reproduces_a_family(capsys):
    code, out, _ = run_cli(capsys, "mse-ratio", "--preset", "fig6", "--n-list", "1,2")
    assert code == 0
    config, _, _ = read_csv(io.StringIO(out))
    code, rerun, _ = run_cli(capsys, "mse-ratio", "--dist", "binomial",
                             "--n-list", config["n_list"],
                             "--param-grid", config["param_grid_binomial"],
                             "--trials", str(config["trials"]),
                             "--nb-size", str(config["nb_size"]))
    assert code == 0

    def binomial_rows(text):
        return [line for line in text.splitlines() if line.startswith("binomial,")]

    assert binomial_rows(out) and binomial_rows(rerun) == binomial_rows(out)


@pytest.mark.parametrize("argv", [
    ["mse-exact", "--param-grid", "1", "--n-list", "3"],
    ["mse-ratio", "--dist", "poisson", "--param-grid", "1", "--n-list", "1,3"],
])
def test_prob_floor_is_an_unknown_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--prob-floor", "1")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --prob-floor" in err


def test_exact_headers_record_tail_eps(capsys):
    for argv in (["mse-exact", "--param-grid", "1", "--n-list", "3"],
                 ["mse-ratio", "--dist", "poisson", "--param-grid", "1", "--n-list", "3"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        config, _, _ = read_csv(io.StringIO(out))
        assert config["tail_eps"] == TAIL_EPS
        assert "prob_floor" not in config


def test_zero_unrounded_mse_is_usage_error(capsys):
    # All the mass sits at y=2, whose n=1 fit is the true probability 1.
    code, out, err = run_cli(capsys, "mse-ratio", "--dist", "binomial", "--trials", "2",
                             "--param-grid", "1.0", "--n-list", "1,2")
    assert code == 2
    assert out == ""
    assert "unrounded MSE" in json.loads(err.strip())["error"]


@pytest.mark.parametrize("theta", ["1e14", "1e300"])
def test_oversized_pmf_is_usage_error(capsys, theta):
    code, out, err = run_cli(capsys, "pmf", "--dist", "poisson", "--theta", theta,
                             "--n-list", "1")
    assert code == 2
    assert out == ""
    assert "entries" in json.loads(err.strip())["error"]


def test_crossing_tail_quantiles_are_usage_error(capsys):
    code, out, err = run_cli(capsys, "pmf", "--dist", "poisson", "--theta", "50",
                             "--n-list", "1", "--tail-eps", "0.6")
    assert code == 2
    assert out == ""
    assert "tail_eps" in json.loads(err.strip())["error"]


@pytest.mark.parametrize("points", ["0", "-2"])
def test_pgf_check_without_points_is_usage_error(capsys, points):
    code, out, err = run_cli(capsys, "pgf-check", "--dist", "poisson", "--theta", "2",
                             "--n", "4", "--points", points)
    assert code == 2
    assert out == ""
    assert "--points" in json.loads(err.strip())["error"]


@pytest.mark.parametrize("argv, flag", [
    (["true-significance", "--phi0-grid", "0.9:0.1:0.05"], "--phi0-grid"),
    (["true-significance", "--alpha-list", ","], "--alpha-list"),
    (["pmf", "--theta", "2", "--n-list", ","], "--n-list"),
    (["mse-ratio", "--dist", "poisson", "--param-grid", "1", "--n-list", ""], "--n-list"),
])
def test_empty_list_is_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(roundedcounts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = "import sys, roundedcounts.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def test_mse_ratio_unit_at_n1(capsys):
    code, out, _ = run_cli(capsys, "mse-ratio", "--dist", "poisson",
                           "--param-grid", "0.5,2", "--n-list", "1")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    psi_col = columns.index("psi")
    assert all(row[psi_col] == 1.0 for row in rows)


def test_binned_test_row(capsys):
    code, out, _ = run_cli(capsys, "binned-test", "--u", "0", "--m", "40", "--n", "1",
                           "--phi0", "0.3", "--alpha", "0.05")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    row = dict(zip(columns, rows[0]))
    assert row["reject"] is True
    assert row["true_level"] <= 0.05


def test_true_significance_exact_mode(capsys):
    code, out, _ = run_cli(capsys, "true-significance", "--m", "500", "--n", "31",
                           "--phi0-grid", "0.3,0.5", "--alpha-list", "0.05",
                           "--modes", "exact-y")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    for row in rows:
        level = dict(zip(columns, row))["true_level"]
        assert 0.03 < level < 0.07


def test_excess_deaths_both_modes(capsys):
    code, out, _ = run_cli(capsys, "excess-deaths", "--n1", "7", "--n2", "14",
                           "--u1", "7", "--u2", "28", "--theta", "10", "--beta", "2")
    assert code == 0
    _, _, rows = read_csv(io.StringIO(out))
    values = dict(rows)
    assert values["excess_plain"] == 14.0
    assert "var_rounded" in values


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dist", "poisson", "--theta", "2",
                           "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["command"] == "moments"
    assert payload["columns"][0] == "method"


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "pmf", "--bogus", "1")
    assert code == 2


def test_bad_value_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "moments", "--dist", "poisson", "--theta", "-2",
                           "--n", "3")
    assert code == 2
    assert json.loads(err.strip())["type"] == "ValueError"


def test_numerical_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "mle", "--dist", "binomial", "--trials", "4",
                           "--u", "8", "--n", "2")
    assert code == 1
    assert json.loads(err.strip())["type"] == "NoMaximumError"


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ROUNDEDCOUNTS_SEED", "777")
    code, out, _ = run_cli(capsys, "pmf", "--dist", "poisson", "--theta", "1",
                           "--n-list", "2")
    assert code == 0
    config, _, _ = read_csv(io.StringIO(out))
    assert config["seed"] == 777


@pytest.mark.parametrize("estimators", ["u,bogus", "u,", "closed_mle"])
def test_unknown_mse_sim_estimator_is_usage_error(capsys, estimators):
    code, out, err = run_cli(capsys, "mse-sim", "--param-grid", "1", "--n-list", "2",
                             "--reps", "10", "--estimators", estimators)
    assert code == 2
    assert out == ""
    assert "unknown estimator" in err


def test_inapplicable_mse_sim_estimator_is_a_flagged_row(capsys):
    code, out, _ = run_cli(capsys, "mse-sim", "--dist", "binomial", "--param-grid", "0.5",
                           "--n-list", "2", "--trials-per-measurement", "3", "--reps", "10",
                           "--estimators", "u,closed-mle")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    flagged = dict(zip(columns, rows[1]))
    assert flagged["estimator"] == "closed-mle"
    assert math.isnan(flagged["mse"]) and flagged["failures"] == 10
    assert "Poisson" in flagged["error"]


@pytest.mark.parametrize("argv, needed", [
    (["mse-sim"], "--param-grid and --n-list"),
    (["mse-sim", "--param-grid", "1"], "--param-grid and --n-list"),
    (["mse-sim", "--n-list", "2"], "--param-grid and --n-list"),
    (["mse-ratio", "--n-list", "1,2"], "--dist"),
    (["mse-ratio", "--dist", "poisson", "--param-grid", "1"], "--n-list"),
    (["excess-deaths", "--n1", "7", "--n2", "14"], "--u1/--u2"),
    (["excess-deaths", "--n1", "7", "--n2", "14", "--u1", "7"], "--u1/--u2"),
    (["excess-deaths", "--u1", "7", "--u2", "14", "--n1", "7", "--n2", "7", "--beta", "3"],
     "--theta"),
])
def test_missing_required_input_is_usage_error(capsys, argv, needed):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err.strip())
    assert error["type"] == "ValueError" and needed in error["error"]


def test_zero_group_count_in_excess_deaths_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "excess-deaths", "--u1", "0", "--u2", "0",
                             "--n1", "0", "--n2", "1")
    assert code == 2
    assert out == ""
    assert "n1 and n2" in json.loads(err.strip())["error"]


def test_reruns_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["mse-sim", "--dist", "poisson", "--param-grid", "1",
                     "--n-list", "2", "--reps", "300", "--seed", "4242",
                     "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fig3_reruns_are_byte_identical(tmp_path):
    # One run in this process and one in a fresh interpreter.
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    argv = ["mse-sim", "--preset", "fig3", "--seed", "4242"]
    assert main([*argv, "--out", str(paths[0])]) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(roundedcounts.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "roundedcounts.cli", *argv, "--out", str(paths[1])],
                   env=env, check=True)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ["moments", "--theta", "2", "--n", str(MAX_TABLE_ENTRIES + 1)],
    ["pgf-check", "--theta", "2", "--n", str(MAX_TABLE_ENTRIES + 1)],
    ["excess-deaths", "--n1", "7", "--n2", str(MAX_TABLE_ENTRIES + 1), "--theta", "2"],
])
def test_group_count_over_the_roots_limit_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err.strip())
    assert error["type"] == "ValueError" and "roots-of-unity" in error["error"]


def test_oversized_mse_sim_cell_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "mse-sim", "--param-grid", "1e12", "--n-list", "1",
                             "--reps", str(MAX_TABLE_ENTRIES + 1))
    assert (code, out) == (2, "")
    assert "entries" in json.loads(err.strip())["error"]


def test_pgf_check_small_diffs(capsys):
    code, out, _ = run_cli(capsys, "pgf-check", "--dist", "poisson", "--theta", "2",
                           "--n", "4", "--points", "10")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    diff_col = columns.index("abs_diff")
    assert all(row[diff_col] < 1e-8 for row in rows)


def loop_points(seed, n, count):
    """The points of ``pgf-check`` as its rejection sampler drew them one by one."""
    rng = np.random.default_rng(seed)
    roots = RoundingScheme(n).table.omega_pow
    points = []
    while len(points) < count:
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(s) > 1.0 or np.min(np.abs(s - roots)) < 1e-3 or abs(s) < 1e-3:
            continue
        points.append(s)
    return points


def pgf_check_rows(capsys, *argv):
    code, out, err = run_cli(capsys, "pgf-check", *argv)
    assert (code, err) == (0, "")
    return out, [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]


@pytest.mark.parametrize("model", [["--theta", "2"], ["--theta", "9.3"],
                                   ["--dist", "binomial", "--trials", "30", "--prob", "0.3"],
                                   ["--dist", "negbinomial", "--nb-size", "2.5", "--prob", "0.6"]])
def test_pgf_check_points_are_the_loop_samplers(capsys, model):
    for n in (1, 2, 3, 8):
        for seed in (1, 5, 12345):
            argv = [*model, "--n", str(n), "--points", "41", "--seed", str(seed)]
            out, rows = pgf_check_rows(capsys, *argv)
            want = [[format_cell(s.real), format_cell(s.imag)] for s in loop_points(seed, n, 41)]
            assert [row[:2] for row in rows] == want, argv
            assert pgf_check_rows(capsys, *argv)[0] == out
    # At n = 31 the closed form refuses some points as inexact, so the
    # sampler is compared on its own.
    roots = RoundingScheme(31).table.omega_pow
    for seed in (1, 5, 12345):
        drawn = np.concatenate(list(cli._disk_points(np.random.default_rng(seed), roots, 41, 31)))
        assert drawn.tolist() == loop_points(seed, 31, 41)


@pytest.mark.parametrize("argv", [["--theta", "2", "--n", "300", "--points", "50"],
                                  ["--theta", "2", "--n", "31", "--points", "37",
                                   "--seed", "12345"]])
def test_pgf_check_refuses_an_inexact_closed_form(capsys, argv):
    # Both exited 0 with abs_diff 4.8e154 and 1.81.
    code, out, err = run_cli(capsys, "pgf-check", *argv)
    assert (code, out) == (1, "")
    error = json.loads(err.strip())
    assert error["type"] == "NumericalInconsistencyError" and "error bound" in error["error"]


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([["--theta", "0.3"], ["--theta", "2"], ["--theta", "9.7"],
                        ["--dist", "binomial", "--trials", "40", "--prob", "0.35"],
                        ["--dist", "negbinomial", "--nb-size", "2.5", "--prob", "0.6"]]),
       st.integers(1, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_pgf_check_exits_0_only_within_tolerance_property(capsys, model, n, points, seed):
    code, out, err = run_cli(capsys, "pgf-check", *model, "--n", str(n), "--points", str(points),
                             "--seed", str(seed))
    if code == 0:
        _, columns, rows = read_csv(io.StringIO(out))
        assert max(row[columns.index("abs_diff")] for row in rows) <= 1e-9
    else:
        assert code == 1
        assert json.loads(err.strip())["type"] in ("NumericalInconsistencyError",
                                                   "ZeroDivisionError")


@pytest.mark.parametrize("theta, n", [(2.0, 8), (40.0, 1)])
def test_pgf_check_in_blocks_matches_one_block(capsys, monkeypatch, theta, n):
    # Under blocks of 200 entries a block holds at most 200 // max(n, table
    # length) points: 25 at n = 8, where the table is shorter than n, and 2
    # at n = 1, where the table is longer.
    argv = ["--theta", str(theta), "--n", str(n), "--points", "60", "--seed", "3"]
    length = len(rounded_pmf(Poisson(theta), RoundingScheme(n), 1e-14).probs)
    block = 200 // max(n, length)
    _, whole = pgf_check_rows(capsys, *argv)
    calls = []
    monkeypatch.setattr(cli, "_PGF_BLOCK_ENTRIES", 200)
    monkeypatch.setattr(cli, "rounded_pgf", lambda *args: calls.append(args[2].size)
                        or roundedcounts.rounded_pgf(*args))
    _, blocks = pgf_check_rows(capsys, *argv)
    assert sum(calls) == 60 and max(calls) <= block and len(calls) >= 60 // block
    assert [row[:2] for row in blocks] == [row[:2] for row in whole]
    eps = np.finfo(float).eps
    got, want = np.array(blocks, dtype=float), np.array(whole, dtype=float)
    for col in (2, 4):
        value = want[:, col] + 1j * want[:, col + 1]
        diff = np.abs(got[:, col] + 1j * got[:, col + 1] - value)
        assert np.all(diff <= 4 * eps * np.abs(value))
    assert np.all(got[:, 6] <= 1e-9)


def test_pgf_check_points_over_the_limit_are_usage_error(capsys):
    code, out, err = run_cli(capsys, "pgf-check", "--theta", "2", "--points",
                             str(MAX_TABLE_ENTRIES + 1))
    assert (code, out) == (2, "")
    error = json.loads(err.strip())
    assert error["type"] == "ValueError" and str(MAX_TABLE_ENTRIES) in error["error"]
    assert "--points" in error["error"]


def test_mse_exact_table(capsys):
    code, out, _ = run_cli(capsys, "mse-exact", "--dist", "poisson",
                           "--param-grid", "1", "--n-list", "1", "--estimator", "u")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    row = dict(zip(columns, rows[0]))
    assert row["mse"] == pytest.approx(1.0, abs=1e-6)  # Var(Y) at n=1


PMF_LONG = ["pmf", "--theta", "2", "--n-list", "1,3,10", "--seed", "7"]
PMF_SHORT = ["pmf", "--theta", "2", "--n-list", "3", "--seed", "7"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rerun_with_a_shorter_table_leaves_only_the_new_bytes(capsys, tmp_path, fmt):
    path = tmp_path / "table.out"
    assert main([*PMF_LONG, "--format", fmt, "--out", str(path)]) == 0
    longer, inode = path.stat().st_size, path.stat().st_ino
    code, expected, _ = run_cli(capsys, *PMF_SHORT, "--format", fmt)
    assert code == 0 and len(expected.encode()) < longer
    assert main([*PMF_SHORT, "--format", fmt, "--out", str(path)]) == 0
    assert path.read_bytes() == expected.encode("utf-8")
    assert path.stat().st_ino == inode


def test_out_writes_through_a_symlink(capsys, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    assert main([*PMF_SHORT, "--out", str(link)]) == 0
    assert link.is_symlink()
    _, expected, _ = run_cli(capsys, *PMF_SHORT)
    assert target.read_bytes() == expected.encode("utf-8")


def test_out_keeps_the_mode_of_an_existing_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old")
    path.chmod(0o640)
    assert main([*PMF_SHORT, "--out", str(path)]) == 0
    assert path.stat().st_mode & 0o777 == 0o640


def test_new_out_file_gets_the_umask(tmp_path):
    path = tmp_path / "table.csv"
    old = os.umask(0o027)
    try:
        assert main([*PMF_SHORT, "--out", str(path)]) == 0
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o640


def test_out_to_a_device_is_not_truncated(capsys):
    # ftruncate on a character device fails, so a truncate there would exit 2.
    code, out, err = run_cli(capsys, *PMF_SHORT, "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


def test_refused_command_leaves_an_existing_out_file_untouched(capsys, tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"previous table\n")
    code, _, err = run_cli(capsys, "pgf-check", "--theta", "2", "--points", "0",
                           "--out", str(path))
    assert code == 2 and "--points" in err
    assert path.read_bytes() == b"previous table\n"


@pytest.mark.parametrize("where, kind", [("missing/x.csv", "FileNotFoundError"),
                                         (".", "IsADirectoryError")])
def test_unwritable_out_path_is_usage_error(capsys, tmp_path, where, kind):
    code, out, err = run_cli(capsys, *PMF_SHORT, "--out", str(tmp_path / where))
    assert (code, out) == (2, "")
    error = json.loads(err.strip())
    assert set(error) == {"error", "type"} and error["type"] == kind
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_reruns_into_one_path_leak_no_descriptors(tmp_path):
    path = str(tmp_path / "table.csv")
    assert main([*PMF_SHORT, "--out", path]) == 0
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        assert main([*PMF_SHORT, "--out", path]) == 0
    assert len(os.listdir("/proc/self/fd")) == before
