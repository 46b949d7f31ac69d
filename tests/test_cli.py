import io
import json

import numpy as np
import pytest

from roundedcounts import Poisson, RoundingScheme, rounded_moments_poisson, rounded_pmf
from roundedcounts.cli import main, parse_float_list, parse_int_list
from roundedcounts.tableio import read_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grid_parsing():
    assert parse_float_list("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    assert parse_float_list("1,2.5,4") == [1.0, 2.5, 4.0]
    assert parse_int_list("1,2,5") == [1, 2, 5]
    with pytest.raises(ValueError):
        parse_float_list("1:2:-1")


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


def test_pmf_fig1_preset_panels(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--preset", "fig1")
    assert code == 0
    _, _, rows = read_csv(io.StringIO(out))
    assert {row[0] for row in rows} == {1, 3, 10}


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


def test_mle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mle", "--dist", "poisson", "--u", "2", "--n", "2")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    values = {row[0]: row[1] for row in rows}
    assert values["closed-form"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert values["numeric"] == pytest.approx(np.sqrt(2.0), abs=1e-6)


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


def test_mse_ratio_header_reproduces_a_family(capsys):
    code, out, _ = run_cli(capsys, "mse-ratio", "--preset", "fig6", "--n-list", "1,2")
    assert code == 0
    config, _, _ = read_csv(io.StringIO(out))
    code, rerun, _ = run_cli(capsys, "mse-ratio", "--dist", "binomial",
                             "--n-list", config["n_list"],
                             "--param-grid", config["param_grid_binomial"],
                             "--trials", str(config["trials"]),
                             "--nb-size", str(config["nb_size"]),
                             "--prob-floor", str(config["prob_floor"]))
    assert code == 0

    def binomial_rows(text):
        return [line for line in text.splitlines() if line.startswith("binomial,")]

    assert binomial_rows(out) and binomial_rows(rerun) == binomial_rows(out)


@pytest.mark.parametrize("argv", [
    ["mse-exact", "--param-grid", "1", "--n-list", "3", "--prob-floor", "1"],
    ["mse-ratio", "--dist", "poisson", "--param-grid", "1", "--n-list", "1,3",
     "--prob-floor", "0.9"],
])
def test_prob_floor_keeping_no_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "prob_floor" in json.loads(err.strip())["error"]


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


def test_reruns_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["mse-sim", "--dist", "poisson", "--param-grid", "1",
                     "--n-list", "2", "--reps", "300", "--seed", "4242",
                     "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_pgf_check_small_diffs(capsys):
    code, out, _ = run_cli(capsys, "pgf-check", "--dist", "poisson", "--theta", "2",
                           "--n", "4", "--points", "10")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    diff_col = columns.index("abs_diff")
    assert all(row[diff_col] < 1e-8 for row in rows)


def test_mse_exact_table(capsys):
    code, out, _ = run_cli(capsys, "mse-exact", "--dist", "poisson",
                           "--param-grid", "1", "--n-list", "1", "--estimator", "u")
    assert code == 0
    _, columns, rows = read_csv(io.StringIO(out))
    row = dict(zip(columns, rows[0]))
    assert row["mse"] == pytest.approx(1.0, abs=1e-6)  # Var(Y) at n=1
