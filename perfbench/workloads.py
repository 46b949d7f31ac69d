"""The four benchmark workloads: seeded inputs, the timed call, the oracle.

A workload is a fixed list of operations built from ``--seed``.  The seed
draws every input (rates, ``u`` values, null probabilities, Monte Carlo
seeds) inside fixed strata, so another seed gives inputs of the same shape
and cost.  Each operation kind has three parts: ``run`` is the only timed
code, ``check`` compares its output with an oracle, and ``fingerprint``
reduces the output to a string that must repeat exactly in a rerun.

``size="tiny"`` keeps one small operation of every kind, for the
self-test and for the traced run's probe.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

import roundedcounts as rc
from roundedcounts import cli

import oracles

WORKLOADS = ("mc-sim", "mle-fit", "tables", "tables-wide")
SIZES = ("standard", "tiny")


@dataclass
class Op:
    kind: str
    params: dict


class CliRefused(RuntimeError):
    """The CLI exited with a non-zero code."""


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _strata(rng, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw inside each of ``count`` equal log-width strata."""
    edges = np.geomspace(lo, hi, count + 1)
    return [float(math.exp(rng.uniform(math.log(a), math.log(b))))
            for a, b in zip(edges[:-1], edges[1:])]


def _int_strata(rng, lo: int, hi: int, count: int) -> list[int]:
    """One integer inside each of ``count`` equal parts of [lo, hi]."""
    edges = np.linspace(lo, hi + 1, count + 1)
    return [int(rng.integers(int(a), max(int(a) + 1, int(b)))) for a, b in zip(edges[:-1], edges[1:])]


def _grid(rng, lo: float, hi: float, count: int, jitter: float = 0.05) -> list[float]:
    """Log-spaced points, each lowered by at most ``jitter`` (so none exceeds ``hi``)."""
    return [float(x * math.exp(-rng.uniform(0.0, jitter))) for x in np.geomspace(lo, hi, count)]


def _tie(i: int) -> str:
    return rc.HALF_UP if i % 2 == 0 else rc.HALF_EVEN


# --- mc-sim -----------------------------------------------------------------

def _mc_sim(rng, tiny: bool) -> list[Op]:
    reps = 50 if tiny else 400
    rates = _strata(rng, 0.05, 4.0, 1 if tiny else 12)
    n_list = (5,) if tiny else (1, 2, 5, 10, 25, 50, 100, 200)
    ops = []
    for j, rate in enumerate(rates):
        for i, n in enumerate(n_list):
            ops.append(Op("mc.poisson", dict(
                family="poisson", param=rate, n=n, reps=reps, tie_rule=_tie(i + j),
                estimators=("u", "closed-mle"), seed=int(rng.integers(2**31)))))
    # Few numeric-MLE cells, so that op_p90_ms falls among the Poisson cells.
    count = 1 if tiny else 2
    for i, (prob, n) in enumerate(zip(_strata(rng, 0.15, 0.85, count), (5, 10))):
        ops.append(Op("mc.binomial", dict(
            family="binomial", param=prob, n=n, reps=reps, tie_rule=_tie(i),
            trials_per_measurement=(2, 5)[i % 2], estimators=("u", "numeric-mle"),
            seed=int(rng.integers(2**31)))))
    for i, (prob, n) in enumerate(zip(_strata(rng, 0.4, 0.8, count), (5, 10))):
        ops.append(Op("mc.negbinomial", dict(
            family="negbinomial", param=prob, n=n, reps=reps, tie_rule=_tie(i),
            nb_size=(2.0, 5.0)[i % 2], estimators=("u", "numeric-mle"),
            seed=int(rng.integers(2**31)))))
    return ops


def _mc_config(p: dict) -> rc.ExperimentConfig:
    return rc.ExperimentConfig(
        seed=p["seed"], family=p["family"], param_grid=(p["param"],), n_list=(p["n"],),
        reps=p["reps"], estimators=p["estimators"], tie_rule=p["tie_rule"],
        trials_per_measurement=p.get("trials_per_measurement"), nb_size=p.get("nb_size"))


def _run_mc(p, ctx):
    return rc.run_mse_experiment(_mc_config(p))


def _estimators(p: dict) -> tuple[float, dict]:
    """MSE target and the estimator functions of a cell, by name."""
    family, param, n = p["family"], p["param"], p["n"]
    scheme = rc.RoundingScheme(n, p["tie_rule"])
    if family == "poisson":
        return n * param, {
            "u": float,
            "closed-mle": lambda u: rc.poisson_mle_closed(u, n).value,
            "numeric-mle": lambda u: rc.numeric_mle(u, scheme, "poisson").value,
        }
    if family == "binomial":
        trials = p["trials_per_measurement"] * n
        return param, {
            "u": lambda u: u / trials,
            "numeric-mle": lambda u: rc.numeric_mle(u, scheme, "binomial", trials=trials).value,
        }
    size = p["nb_size"]
    return param, {
        "u": lambda u: size / (size + u),
        "numeric-mle": lambda u: rc.numeric_mle(u, scheme, "negbinomial", nb_size=size).value,
    }


def _cell_dist(p: dict):
    if p["family"] == "poisson":
        return oracles.latent("poisson", p["n"] * p["param"])
    if p["family"] == "binomial":
        return oracles.latent("binomial", p["param"], trials=p["trials_per_measurement"] * p["n"])
    return oracles.latent("negbinomial", p["param"], nb_size=p["nb_size"])


def _check_mc(p, table, ctx):
    target, estimators = _estimators(p)
    dist = _cell_dist(p)
    verdicts = []
    for row in table.rows:
        exact = oracles.enumerated_mse(estimators[row.estimator], dist, p["n"],
                                       p["tie_rule"], target)
        verdicts.append(("mc_mse_within_5se",
                         row.failures == 0
                         and oracles.mc_within(row.mse, row.mc_standard_error, row.reps, exact)))
    return verdicts


# --- mle-fit ----------------------------------------------------------------

def _mle_fit(rng, tiny: bool) -> list[Op]:
    ops = []
    k = 0

    def add(family, u, n, **extra):
        nonlocal k
        ops.append(Op(f"mle.{family}", dict(family=family, u=int(u), n=n,
                                            tie_rule=_tie(k), **extra)))
        k += 1

    for n in (3,) if tiny else (1, 2, 3, 5, 10, 25, 50):
        add("poisson", 0, n)
        top = max(2, 60 // n)
        for v in ([2] if tiny else _int_strata(rng, 1, top, 11)):
            add("poisson", n * v, n)
    for trials in (10,) if tiny else (10, 50, 200):
        for n in (2,) if tiny else (2, 5, 10):
            scheme_top = rc.round_count(trials, n, rc.HALF_UP)
            add("binomial", 0, n, trials=trials)
            add("binomial", n * scheme_top, n, trials=trials)
            for v in ([1] if tiny else _int_strata(rng, 1, max(1, scheme_top - 1), 4)):
                add("binomial", n * v, n, trials=trials)
    for size in (5.0,) if tiny else (1.0, 5.0, 20.0):
        for n in (3,) if tiny else (2, 3, 5, 10):
            add("negbinomial", 0, n, nb_size=size)
            for v in ([1] if tiny else _int_strata(rng, 1, 30 // n + 2, 4)):
                add("negbinomial", n * v, n, nb_size=size)
    families = [("poisson", {}), ("binomial", {"trials": 20}), ("negbinomial", {"nb_size": 5.0})]
    # A few heavy operations only, so that op_p90_ms falls among the fits.
    for i in range(1 if tiny else 3):
        family, extra = families[i % 3]
        param = rng.uniform(1.5, 2.5) if family == "poisson" else rng.uniform(0.35, 0.5)
        ops.append(Op("mle.ratio_curve", dict(family=family, param=float(param),
                                              n=(2, 5, 10)[i % 3], **extra)))
    for i in range(1 if tiny else 3):
        family = families[i % 3][0]
        n = (2, 5, 10)[i % 3]
        param = rng.uniform(0.8, 1.2) if family == "poisson" else rng.uniform(0.4, 0.5)
        ops.append(Op("mle.exact_mse", dict(family=family, param=float(param), n=n,
                                            tie_rule=_tie(i), trials_per_measurement=5,
                                            nb_size=5.0)))
    return ops


def _run_mle(p, ctx):
    scheme = rc.RoundingScheme(p["n"], p["tie_rule"])
    return rc.numeric_mle(p["u"], scheme, p["family"], trials=p.get("trials"),
                          nb_size=p.get("nb_size"))


def _check_mle(p, est, ctx):
    ok = oracles.mle_optimal(est.value, p["family"], p["u"], p["n"], p["tie_rule"],
                             trials=p.get("trials"), nb_size=p.get("nb_size"))
    return [("mle_reaches_grid_max", ok)]


def _run_ratio(p, ctx):
    return rc.mse_ratio_curve(p["family"], [p["param"]], [1, p["n"]],
                              trials=p.get("trials"), nb_size=p.get("nb_size"))


def _check_ratio(p, curve, ctx):
    family, param = p["family"], p["param"]
    dist = oracles.latent(family, param, trials=p.get("trials"), nb_size=p.get("nb_size"))
    verdicts = []
    for i, n in enumerate(curve.n_list):
        scheme = rc.RoundingScheme(n)

        def fit(u, scheme=scheme):
            return rc.numeric_mle(u, scheme, family, trials=p.get("trials"),
                                  nb_size=p.get("nb_size")).value

        ref, _ = oracles.enumerated_mse(fit, dist, n, rc.HALF_UP, param)
        psi = curve.mse_rounded[i, 0] / curve.mse_unrounded[i, 0]
        verdicts.append(("ratio_curve_mse_enumerated",
                         oracles.close(curve.mse_rounded[i, 0], ref, oracles.MSE_RTOL)
                         and float(curve.psi[i, 0]) == float(psi)))
    return verdicts


def _run_exact_mse(p, ctx):
    target, estimators = _estimators(p)
    scheme = rc.RoundingScheme(p["n"], p["tie_rule"])
    return rc.exact_mse(estimators["numeric-mle"], _program_model(p), scheme, target)


def _program_model(p: dict):
    if p["family"] == "poisson":
        return rc.Poisson(p["n"] * p["param"])
    if p["family"] == "binomial":
        return rc.Binomial(p["trials_per_measurement"] * p["n"], p["param"])
    return rc.NegativeBinomial(p["nb_size"], p["param"])


def _check_exact_mse(p, mse, ctx):
    target, estimators = _estimators(p)
    ref, _ = oracles.enumerated_mse(estimators["numeric-mle"], _cell_dist(p), p["n"],
                                    p["tie_rule"], target)
    return [("exact_mse_enumerated", oracles.close(mse, ref, oracles.MSE_RTOL))]


# --- tables (CLI) -------------------------------------------------------------

def _tables(rng, tiny: bool) -> list[Op]:
    ops = []

    def add(kind, *argv):
        ops.append(Op(f"cli.{kind}", dict(argv=[kind, *map(str, argv)])))

    def fmt(x):
        return f"{x:.6g}"

    def count(k):
        return 1 if tiny else k

    add("pmf", "--preset", "fig1")
    for i, theta in enumerate(_strata(rng, 0.5, 20.0, count(32))):
        add("pmf", "--theta", fmt(theta), "--n-list", ("3", "1,3,10", "2,5", "4,7")[i % 4],
            "--tie-rule", _tie(i))
    for i, prob in enumerate(_strata(rng, 0.1, 0.9, count(16))):
        add("pmf", "--dist", "binomial", "--trials", (10, 40, 120, 200)[i % 4],
            "--prob", fmt(prob), "--n-list", ("3", "2,6")[i % 2], "--tie-rule", _tie(i // 2))
    for i, prob in enumerate(_strata(rng, 0.3, 0.8, count(12))):
        add("pmf", "--dist", "negbinomial", "--nb-size", (2, 5, 10)[i % 3], "--prob", fmt(prob),
            "--n-list", ("3", "5")[i % 2])
    for i, theta in enumerate(_strata(rng, 0.5, 30.0, count(40))):
        add("moments", "--theta", fmt(theta), "--n", (2, 3, 5, 8, 12, 20, 31, 50)[i % 8])
    for i, prob in enumerate(_strata(rng, 0.1, 0.9, count(16))):
        n = (2, 3, 5, 10)[i % 4]
        add("moments", "--dist", "binomial", "--trials", n * (4, 10, 25)[i % 3],
            "--prob", fmt(prob), "--n", n)
    for i, prob in enumerate(_strata(rng, 0.3, 0.8, count(12))):
        add("moments", "--dist", "negbinomial", "--nb-size", (2, 5)[i % 2], "--prob", fmt(prob),
            "--n", (3, 5, 10)[i % 3])
    for i in range(count(12)):
        add("true-significance", "--preset", ("fig4", "fig5")[i % 2],
            "--alpha-list", (0.01, 0.05, 0.1)[i // 2 % 3])
    for i in range(count(24)):
        grid = ",".join(fmt(x) for x in sorted(_strata(rng, 0.1, 0.9, 5)))
        add("true-significance", "--m", (50, 200, 500, 1000)[i % 4], "--n", (5, 11, 31)[i % 3],
            "--phi0-grid", grid, "--alpha-list", (0.01, 0.05, 0.1)[i % 3],
            "--modes", ("exact-y", "misspecified-u", "binned-u")[i % 3])
    for i, phi0 in enumerate(_strata(rng, 0.1, 0.9, count(30))):
        m, n = (20, 50, 100, 200, 500)[i % 5], (3, 7, 15, 31)[i % 4]
        mean, sd = m * n * phi0, math.sqrt(m * n * phi0 * (1.0 - phi0))
        u = n * round(max(0.0, mean + rng.uniform(-3.0, 3.0) * sd) / n)
        add("binned-test", "--u", u, "--m", m, "--n", n, "--phi0", fmt(phi0),
            "--alpha", (0.01, 0.05, 0.1)[i % 3])
    for i, theta in enumerate(_strata(rng, 0.5, 20.0, count(16))):
        n1, n2 = (3, 5, 10, 20)[i % 4], (3, 7, 10, 25)[i % 4]
        u1 = n1 * int(rng.integers(0, theta // n1 + 3))
        u2 = n2 * int(rng.integers(0, 2 * theta // n2 + 3))
        add("excess-deaths", "--u1", u1, "--u2", u2, "--n1", n1, "--n2", n2)
    for i, theta in enumerate(_strata(rng, 0.5, 20.0, count(16))):
        add("excess-deaths", "--n1", (3, 5, 10, 20)[i % 4], "--n2", (4, 7, 12, 30)[i % 4],
            "--theta", fmt(theta), "--beta", fmt(rng.uniform(0.0, theta)))
    for i, theta in enumerate(_strata(rng, 0.5, 10.0, count(16))):
        add("pgf-check", "--theta", fmt(theta), "--n", (2, 3, 5, 8)[i % 4], "--points", 20)
    return ops


def _run_cli(p, ctx):
    path = os.path.join(ctx["tmpdir"], f"op{ctx['index']}.csv")
    argv = [*p["argv"], "--seed", str(ctx["seed"]), "--out", path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliRefused(f"exit {code}: {err.getvalue().strip()}")
    return path


def _argv_value(argv, flag, default=None, cast=float):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


def _cli_model(argv) -> tuple:
    dist = _argv_value(argv, "--dist", "poisson", str)
    if dist == "poisson":
        return oracles.latent("poisson", _argv_value(argv, "--theta", 2.0))
    if dist == "binomial":
        return oracles.latent("binomial", _argv_value(argv, "--prob"),
                              trials=_argv_value(argv, "--trials", cast=int))
    return oracles.latent("negbinomial", _argv_value(argv, "--prob"),
                          nb_size=_argv_value(argv, "--nb-size"))


def _check_cli(p, path, ctx):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    verdicts, (config, columns, rows) = oracles.csv_round_trip(text)
    argv, command = p["argv"], p["argv"][0]
    if command == "pmf":
        for n in sorted({row[0] for row in rows}):
            probs = [row[2] for row in rows if row[0] == n]
            verdicts.append(("pmf_total_plus_truncation",
                             oracles.pmf_total(probs, config[f"truncation_mass_n{n}"])))
    elif command == "moments":
        ref = oracles.moments_enumerated(_cli_model(argv), int(config["n"]))
        for method, mean, variance, _ in rows:
            if method != "enumeration":
                verdicts.append(("moments_match_enumeration",
                                 oracles.moments_match(mean, variance, ref)))
    elif command in ("true-significance", "binned-test"):
        for row in rows:
            # Only the binned test promises a level at most alpha.
            if command == "binned-test":
                level, capped = row[4], True
            else:
                level, capped = row[3], row[0] == "binned-u"
            ok = 0.0 <= level <= 1.0 and (not capped or level <= row[1] + 1e-12)
            verdicts.append(("level_in_range", ok))
    elif command == "excess-deaths" and "--theta" in argv:
        theta, beta = config["theta"], config["beta"]
        n1, n2 = config["n1"], config["n2"]
        pre = oracles.moments_enumerated(oracles.latent("poisson", theta), n1)
        post = oracles.moments_enumerated(oracles.latent("poisson", theta + beta), n2)
        values = dict(rows)
        ratio = n2 / n1
        ref = (post[0] - ratio * pre[0], post[1] + ratio**2 * pre[1])
        verdicts.append(("moments_match_enumeration",
                         oracles.moments_match(values["mean_rounded"], values["var_rounded"], ref)))
    elif command == "pgf-check":
        verdicts.append(("pgf_matches_series", max(row[6] for row in rows) <= 1e-9))
    return verdicts


# --- tables-wide (library) ----------------------------------------------------

def _tables_wide(rng, tiny: bool) -> list[Op]:
    ops = []
    if tiny:
        means, small, trials, sig_m = [2e4], [1e4], [3e5], [1e4]
        moment_n, thetas = (1000,), [1.0]
    else:
        means, small = _grid(rng, 1e4, 1e7, 12, jitter=0.02), _strata(rng, 1e4, 1e5, 48)
        trials, sig_m = _grid(rng, 3e5, 3e7, 4, jitter=0.02), _grid(rng, 1e4, 2e5, 12)
        moment_n, thetas = (100, 1000, 5000), _grid(rng, 0.1, 1000.0, 6)
    # The largest mean meets the smallest n: about 3.3M entries, the size cap.
    for i, mean in enumerate(means):
        ops.append(Op("pmf.poisson", dict(family="poisson", param=mean,
                                          n=(31, 7, 3)[i % 3], tie_rule=_tie(i))))
    for i, mean in enumerate(small):
        ops.append(Op("pmf.poisson", dict(family="poisson", param=mean,
                                          n=(3, 7, 31)[i % 3], tie_rule=_tie(i))))
    for i, total in enumerate(trials):
        ops.append(Op("pmf.binomial", dict(family="binomial", param=float(rng.uniform(0.1, 0.9)),
                                           trials=int(total), n=31, tie_rule=_tie(i))))
    for i, m in enumerate(sig_m):
        ops.append(Op("app.true_significance", dict(
            m=int(m), n=31, phi0=float(rng.uniform(0.1, 0.9)), alpha=(0.01, 0.05, 0.1)[i % 3],
            mode=("misspecified-u", "binned-u", "exact-y")[i % 3])))
    for i, m in enumerate(sig_m):
        phi0 = float(rng.uniform(0.1, 0.9))
        mean, sd = m * 31 * phi0, math.sqrt(m * 31 * phi0 * (1.0 - phi0))
        ops.append(Op("app.binned_test", dict(
            m=int(m), n=31, phi0=phi0, alpha=(0.01, 0.05, 0.1)[i % 3],
            u=31 * round((mean + rng.uniform(-3.0, 3.0) * sd) / 31))))
    # Moments at theta << n: today's series raises on many of these points,
    # and those refusals stay in the workload as failures.
    for n in moment_n:
        for theta in thetas:
            for route in ("series", "closed", "enumeration"):
                ops.append(Op(f"moments.{route}", dict(theta=theta, n=n)))
    for i in range(1 if tiny else 6):
        n1, n2 = (100, 1000, 5000)[i % 3], (1000, 5000, 100)[i % 3]
        theta = _grid(rng, 0.5, 500.0, 6)[i] if not tiny else 2.0
        ops.append(Op("app.excess_moments", dict(n1=n1, n2=n2, theta=theta,
                                                 beta=float(rng.uniform(0.0, theta)))))
    return ops


def _wide_model(p):
    if p["family"] == "poisson":
        return rc.Poisson(p["param"])
    return rc.Binomial(p["trials"], p["param"])


def _run_pmf(p, ctx):
    return rc.rounded_pmf(_wide_model(p), rc.RoundingScheme(p["n"], p["tie_rule"]))


def _check_pmf(p, table, ctx):
    return [("pmf_total_plus_truncation", oracles.pmf_total(table.probs, table.truncation_mass))]


def _run_significance(p, ctx):
    return rc.true_significance(p["m"], p["n"], [p["phi0"]], p["alpha"], p["mode"])


def _check_significance(p, curve, ctx):
    level = float(curve.true_level[0])
    bounded = level <= p["alpha"] + 1e-12 if p["mode"] == "binned-u" else True
    return [("level_in_range", 0.0 <= level <= 1.0 and bounded)]


def _run_binned(p, ctx):
    return rc.binned_binomial_test(p["u"], p["m"], p["n"], p["phi0"], p["alpha"])


def _check_binned(p, result, ctx):
    rejected = ((result.lower_cut is not None and p["u"] <= result.lower_cut)
                or (result.upper_cut is not None and p["u"] >= result.upper_cut))
    ok = 0.0 <= result.true_level <= p["alpha"] + 1e-12 and rejected == result.reject
    return [("level_in_range", ok)]


def _run_moments(route):
    def run(p, ctx):
        model, scheme = rc.Poisson(p["theta"]), rc.RoundingScheme(p["n"])
        if route == "series":
            return rc.rounded_moments_series(model, scheme)
        if route == "closed":
            return rc.rounded_moments_poisson(p["theta"], p["n"])
        table = rc.rounded_pmf(model, scheme, 1e-14)
        return rc.MomentReport(table.mean(), table.variance(), 0.0)
    return run


def _check_moments(p, report, ctx):
    ref = oracles.moments_enumerated(oracles.latent("poisson", p["theta"]), p["n"])
    return [("moments_match_enumeration", oracles.moments_match(report.mean, report.variance, ref))]


def _run_excess(p, ctx):
    return rc.excess_moments(rc.ExcessDeathsDesign(p["n1"], p["n2"], p["theta"], p["beta"]))


def _check_excess(p, result, ctx):
    pre = oracles.moments_enumerated(oracles.latent("poisson", p["theta"]), p["n1"])
    post = oracles.moments_enumerated(oracles.latent("poisson", p["theta"] + p["beta"]), p["n2"])
    ratio = p["n2"] / p["n1"]
    ref = (post[0] - ratio * pre[0], post[1] + ratio**2 * pre[1])
    return [("moments_match_enumeration",
             oracles.moments_match(result.mean_rounded, result.var_rounded, ref))]


KINDS = {
    "mc.poisson": (_run_mc, _check_mc),
    "mc.binomial": (_run_mc, _check_mc),
    "mc.negbinomial": (_run_mc, _check_mc),
    "mle.poisson": (_run_mle, _check_mle),
    "mle.binomial": (_run_mle, _check_mle),
    "mle.negbinomial": (_run_mle, _check_mle),
    "mle.ratio_curve": (_run_ratio, _check_ratio),
    "mle.exact_mse": (_run_exact_mse, _check_exact_mse),
    **{f"cli.{c}": (_run_cli, _check_cli) for c in
       ("pmf", "moments", "true-significance", "binned-test", "excess-deaths", "pgf-check")},
    "pmf.poisson": (_run_pmf, _check_pmf),
    "pmf.binomial": (_run_pmf, _check_pmf),
    "app.true_significance": (_run_significance, _check_significance),
    "app.binned_test": (_run_binned, _check_binned),
    "moments.series": (_run_moments("series"), _check_moments),
    "moments.closed": (_run_moments("closed"), _check_moments),
    "moments.enumeration": (_run_moments("enumeration"), _check_moments),
    "app.excess_moments": (_run_excess, _check_excess),
}

_BUILDERS = {"mc-sim": _mc_sim, "mle-fit": _mle_fit, "tables": _tables,
             "tables-wide": _tables_wide}


def build(workload: str, seed: int, size: str = "standard") -> list[Op]:
    return _BUILDERS[workload](_rng(seed, workload), size == "tiny")


def fingerprint(output) -> str:
    """Exact digest of an operation's output; CLI outputs digest the file."""
    digest = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            digest.update(repr((value.dtype.str, value.shape)).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                feed(getattr(value, field.name))
        elif isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        else:
            digest.update(repr(value).encode())

    if isinstance(output, str) and output.endswith(".csv"):
        with open(output, "rb") as fh:
            digest.update(fh.read())
    else:
        feed(output)
    return digest.hexdigest()
