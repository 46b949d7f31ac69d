"""Command-line interface emitting CSV/JSON tables for external plotting.

Every subcommand echoes its fully resolved configuration (defaults and seed
included) into the output header, writes reals with 17 significant digits
and exits 0 on success, 2 on usage errors (an ``--out`` path that cannot be
written included) and 1 on numerical failures, with a machine-readable
error line on stderr.  Deterministic subcommands rerun with the same seed
produce byte-identical files.

``--out PATH`` overwrites an existing file in place: the table is rendered
once, written over the old bytes and the file is then cut to the new
length, so its inode, permission bits and links stay as they were.  The
write is not atomic.  A refused command writes nothing.

Figure presets bundle the settings behind the package's reference plots::

    roundedcounts pmf --preset fig1                 # pmf of the rounded total
    roundedcounts mse-sim --preset fig2             # simulated MSE vs the rate
    roundedcounts mse-sim --preset fig3             # simulated MSE vs group count
    roundedcounts true-significance --preset fig4   # misspecified normal test
    roundedcounts true-significance --preset fig5   # conservative binned test
    roundedcounts mse-ratio --preset fig6           # rounded/unrounded MSE ratio

A preset is a prefix of flags: ``--preset fig1`` parses as ``--theta 2
--n-list 1,3,10`` in front of the flags given, and argparse keeps the last
value, so any flag passed explicitly wins over the preset.

The parser is built once per process (``build_parser`` is cached) and is
never changed after that.  A shell command still builds it once; the saving
is for callers of ``main`` that run many commands in one process.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import stat
import sys

import numpy as np

from . import tableio
from .applications import (
    MODE_BINNED_U,
    MODE_EXACT_Y,
    MODE_MISSPECIFIED_U,
    ExcessDeathsDesign,
    binned_binomial_test,
    excess_moments,
    excess_point_estimates,
    true_significance,
)
from .distributions import FAMILIES
from .estimation import (
    _ESTIMATOR_NAMES,
    NoMaximumError,
    _cell_mse,
    mse_ratio_curve,
    numeric_mle,
    poisson_mle_closed,
)
from .rounding import (
    HALF_EVEN,
    HALF_UP,
    MAX_TABLE_ENTRIES,
    SERIES_RTOL,
    TAIL_EPS,
    NearRootOfUnityError,
    NumericalInconsistencyError,
    RoundingScheme,
    _accepted,
    _latent_window,
    _moments_series,
    _table_over,
    rounded_pgf,
    rounded_pmf,
)
from .simulate import ExperimentConfig, run_mse_experiment

__all__ = ["main", "build_parser"]

SEED_ENV_VAR = "ROUNDEDCOUNTS_SEED"
_DEFAULT_SEED = 12345

_NUMERICAL_ERRORS = (
    NearRootOfUnityError,
    NumericalInconsistencyError,
    NoMaximumError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
)


def _non_empty(values: list, text: str) -> list:
    # argparse reports this error with the flag's name and exits 2.
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no values")
    return values


def parse_float_list(text: str) -> list[float]:
    """Comma list ("0.1,0.5,2") or inclusive range ("0.1:0.9:0.05"); never
    empty.  A range must be finite and hold at most ``MAX_TABLE_ENTRIES`` points."""
    if ":" in text:
        start, stop, step = (float(part) for part in text.split(":"))
        if not np.all(np.isfinite((start, stop, step))):
            raise argparse.ArgumentTypeError(f"grid range {text!r} must be finite")
        if step <= 0:
            raise argparse.ArgumentTypeError(f"grid step must be positive in {text!r}")
        span = (stop - start) / step
        if not span < MAX_TABLE_ENTRIES - 0.5:  # more than the limit, or inf
            raise argparse.ArgumentTypeError(f"grid range {text!r} holds more points than "
                                             f"the limit, {MAX_TABLE_ENTRIES}")
        count = int(round(span))
        return _non_empty([round(start + i * step, 12) for i in range(count + 1)], text)
    return _non_empty([float(part) for part in text.split(",") if part], text)


def parse_int_list(text: str) -> list[int]:
    """Comma list ("1,3,10"); never empty."""
    return _non_empty([int(part) for part in text.split(",") if part], text)


def parse_estimator_list(text: str) -> str:
    """Comma list of estimator names ("u,closed-mle"), returned as given."""
    for name in text.split(","):
        if name not in _ESTIMATOR_NAMES:
            raise argparse.ArgumentTypeError(f"unknown estimator {name!r} in {text!r}")
    return text


def _build_model(args) -> tuple[object, dict]:
    family = FAMILIES[args.dist]
    names = [name for name in (family.fixed, family.fitted) if name]
    values = {name: getattr(args, name) for name in names}
    if None in values.values():
        flags = " and ".join("--" + name.replace("_", "-") for name in names)
        raise ValueError(f"the {family.name} family requires {flags}")
    model = family.make(values[family.fitted], values.get(family.fixed))
    return model, {"dist": args.dist, **values}


#: Figure presets, written as the flag values they stand for; a flag a
#: preset does not name keeps its subcommand's built-in default.
_PRESETS = {
    "fig1": {"theta": "2", "n_list": "1,3,10"},
    "fig2": {"param_grid": "0.05:4:0.05", "n_list": "2,5,10,25,50"},
    "fig3": {"param_grid": "0.2,0.5,1.0,2.0", "n_list": "1,2,5,10,25,50,100,200"},
    "fig4": {"alpha_list": "0.01,0.05,0.1", "modes": f"{MODE_EXACT_Y},{MODE_MISSPECIFIED_U}"},
    "fig5": {"alpha_list": "0.01,0.05,0.1", "modes": MODE_BINNED_U},
    "fig6": {"n_list": "1,2,5,10,25"},
}


class _CommandParser(argparse.ArgumentParser):
    """Subcommand parser that applies ``--preset``: the arguments are parsed
    again behind the preset's flags, so an explicit flag wins over the
    preset and the preset over the built-in default.  The parser itself is
    left unchanged, which lets ``build_parser`` be cached."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if parsed.preset:
            flags = [item for dest, value in _PRESETS[parsed.preset].items()
                     for item in ("--" + dest.replace("_", "-"), value)]
            parsed, extras = super().parse_known_args([*flags, *args], namespace)
        return parsed, extras


def _add_common(parser: argparse.ArgumentParser, presets=()):
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the table to PATH instead of stdout (over it in place)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"random seed (default: ${SEED_ENV_VAR} or {_DEFAULT_SEED})")
    if presets:
        parser.add_argument("--preset", choices=list(presets), default=None,
                            help="figure preset supplying default settings")
    else:
        parser.set_defaults(preset=None)


def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--dist", choices=list(FAMILIES), default="poisson",
                        help="latent count family")
    parser.add_argument("--theta", type=float, default=None, help="Poisson mean of the total")
    parser.add_argument("--trials", type=int, default=None, help="binomial total trial count")
    parser.add_argument("--prob", type=float, default=None,
                        help="success probability (binomial / negative binomial)")
    parser.add_argument("--nb-size", type=float, default=None,
                        help="negative binomial size: counts failures before this many successes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundedcounts",
        description="Exact and simulated inference for counts observed through a rounded average",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("pmf", help="tabulate the distribution of the rounded total")
    _add_model_flags(p)
    p.add_argument("--n-list", type=parse_int_list, default="3", metavar="N[,N...]",
                   help="group counts (default: 3)")
    p.add_argument("--tie-rule", choices=[HALF_UP, HALF_EVEN], default=HALF_UP)
    p.add_argument("--tail-eps", type=float, default=TAIL_EPS)
    _add_common(p, presets=["fig1"])

    p = sub.add_parser("pgf-check", help="compare the closed generating function with the tabulated series")
    _add_model_flags(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--points", type=int, default=50)
    _add_common(p)

    p = sub.add_parser("moments", help="mean and variance of the rounded total by every available route")
    _add_model_flags(p)
    p.add_argument("--n", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("mle", help="estimate the free parameter from one rounded total")
    p.add_argument("--dist", choices=list(FAMILIES), default="poisson", help="latent count family")
    p.add_argument("--trials", type=int, default=None, help="binomial total trial count")
    p.add_argument("--nb-size", type=float, default=None,
                   help="negative binomial size: counts failures before this many successes")
    p.add_argument("--u", type=int, required=True, help="observed rounded total")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tie-rule", choices=[HALF_UP, HALF_EVEN], default=HALF_UP)
    _add_common(p)

    p = sub.add_parser("mse-sim", help="simulated estimator MSE over a parameter grid")
    p.add_argument("--dist", choices=list(FAMILIES), default="poisson")
    p.add_argument("--param-grid", type=parse_float_list, default=None,
                   metavar="GRID", help="per-measurement means (Poisson) or probabilities")
    p.add_argument("--n-list", type=parse_int_list, default=None)
    p.add_argument("--reps", type=int, default=50_000, help="replications per cell (default: 50000)")
    p.add_argument("--estimators", type=parse_estimator_list, default="u,closed-mle",
                   metavar="NAME[,NAME...]",
                   help="subset of u,closed-mle,numeric-mle (default: u,closed-mle)")
    p.add_argument("--trials-per-measurement", type=int, default=None)
    p.add_argument("--nb-size", type=float, default=None)
    p.add_argument("--tie-rule", choices=[HALF_UP, HALF_EVEN], default=HALF_UP)
    _add_common(p, presets=["fig2", "fig3"])

    p = sub.add_parser("mse-exact", help="exact estimator MSE over the table of U")
    p.add_argument("--dist", choices=list(FAMILIES), default="poisson")
    p.add_argument("--param-grid", type=parse_float_list, required=True)
    p.add_argument("--n-list", type=parse_int_list, required=True)
    p.add_argument("--estimator", choices=_ESTIMATOR_NAMES, default="u")
    p.add_argument("--trials-per-measurement", type=int, default=None)
    p.add_argument("--nb-size", type=float, default=None)
    p.add_argument("--tie-rule", choices=[HALF_UP, HALF_EVEN], default=HALF_UP)
    _add_common(p)

    p = sub.add_parser("mse-ratio", help="MSE ratio of fitted parameters: rounded over unrounded counts")
    p.add_argument("--dist", choices=list(FAMILIES), default=None,
                   help="family (fig6 preset runs all three when omitted)")
    p.add_argument("--param-grid", type=parse_float_list, default=None)
    p.add_argument("--n-list", type=parse_int_list, default=None)
    p.add_argument("--trials", type=int, default=None,
                   help="fixed binomial total trial count shared by every group count")
    p.add_argument("--nb-size", type=float, default=None)
    _add_common(p, presets=["fig6"])

    p = sub.add_parser("binned-test", help="exact conservative test of a success probability from a rounded total")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="trials per measurement")
    p.add_argument("--n", type=int, required=True, help="number of measurements")
    p.add_argument("--phi0", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)

    p = sub.add_parser("true-significance", help="exact level of the nominal test across null probabilities")
    p.add_argument("--m", type=int, default=500, help="trials per measurement (default: 500)")
    p.add_argument("--n", type=int, default=31, help="number of measurements (default: 31)")
    p.add_argument("--phi0-grid", type=parse_float_list, default="0.1:0.9:0.05")
    p.add_argument("--alpha-list", type=parse_float_list, default="0.05")
    p.add_argument("--modes", default=MODE_EXACT_Y, metavar="MODE[,MODE...]",
                   help=f"subset of {MODE_EXACT_Y},{MODE_MISSPECIFIED_U},{MODE_BINNED_U}")
    _add_common(p, presets=["fig4", "fig5"])

    p = sub.add_parser("excess-deaths", help="excess estimates or their exact moments for two rounded periods")
    p.add_argument("--u1", type=int, default=None, help="observed rounded pre-period total")
    p.add_argument("--u2", type=int, default=None, help="observed rounded post-period total")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--theta", type=float, default=None, help="pre-period mean (moment mode)")
    p.add_argument("--beta", type=float, default=None, help="excess mean (moment mode)")
    _add_common(p)

    return parser


def _cmd_pmf(args, seed):
    model, model_cfg = _build_model(args)
    config = {**model_cfg, "n_list": ",".join(map(str, args.n_list)), "tie_rule": args.tie_rule,
              "tail_eps": args.tail_eps, "seed": seed}
    rows = []
    window = _latent_window(model, args.tail_eps)
    for n in args.n_list:
        table = _table_over(model, RoundingScheme(n, args.tie_rule), window)
        config[f"truncation_mass_n{n}"] = table.truncation_mass
        rows.extend([n, int(u), float(p)] for u, p in table.items())
    return config, ["n", "u", "prob"], rows


#: Complex entries per array in one ``pgf-check`` block; the evaluation
#: holds about five arrays this size, so a block stays a few MiB.
_PGF_BLOCK_ENTRIES = 2**16


def _disk_points(rng: np.random.Generator, roots: np.ndarray, count: int, block: int):
    """The first ``count`` points that ``pgf-check``'s rejection sampler
    accepts, in arrays of at most ``block`` points.

    Each candidate is a pair of uniforms on [-1, 1] drawn in order, taken
    as (real, imaginary), and is accepted when 1e-3 <= |s| <= 1 and s lies
    at least 1e-3 from every n-th root of unity.  Candidates are drawn in
    batches; the points accepted and their order do not depend on the
    batch size.
    """
    while count > 0:
        pairs = rng.uniform(-1.0, 1.0, size=(min(block, 2 * count), 2))
        s = pairs.view(complex)[:, 0]
        radius = np.hypot(pairs[:, 0], pairs[:, 1])  # Python's abs of a complex
        accept = ((radius <= 1.0) & (radius >= 1e-3)
                  & (np.abs(s[:, None] - roots).min(axis=1) >= 1e-3))
        s = s[accept][:count]
        count -= len(s)
        if len(s):
            yield s


def _cmd_pgf_check(args, seed):
    """The closed generating function against the series over the table of U
    at ``--points`` random points of the unit disk (see ``_disk_points``).

    Points are drawn and both forms evaluated in blocks of at most
    ``_PGF_BLOCK_ENTRIES // max(n, table length)`` points (at least one),
    one call of each form per block, so each array stays near the size of
    one point's at large n; ``--points`` above ``MAX_TABLE_ENTRIES`` is
    refused.
    """
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.points > MAX_TABLE_ENTRIES:
        raise ValueError(f"--points must be at most the limit, {MAX_TABLE_ENTRIES}, "
                         f"got {args.points}")
    model, model_cfg = _build_model(args)
    scheme = RoundingScheme(args.n, HALF_UP)
    table = rounded_pmf(model, scheme, 1e-14)
    roots = scheme.table.omega_pow
    block = max(1, min(MAX_TABLE_ENTRIES, _PGF_BLOCK_ENTRIES) // max(args.n, len(table.probs)))
    rows = []
    for s in _disk_points(np.random.default_rng(seed), roots, args.points, block):
        direct, series = rounded_pgf(model, scheme, s), table.pgf(s)
        diff = direct - series
        rows += np.stack([s.real, s.imag, direct.real, direct.imag, series.real, series.imag,
                          np.hypot(diff.real, diff.imag)], axis=1).tolist()
    config = {**model_cfg, "n": args.n, "points": args.points, "seed": seed}
    return config, ["s_re", "s_im", "direct_re", "direct_im", "series_re", "series_im",
                    "abs_diff"], rows


def _cmd_moments(args, seed):
    """The paper's series and the enumerated table of U, one row each.

    The series row is the formula as computed (``_moments_series``), with a
    negative variance within its bound set to 0.  Where its forward error
    bound exceeds ``SERIES_RTOL`` the row is left out and stderr says why;
    the header records the bound (``series_error_bound``) and whether the
    row was refused (``series_refused``).  The enumeration leaves out at
    most ``TAIL_EPS/n**2`` each side, the cut of the routed table in
    ``rounded_moments_series`` (a far block weighs up to n**2 in the
    variance), clamped to 1e-14 so that the rows at n <= 10 stay as they
    were; a change to that cut belongs in both places.
    """
    model, model_cfg = _build_model(args)
    scheme = RoundingScheme(args.n, HALF_UP)
    raw = _moments_series(model, scheme)
    series = _accepted(raw)
    rows = []
    if series is None:
        print(json.dumps({"warning": f"series row left out: its error bound {raw.error_bound:.3e} "
                                     f"is over {SERIES_RTOL:.0e} of max(1, |value|)"}),
              file=sys.stderr)
    else:
        rows.append(["series", series.mean, series.variance, series.imag_residual])
    table = rounded_pmf(model, scheme, min(1e-14, TAIL_EPS / args.n**2))
    rows.append(["enumeration", table.mean(), table.variance(), 0.0])
    config = {**model_cfg, "n": args.n, "seed": seed, "series_error_bound": raw.error_bound,
              "series_refused": series is None}
    return config, ["method", "mean", "variance", "imag_residual"], rows


def _cmd_mle(args, seed):
    scheme = RoundingScheme(args.n, args.tie_rule)
    rows = []
    if FAMILIES[args.dist].product_form:
        closed = poisson_mle_closed(args.u, args.n)
        rows.append(["closed-form", closed.value, closed.loglik_at_optimum])
    numeric = numeric_mle(args.u, scheme, args.dist, trials=args.trials, nb_size=args.nb_size)
    rows.append(["numeric", numeric.value, numeric.loglik_at_optimum])
    config = {"dist": args.dist, "u": args.u, "n": args.n, "tie_rule": args.tie_rule,
              "trials": args.trials, "nb_size": args.nb_size, "seed": seed}
    return config, ["method", "estimate", "loglik"], rows


def _experiment(args, seed, **fields) -> tuple[ExperimentConfig, dict]:
    """The experiment that the flags of ``mse-sim`` and ``mse-exact`` describe,
    and the header entries the two commands share."""
    experiment = ExperimentConfig(
        seed=seed, family=args.dist, param_grid=tuple(args.param_grid),
        n_list=tuple(args.n_list), tie_rule=args.tie_rule,
        trials_per_measurement=args.trials_per_measurement, nb_size=args.nb_size, **fields)
    config = {"family": args.dist, "param_grid": ",".join(map(str, args.param_grid)),
              "n_list": ",".join(map(str, args.n_list)), "tie_rule": args.tie_rule,
              "trials_per_measurement": args.trials_per_measurement,
              "nb_size": args.nb_size, "seed": seed}
    return experiment, config


def _cmd_mse_sim(args, seed):
    if args.param_grid is None or args.n_list is None:
        raise ValueError("--param-grid and --n-list are required without a preset")
    experiment, config = _experiment(args, seed, reps=args.reps,
                                     estimators=tuple(args.estimators.split(",")))
    table = run_mse_experiment(experiment)
    config.update(reps=args.reps, estimators=args.estimators)
    return config, list(table.columns), table.to_rows()


def _cmd_mse_exact(args, seed):
    experiment, config = _experiment(args, seed, estimators=(args.estimator,))
    rows = []
    for param in args.param_grid:
        for n in args.n_list:
            model, scheme = experiment.model_for(param, n), RoundingScheme(n, args.tie_rule)
            table = rounded_pmf(model, scheme, TAIL_EPS)
            mse, _ = _cell_mse(args.estimator, model, scheme, table.support, table.probs)
            rows.append([args.dist, param, n, args.estimator, mse])
    config.update(estimator=args.estimator, tail_eps=TAIL_EPS)
    return config, ["family", "param", "n", "estimator", "mse"], rows


def _cmd_mse_ratio(args, seed):
    if args.dist is None and args.preset != "fig6":
        raise ValueError("--dist is required without the fig6 preset")
    if args.n_list is None:
        raise ValueError("--n-list is required without the fig6 preset")
    families = [args.dist] if args.dist else list(FAMILIES)
    config = {"families": ",".join(families), "n_list": ",".join(map(str, args.n_list)),
              "tail_eps": TAIL_EPS, "trials": None, "nb_size": None, "seed": seed}
    rows = []
    for family in families:
        spec = FAMILIES[family]
        grid = args.param_grid if args.param_grid is not None else parse_float_list(spec.ratio_grid)
        fixed = {}
        if spec.fixed:
            value = getattr(args, spec.fixed)
            fixed[spec.fixed] = spec.ratio_fixed if value is None else value
        curve = mse_ratio_curve(family, grid, args.n_list, **fixed)
        rows.extend([family, param, n, mr, mu, psi]
                    for param, n, mr, mu, psi in curve.iter_rows())
        config[f"param_grid_{family}"] = ",".join(map(str, grid))
        config.update(fixed)
    return config, ["family", "param", "n", "mse_rounded", "mse_unrounded", "psi"], rows


def _cmd_binned_test(args, seed):
    result = binned_binomial_test(args.u, args.m, args.n, args.phi0, args.alpha)
    config = {"u": args.u, "m": args.m, "n": args.n, "phi0": args.phi0,
              "alpha": args.alpha, "seed": seed}
    rows = [[args.phi0, args.alpha, args.u, result.reject, result.true_level,
             result.lower_cut, result.upper_cut]]
    return config, ["phi0", "alpha", "u", "reject", "true_level", "lower_cut",
                    "upper_cut"], rows


def _cmd_true_significance(args, seed):
    m, n, phi0_grid, alpha_list, modes = args.m, args.n, args.phi0_grid, args.alpha_list, args.modes
    rows = []
    for mode in modes.split(","):
        for alpha in alpha_list:
            curve = true_significance(m, n, phi0_grid, alpha, mode)
            rows.extend([mode, alpha, float(phi0), float(level)]
                        for phi0, level in zip(phi0_grid, curve.true_level))
    config = {"m": m, "n": n, "phi0_grid": ",".join(map(str, phi0_grid)),
              "alpha_list": ",".join(map(str, alpha_list)), "modes": modes, "seed": seed}
    return config, ["mode", "alpha", "phi0", "true_level"], rows


def _cmd_excess_deaths(args, seed):
    rows = []
    have_point = args.u1 is not None and args.u2 is not None
    have_design = args.theta is not None
    if not have_point and not have_design:
        raise ValueError("provide --u1/--u2 for point estimates or --theta/--beta for moments")
    if args.beta is not None and not have_design:
        raise ValueError("--beta is the excess of the moment mode and needs --theta")
    if have_point:
        plain, fitted = excess_point_estimates(args.u1, args.u2, args.n1, args.n2)
        rows.append(["excess_plain", plain])
        rows.append(["excess_mle", fitted])
    if have_design:
        beta = args.beta if args.beta is not None else 0.0
        moments = excess_moments(ExcessDeathsDesign(args.n1, args.n2, args.theta, beta))
        rows.append(["mean_rounded", moments.mean_rounded])
        rows.append(["var_rounded", moments.var_rounded])
        rows.append(["mean_unrounded", moments.mean_unrounded])
        rows.append(["var_unrounded", moments.var_unrounded])
    config = {"u1": args.u1, "u2": args.u2, "n1": args.n1, "n2": args.n2,
              "theta": args.theta, "beta": args.beta, "seed": seed}
    return config, ["quantity", "value"], rows


_HANDLERS = {
    "pmf": _cmd_pmf,
    "pgf-check": _cmd_pgf_check,
    "moments": _cmd_moments,
    "mle": _cmd_mle,
    "mse-sim": _cmd_mse_sim,
    "mse-exact": _cmd_mse_exact,
    "mse-ratio": _cmd_mse_ratio,
    "binned-test": _cmd_binned_test,
    "true-significance": _cmd_true_significance,
    "excess-deaths": _cmd_excess_deaths,
}


def _emit(args, config, columns, rows) -> None:
    stream = io.StringIO()
    write = tableio.write_json if args.format == "json" else tableio.write_csv
    write(stream, config, columns, rows)
    if not args.out:
        sys.stdout.write(stream.getvalue())
        return
    # Written over the old bytes, then cut to length: truncating to zero
    # first makes ext4 (auto_da_alloc) flush the data at close.  Only a
    # regular file is cut; O_BINARY keeps LF line ends on Windows.
    data = stream.getvalue().encode("utf-8")
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    seed = int(os.environ.get(SEED_ENV_VAR, _DEFAULT_SEED)) if args.seed is None else args.seed
    try:
        config, columns, rows = _HANDLERS[args.command](args, seed)
        config.setdefault("command", args.command)
        config.setdefault("format", args.format)
        _emit(args, config, columns, rows)
    except _NUMERICAL_ERRORS as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
