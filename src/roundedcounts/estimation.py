"""Parameter estimation from a rounded total and estimator quality metrics.

Estimation here is interval-censored: observing u only reveals that the
latent count fell in the block of values rounding to u, so the likelihood
is the block-summed ("binned") pmf.  For the Poisson family the maximizing
rate has a product form; every family supports bracketed one-dimensional
numerical maximization.  The module also provides exact (enumeration-based)
and Monte Carlo mean squared errors and the rounded-versus-unrounded MSE
ratio curves used to quantify the inferential cost of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from .distributions import Binomial, CountDistribution, NegativeBinomial, Poisson
from .rounding import (
    HALF_UP,
    RoundingScheme,
    round_count,
    rounded_logpmf,
    rounded_pmf,
    sample_u,
    support_block,
)
from .sampling import rng_substream

__all__ = [
    "Estimate",
    "NoMaximumError",
    "MonteCarloResult",
    "MseRatioCurve",
    "poisson_mle_closed",
    "numeric_mle",
    "exact_mse",
    "expected_value_exact",
    "mse_ratio_curve",
    "monte_carlo_mse",
]

_FAMILIES = ("poisson", "binomial", "negbinomial")

#: Lower bracket edge for the Poisson rate search (on the log scale).
_POISSON_RATE_FLOOR = 1e-8


class NoMaximumError(RuntimeError):
    """Raised when the binned likelihood is identically zero on the search
    bracket, so no maximizer exists."""


@dataclass
class Estimate:
    """A fitted parameter value with the log-likelihood it attains."""

    value: float
    method: str
    loglik_at_optimum: float
    converged: bool


def poisson_mle_closed(u, n: int) -> Estimate:
    """Product-form estimate of a Poisson rate from one rounded total u.

    The estimate is the geometric mean of the strictly positive latent
    values in the block that rounds to u (computed as a mean of logs); if no
    positive value remains, which happens at u = 0 for n <= 2, the estimate
    is 0.

    At u = 0 with n >= 3 the block contains 0, and dropping it makes the
    product-form value exceed the likelihood supremum, which sits at the
    boundary rate 0 (the probability of observing 0 tends to one as the
    rate vanishes); the numerical maximizer reports that boundary value
    instead.  Both behaviors are deliberate: the product form is the
    reference estimator whose large-sample mean the asymptotic formulas
    describe.
    """
    scheme = RoundingScheme(int(n), HALF_UP)
    factors = np.array([f for f in support_block(u, scheme) if f > 0], dtype=float)
    if factors.size == 0:
        return Estimate(value=0.0, method="closed-form", loglik_at_optimum=0.0, converged=True)
    value = float(np.exp(np.mean(np.log(factors))))
    loglik = rounded_logpmf(Poisson(value), scheme, u)
    return Estimate(value=value, method="closed-form", loglik_at_optimum=loglik, converged=True)


def _model_factory(family: str, trials, nb_size) -> Callable[[float], CountDistribution]:
    if family == "poisson":
        return Poisson
    if family == "binomial":
        if trials is None:
            raise ValueError("binomial estimation requires trials")
        return lambda p: Binomial(trials, p)
    if family == "negbinomial":
        if nb_size is None:
            raise ValueError("negative binomial estimation requires nb_size")
        return lambda p: NegativeBinomial(nb_size, p)
    raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")


def _poisson_score_root(u, scheme: RoundingScheme, log_lo: float, log_hi: float):
    """Interior stationary point of the Poisson block log-likelihood.

    The derivative of the block probability in the rate is the pmf at the
    point just below the block minus the pmf at its top, so the stationarity
    condition reduces to a strictly monotone sign comparison of two log-pmf
    values; bracketed root finding on it is accurate to ~1e-12 in log-rate,
    far beyond what value-based maximization can resolve for large totals.
    """
    block = support_block(u, scheme)
    below, top = block.start - 1, block.stop - 1
    if below < 0:
        return None  # block starts at 0: likelihood decreasing, boundary case

    def score(x: float) -> float:
        model = Poisson(math.exp(x))
        return float(model.logpmf(below) - model.logpmf(top))

    s_lo, s_hi = score(log_lo), score(log_hi)
    if not (s_lo > 0.0 > s_hi):
        return None
    return float(optimize.brentq(score, log_lo, log_hi, xtol=1e-13))


def numeric_mle(u, scheme: RoundingScheme, family: str = "poisson", *,
                trials: int | None = None, nb_size: float | None = None) -> Estimate:
    """Maximize the binned log-likelihood of u over the single free parameter.

    The Poisson rate is searched on the log scale over
    [log 1e-8, log(u + n + 10*sqrt(u+1))] and its interior optimum is
    refined by solving the stationarity condition with bracketed root
    finding; success probabilities are searched on their natural [0, 1]
    bracket.  Bracket endpoints are always evaluated so boundary maxima
    (u = 0, or saturated success counts) are reported exactly; a Poisson
    search won by the lower edge reports the boundary rate 0.
    """
    make = _model_factory(family, trials, nb_size)
    u = int(u)

    if family == "poisson":
        lo = math.log(_POISSON_RATE_FLOOR)
        hi = math.log(u + scheme.n + 10.0 * math.sqrt(u + 1.0))
        objective = lambda x: -rounded_logpmf(make(math.exp(x)), scheme, u)
        to_param = math.exp
    else:
        eps = 1e-9
        lo, hi = (eps, 1.0) if family == "negbinomial" else (0.0, 1.0)
        objective = lambda x: -rounded_logpmf(make(x), scheme, u)
        to_param = float

    res = optimize.minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-10})
    edge_loglik = -objective(lo)
    candidates = [(edge_loglik, lo), (-objective(hi), hi)]
    if np.isfinite(res.x):
        candidates.append((-res.fun, res.x))
        # Brent's termination has a sqrt(eps)*|x| floor; re-centering the
        # search at the found optimum removes it.
        center = float(res.x)
        window = max(1e-3, 1e4 * np.sqrt(np.finfo(float).eps) * abs(center))
        span_lo = max(lo, center - window)
        span_hi = min(hi, center + window)
        polish = optimize.minimize_scalar(lambda d: objective(center + d),
                                          bounds=(span_lo - center, span_hi - center),
                                          method="bounded", options={"xatol": 1e-12})
        if np.isfinite(polish.x):
            candidates.append((-polish.fun, center + float(polish.x)))
    best_loglik, best_x = max(candidates, key=lambda c: c[0])
    if family == "poisson" and u > 0:
        # The block likelihood is unimodal with a single interior stationary
        # point; when bracketed it is the global maximum and pins the rate
        # far more precisely than value comparisons can.
        root = _poisson_score_root(u, scheme, lo, hi)
        if root is not None and -objective(root) >= best_loglik - 1e-9:
            best_loglik, best_x = -objective(root), root
    if not np.isfinite(best_loglik):
        raise NoMaximumError(
            f"binned likelihood of u={u} is zero everywhere on the bracket"
        )
    converged = bool(getattr(res, "success", True)) or best_x in (lo, hi)
    if family == "poisson" and edge_loglik >= best_loglik - 1e-12:
        # Likelihood decreasing on the whole bracket (happens only at u = 0,
        # where any interior advantage is roundoff noise): the supremum sits
        # at the boundary rate 0, where the block probability tends to 1.
        return Estimate(value=0.0, method="numeric",
                        loglik_at_optimum=0.0 if u == 0 else float(edge_loglik),
                        converged=True)
    return Estimate(value=to_param(best_x), method="numeric",
                    loglik_at_optimum=float(best_loglik), converged=converged)


def _enumerate_latent(model: CountDistribution, prob_floor: float):
    bound = model.support_bound(min(prob_floor, 1e-12))
    ks = np.arange(bound + 1)
    ps = model.pmf(ks)
    mask = ps > prob_floor
    return ks[mask], ps[mask]


def exact_mse(estimator: Callable[[int], float], model: CountDistribution,
              scheme: RoundingScheme, true_param: float, prob_floor: float = 1e-10) -> float:
    """Exact mean squared error of estimator(u(Y)) against the true parameter.

    Sums (T(u(k)) - true)**2 P(Y=k) over all latent k whose probability
    exceeds ``prob_floor``; with n = 1 this is the unrounded case T(k).
    The estimator is evaluated once per distinct support point.
    """
    ks, ps = _enumerate_latent(model, prob_floor)
    us = scheme.n * round_count(ks, scheme.n, scheme.tie_rule)
    values = {u: float(estimator(int(u))) for u in np.unique(us)}
    errs = np.array([values[u] for u in us]) - true_param
    return float(np.dot(errs * errs, ps))


def expected_value_exact(fn: Callable[[int], float], model: CountDistribution,
                         scheme: RoundingScheme, tail_eps: float = 1e-12) -> float:
    """Exact E[fn(U)] by enumeration over the tabulated support of U."""
    table = rounded_pmf(model, scheme, tail_eps)
    return float(sum(p * fn(int(u)) for u, p in table.items()))


@dataclass
class MseRatioCurve:
    """Rounded/unrounded MSE ratio over a parameter grid and group counts.

    The arrays are indexed [n_index, param_index]; ``psi`` is the rounded
    MSE divided by the unrounded MSE, identically 1 at n = 1.
    """

    family: str
    n_list: tuple[int, ...]
    param_grid: np.ndarray
    mse_rounded: np.ndarray
    mse_unrounded: np.ndarray
    psi: np.ndarray

    def iter_rows(self):
        for i, n in enumerate(self.n_list):
            for j, param in enumerate(self.param_grid):
                yield (float(param), int(n), float(self.mse_rounded[i, j]),
                       float(self.mse_unrounded[i, j]), float(self.psi[i, j]))


def mse_ratio_curve(family: str, param_grid, n_list, *, trials: int | None = None,
                    nb_size: float | None = None, prob_floor: float = 1e-10) -> MseRatioCurve:
    """MSE ratio of the numerically fitted parameter from rounded versus
    unrounded counts, over a parameter grid and a list of group counts.

    For every latent value y with probability above ``prob_floor`` the
    estimate is computed once per distinct support point and memoized
    across the whole grid (the estimator map depends only on the group
    count and the observed point, not on the true parameter).
    """
    param_grid = np.asarray(list(param_grid), dtype=float)
    n_list = tuple(int(n) for n in n_list)
    if param_grid.size == 0 or len(n_list) == 0:
        raise ValueError("param_grid and n_list must be non-empty")
    if family == "poisson":
        make = Poisson
    elif family == "binomial":
        make = lambda p: Binomial(trials, p)
    elif family == "negbinomial":
        make = lambda p: NegativeBinomial(nb_size, p)
    else:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")

    fitted: dict[tuple[int, int], float] = {}

    def fit(n: int, u: int) -> float:
        key = (n, u)
        if key not in fitted:
            fitted[key] = numeric_mle(u, RoundingScheme(n, HALF_UP), family,
                                      trials=trials, nb_size=nb_size).value
        return fitted[key]

    shape = (len(n_list), param_grid.size)
    mse_rounded = np.empty(shape)
    mse_unrounded = np.empty(shape)
    for j, param in enumerate(param_grid):
        model = make(float(param))
        ks, ps = _enumerate_latent(model, prob_floor)
        plain = np.array([fit(1, int(k)) for k in ks])
        err_plain = plain - param
        denominator = float(np.dot(err_plain * err_plain, ps))
        for i, n in enumerate(n_list):
            us = n * round_count(ks, n, HALF_UP)
            rough = np.array([fit(n, int(u)) for u in us])
            err_rough = rough - param
            mse_rounded[i, j] = float(np.dot(err_rough * err_rough, ps))
            mse_unrounded[i, j] = denominator
    return MseRatioCurve(family=family, n_list=n_list, param_grid=param_grid,
                         mse_rounded=mse_rounded, mse_unrounded=mse_unrounded,
                         psi=mse_rounded / mse_unrounded)


@dataclass
class MonteCarloResult:
    """Simulated MSE of one estimator with its Monte Carlo standard error."""

    estimator: str
    mse: float
    mc_standard_error: float
    reps: int
    failures: int = 0
    error: str | None = None


_ESTIMATOR_NAMES = ("u", "closed-mle", "numeric-mle")

#: Replicates per substream block: the unit of reproducibility of a Monte
#: Carlo cell, and the bound on the number of draws held in memory at once.
MC_BLOCK = 4096


def _estimator_fn(name: str, model: CountDistribution, scheme: RoundingScheme):
    if name == "u":
        if isinstance(model, Binomial):
            return lambda u: u / model.trials
        if isinstance(model, NegativeBinomial):
            # Plug-in that treats the rounded total as the latent count.
            return lambda u: model.size / (model.size + u)
        return float
    if name == "closed-mle":
        if not isinstance(model, Poisson):
            raise ValueError("closed-form estimator is only available for the Poisson family")
        return lambda u: poisson_mle_closed(u, scheme.n).value
    if name == "numeric-mle":
        if isinstance(model, Binomial):
            return lambda u: numeric_mle(u, scheme, "binomial", trials=model.trials).value
        if isinstance(model, NegativeBinomial):
            return lambda u: numeric_mle(u, scheme, "negbinomial", nb_size=model.size).value
        return lambda u: numeric_mle(u, scheme, "poisson").value
    raise ValueError(f"estimator must be one of {_ESTIMATOR_NAMES}, got {name!r}")


def monte_carlo_mse(model: CountDistribution, scheme: RoundingScheme, estimators,
                    reps: int, seed: int, stream_key=()) -> list[MonteCarloResult]:
    """Simulated MSE of each estimator against the model's own parameter
    (the rate for Poisson, the success probability otherwise).

    Replicates are drawn in blocks of MC_BLOCK latent counts, block b from
    the substream (seed, stream_key + (b,)), so the result depends only on
    (seed, stream_key, reps) and is bitwise reproducible regardless of the
    order in which blocks are evaluated.  The rounded totals are tallied by
    distinct value, each estimator is evaluated once per distinct total,
    and the MSE and its standard error are count-weighted sums; memory
    grows with the block and the number of distinct totals, not with reps.
    An estimator that fails on any drawn total yields a flagged result (NaN
    MSE, the number of replicates it failed on and the first error message)
    rather than being dropped.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    target = model.theta if isinstance(model, Poisson) else model.prob
    key = tuple(int(k) for k in (stream_key if np.ndim(stream_key) else (stream_key,)))

    tally: dict[int, int] = {}
    for b, start in enumerate(range(0, reps, MC_BLOCK)):
        draws = sample_u(model, scheme, rng_substream(seed, key + (b,)),
                         size=min(MC_BLOCK, reps - start))
        values, counts = np.unique(draws, return_counts=True)
        for u, count in zip(values.tolist(), counts.tolist()):
            tally[u] = tally.get(u, 0) + count
    us = sorted(tally)
    weights = np.array([tally[u] for u in us], dtype=float)

    results = []
    for name in estimators:
        failures, message = 0, None
        try:
            fn = _estimator_fn(name, model, scheme)
        except ValueError as exc:
            failures, message = reps, str(exc)
        else:
            sq = np.empty(len(us))
            for i, u in enumerate(us):
                try:
                    err = float(fn(u)) - target
                    sq[i] = err * err
                except Exception as exc:  # noqa: BLE001 - flagged, not dropped
                    failures += tally[u]
                    if message is None:
                        message = str(exc)
        if failures:
            results.append(MonteCarloResult(estimator=name, mse=float("nan"),
                                            mc_standard_error=float("nan"), reps=reps,
                                            failures=failures, error=message))
            continue
        mse = float(np.dot(weights, sq)) / reps
        dev = sq - mse
        se = math.sqrt(float(np.dot(weights, dev * dev)) / (reps - 1) / reps) if reps > 1 else 0.0
        results.append(MonteCarloResult(estimator=name, mse=mse, mc_standard_error=se,
                                        reps=reps))
    return results
