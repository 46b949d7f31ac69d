"""Parameter estimation from a rounded total and estimator quality metrics.

Estimation here is interval-censored: observing u only reveals that the
latent count fell in the block of values rounding to u, so the likelihood
is the block-summed ("binned") pmf.  Its maximizer has a closed form for
every family: the geometric mean of the block's single-point estimates on
the family's own scale, or a boundary value.  The module also provides
exact (enumeration-based) and Monte Carlo mean squared errors and the
rounded-versus-unrounded MSE ratio curves used to quantify the
inferential cost of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .distributions import FAMILIES, CountDistribution, Poisson, family_spec, geometric_mean
from .rounding import (
    HALF_UP,
    RoundingScheme,
    round_count,
    rounded_logpmf,
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


class NoMaximumError(RuntimeError):
    """Raised when the binned likelihood is zero for every parameter value,
    so no maximizer exists."""


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
    value = geometric_mean(factors)
    loglik = rounded_logpmf(Poisson(value), scheme, u)
    return Estimate(value=value, method="closed-form", loglik_at_optimum=loglik, converged=True)


def numeric_mle(u, scheme: RoundingScheme, family: str = "poisson", *,
                trials: int | None = None, nb_size: float | None = None) -> Estimate:
    """Maximize the binned log-likelihood of u over the single free parameter.

    Over the block lo..hi of latent values that round to u, the derivative
    of P(lo <= Y <= hi) telescopes to two terms whose ratio is monotone in
    one transform of the parameter, so the maximizer is explicit:
    Poisson theta = exp(mean(log k)) over k = lo..hi (the product form);
    binomial with N trials logit p = mean(log k - log(N - k)); negative
    binomial with size r log(1 - p) = mean(log k - log(k + r)).

    Where the derivative has one sign over the whole range, the supremum is
    a boundary value at which the model sits on one point of the block
    (log-likelihood 0): lo = 0 gives the Poisson rate 0, the binomial
    probability 0 (also when the block covers the whole binomial support,
    where the likelihood is 1 for every p) and the negative binomial
    probability 1; a binomial block with lo <= N <= hi gives 1.  A binomial
    block starting above N has probability 0 and raises NoMaximumError.
    """
    spec = family_spec(family)
    fixed = spec.resolve(trials=trials, nb_size=nb_size)
    block = support_block(u, scheme)
    value = spec.block_mle(block.start, block.stop - 1, fixed)
    if value is None:
        raise NoMaximumError(f"binned likelihood of u={u} is zero for every parameter value")
    # A zero estimate is the model concentrated at 0, which lies in the block.
    loglik = rounded_logpmf(spec.make(value, fixed), scheme, u) if value > 0 else 0.0
    return Estimate(value=value, method="numeric", loglik_at_optimum=loglik, converged=True)


def _expectations(model: CountDistribution, prob_floor: float, cases) -> list[float]:
    """Exact E[fn(U)] for each (fn, scheme) in cases, by one enumeration.

    Sums fn(n*[k/n]) P(Y=k) over the latent k whose probability exceeds
    ``prob_floor``, evaluating fn once per distinct support point.  A floor
    that keeps no latent value raises ValueError rather than returning an
    empty sum.
    """
    ks = np.arange(model.support_bound(min(prob_floor, 1e-12)) + 1)
    ps = model.pmf(ks)
    keep = ps > prob_floor
    if not keep.any():
        raise ValueError(f"prob_floor={prob_floor} keeps no latent value")
    ks, ps = ks[keep], ps[keep]
    sums = []
    for fn, scheme in cases:
        us = scheme.n * round_count(ks, scheme.n, scheme.tie_rule)
        values = {u: float(fn(int(u))) for u in np.unique(us)}
        sums.append(float(np.dot([values[u] for u in us], ps)))
    return sums


def _squared_error(estimator: Callable[[int], float], true_param: float):
    def loss(u: int) -> float:
        err = float(estimator(u)) - true_param
        return err * err
    return loss


def exact_mse(estimator: Callable[[int], float], model: CountDistribution,
              scheme: RoundingScheme, true_param: float, prob_floor: float = 1e-10) -> float:
    """Exact mean squared error of estimator(u(Y)) against the true parameter.

    Sums (T(u(k)) - true)**2 P(Y=k) over all latent k whose probability
    exceeds ``prob_floor``; with n = 1 this is the unrounded case T(k).
    The estimator is evaluated once per distinct support point.
    """
    return _expectations(model, prob_floor, [(_squared_error(estimator, true_param), scheme)])[0]


def expected_value_exact(fn: Callable[[int], float], model: CountDistribution,
                         scheme: RoundingScheme, prob_floor: float = 1e-10) -> float:
    """Exact E[fn(U)] by enumeration over the latent values whose
    probability exceeds ``prob_floor``."""
    return _expectations(model, prob_floor, [(fn, scheme)])[0]


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
    spec = family_spec(family)
    fixed = spec.resolve(trials=trials, nb_size=nb_size)

    fitted: dict[tuple[int, int], float] = {}

    def fit(n: int, u: int) -> float:
        if (n, u) not in fitted:
            fitted[n, u] = numeric_mle(u, RoundingScheme(n, HALF_UP), family,
                                       trials=trials, nb_size=nb_size).value
        return fitted[n, u]

    mse = np.empty((1 + len(n_list), param_grid.size))
    for j, param in enumerate(param_grid):
        cases = [(_squared_error(partial(fit, n), param), RoundingScheme(n, HALF_UP))
                 for n in (1, *n_list)]
        mse[:, j] = _expectations(spec.make(float(param), fixed), prob_floor, cases)
    mse_unrounded = np.repeat(mse[:1], len(n_list), axis=0)
    return MseRatioCurve(family=family, n_list=n_list, param_grid=param_grid,
                         mse_rounded=mse[1:], mse_unrounded=mse_unrounded,
                         psi=mse[1:] / mse_unrounded)


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
    spec = FAMILIES[model.kind]
    fixed = spec.fixed_of(model)
    if name == "u":
        return lambda u: spec.plug_in(u, fixed)
    if name == "closed-mle":
        if not spec.product_form:
            raise ValueError("closed-form estimator is only available for the Poisson family")
        return lambda u: poisson_mle_closed(u, scheme.n).value
    if name == "numeric-mle":
        kwargs = {spec.fixed: fixed} if spec.fixed else {}
        return lambda u: numeric_mle(u, scheme, spec.name, **kwargs).value
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
    target = getattr(model, FAMILIES[model.kind].fitted)
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
