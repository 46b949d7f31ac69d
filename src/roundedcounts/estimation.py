"""Parameter estimation from a rounded total and estimator quality metrics.

Estimation here is interval-censored: observing u only reveals that the
latent count fell in the block of values rounding to u, so the likelihood
is the block-summed ("binned") pmf.  Its maximizer has a closed form for
every family: the geometric mean of the block's single-point estimates on
the family's own scale, or a boundary value.  The log-likelihood the fits
report is that block's probability read off two latent tails
(``rounded_logpmf``).  The module also provides
exact mean squared errors, summed over the table of U from ``rounded_pmf``,
Monte Carlo mean squared errors over a drawn tally of U, and the
rounded-versus-unrounded MSE ratio curves used to quantify the inferential
cost of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import FAMILIES, CountDistribution, Poisson, _positive_int, family_spec
from .rounding import (
    HALF_UP,
    TAIL_EPS,
    RoundedPmf,
    RoundingScheme,
    _block_bounds,
    _block_logpmf,
    _latent_window,
    _table_over,
    rounded_pmf,
    support_block,
)
from .sampling import sample_tally

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
    scheme = RoundingScheme(_positive_int(n, "n"), HALF_UP)
    block = support_block(u, scheme)
    lo, hi = _positive(block.start, block.stop - 1)
    value = float(FAMILIES["poisson"].block_mle(np.arange(lo, hi + 1, dtype=float)[None], None)[0])
    loglik = _block_logpmf(Poisson(value), block.start, block.stop - 1) if value > 0 else 0.0
    return Estimate(value=value, method="closed-form", loglik_at_optimum=loglik)


def _positive(lo, hi):
    """The positive values of the blocks lo..hi, or the block {0} itself."""
    return np.maximum(lo, np.minimum(hi, 1)), hi


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
    value = float(spec.block_mle(np.arange(block.start, block.stop, dtype=float)[None], fixed)[0])
    if math.isnan(value):
        raise _no_maximum(u)
    # A zero estimate is the model concentrated at 0, which lies in the block.
    loglik = (_block_logpmf(spec.make(value, fixed), block.start, block.stop - 1)
              if value > 0 else 0.0)
    return Estimate(value=value, method="numeric", loglik_at_optimum=loglik)


def _no_maximum(u) -> NoMaximumError:
    return NoMaximumError(f"binned likelihood of u={u} is zero for every parameter value")


def _block_estimates(block_mle, lo: np.ndarray, hi: np.ndarray, fixed) -> np.ndarray:
    """block_mle of each block lo..hi, called once per length (padding would alter the sums)."""
    out = np.empty(len(lo))
    length = hi - lo + 1
    for m in set(length.tolist()):
        rows = length == m
        out[rows] = block_mle(lo[rows, None] + np.arange(m, dtype=float), fixed)
    return out


def _expectation(fn, table: RoundedPmf) -> float:
    """Exact E[fn(U)] over a table of U.

    fn maps the sorted array of the table's support points to their values
    and is called once.  The weights sum to 1 minus the table's truncation
    mass; ``rounded_pmf`` refuses empty and oversized windows.
    """
    return float(np.dot(fn(table.support), table.probs))


def _per_total(fn: Callable[[int], float]):
    """A function of one total as a function of an array of totals."""
    return lambda us: np.array([float(fn(u)) for u in us.tolist()])


def _squared_error(estimates, true_param: float):
    def loss(us: np.ndarray) -> np.ndarray:
        err = estimates(us) - true_param
        return err * err
    return loss


def exact_mse(estimator: Callable[[int], float], model: CountDistribution,
              scheme: RoundingScheme, true_param: float, tail_eps: float = TAIL_EPS) -> float:
    """Exact mean squared error of estimator(U) against the true parameter.

    Sums (T(u) - true)**2 P(U=u) over the table of ``rounded_pmf`` at the
    scheme, the lattice points between the tail_eps-quantiles of Y; with
    n = 1 this is the unrounded case T(k).  The estimator is evaluated once
    per support point.
    """
    loss = _squared_error(_per_total(estimator), true_param)
    return _expectation(loss, rounded_pmf(model, scheme, tail_eps))


def expected_value_exact(fn: Callable[[int], float], model: CountDistribution,
                         scheme: RoundingScheme, tail_eps: float = TAIL_EPS) -> float:
    """Exact E[fn(U)] by enumeration over the table of ``rounded_pmf`` at the
    scheme, the lattice points between the tail_eps-quantiles of Y."""
    return _expectation(_per_total(fn), rounded_pmf(model, scheme, tail_eps))


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
                    nb_size: float | None = None, tail_eps: float = TAIL_EPS) -> MseRatioCurve:
    """MSE ratio of the numerically fitted parameter from rounded versus
    unrounded counts, over a parameter grid and a list of group counts.

    Each grid point finds the latent window of ``rounded_pmf`` at tail_eps
    once and builds one table of U over it per distinct group count, n = 1
    included, bit for bit as ``rounded_pmf``, and sums that count's MSE over it,
    with the estimator called once on the table's support; a group count
    listed twice reuses its MSE.  A grid point whose unrounded MSE is 0
    leaves the ratio undefined and raises ValueError.
    """
    param_grid = np.asarray(list(param_grid), dtype=float)
    n_list = tuple(_positive_int(n, "n") for n in n_list)
    if param_grid.size == 0 or len(n_list) == 0:
        raise ValueError("param_grid and n_list must be non-empty")
    spec = family_spec(family)
    fixed = spec.resolve(trials=trials, nb_size=nb_size)
    schemes = {n: RoundingScheme(n, HALF_UP) for n in (1, *n_list)}
    mse = np.empty((1 + len(n_list), param_grid.size))
    for j, param in enumerate(param_grid):
        model = spec.make(float(param), fixed)
        window = _latent_window(model, tail_eps)
        by_n = {}
        for n, scheme in schemes.items():
            table = _table_over(model, scheme, window)
            by_n[n] = _cell_mse("numeric-mle", model, scheme, table.support, table.probs)[0]
        if by_n[1] == 0.0:
            raise ValueError(f"the unrounded MSE at {spec.fitted}={param} is 0 under "
                             f"tail_eps={tail_eps}, so the MSE ratio is undefined")
        mse[:, j] = [by_n[n] for n in (1, *n_list)]
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


def _estimator_fn(name: str, model: CountDistribution, scheme: RoundingScheme):
    """The named estimator, mapping a sorted array of distinct totals to their
    estimates (NaN where the binned likelihood is zero for every parameter)."""
    spec = FAMILIES[model.kind]
    fixed = spec.fixed_of(model)
    if name == "u":
        return lambda us: spec.plug_in(us, fixed)
    if name == "closed-mle":
        if not spec.product_form:
            raise ValueError("closed-form estimator is only available for the Poisson family")
        return lambda us: _block_estimates(
            spec.block_mle, *_positive(*_block_bounds(scheme.n, HALF_UP, us // scheme.n)), None)
    if name == "numeric-mle":
        return lambda us: _block_estimates(
            spec.block_mle, *_block_bounds(scheme.n, scheme.tie_rule, us // scheme.n), fixed)
    raise ValueError(f"estimator must be one of {_ESTIMATOR_NAMES}, got {name!r}")


def _cell_mse(name: str, model: CountDistribution, scheme: RoundingScheme,
              us: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """The named estimator's squared errors at the sorted totals us, against
    the model's own parameter (the rate for Poisson, the success probability
    otherwise), and their sum weighted by ``weights``: the table's
    probabilities for the exact MSE, the tally's counts for the simulated one.
    """
    sq = _squared_error(_estimator_fn(name, model, scheme),
                        getattr(model, FAMILIES[model.kind].fitted))(us)
    return float(np.dot(weights, sq)), sq


def monte_carlo_mse(model: CountDistribution, scheme: RoundingScheme, estimators,
                    reps: int, seed: int, stream_key=()) -> list[MonteCarloResult]:
    """Simulated MSE of each estimator against the model's own parameter
    (the rate for Poisson, the success probability otherwise).

    The cell draws the tally of U over its reps replicates
    (``sample_tally``) with one generator seeded from
    (seed, stream_key), so the result depends only on (seed, stream_key,
    reps) and is bitwise reproducible whatever other cells run.  A cell where
    both the table and reps exceed ``MAX_TABLE_ENTRIES`` is refused.  Each
    estimator is called once on the sorted totals drawn, and the MSE and its
    standard error are count-weighted sums.  An estimator that fails on any
    drawn total yields a flagged result (NaN MSE, the number of replicates
    it failed on and the error of the smallest such total) rather than
    being dropped.
    """
    reps = _positive_int(reps, "reps")
    key = tuple(int(k) for k in (stream_key if np.ndim(stream_key) else (stream_key,)))
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))
    us, counts = sample_tally(model, scheme, reps, rng)

    results = []
    for name in estimators:
        try:
            total, sq = _cell_mse(name, model, scheme, us, counts)
        except ValueError as exc:
            failures, message = reps, str(exc)
        else:
            failed = np.isnan(sq)
            failures = int(counts[failed].sum())
            message = str(_no_maximum(us[failed][0])) if failures else None
        mse = se = float("nan")
        if not failures:
            mse = total / reps
            dev = sq - mse
            se = math.sqrt(float(np.dot(counts, dev * dev)) / (reps - 1) / reps) if reps > 1 else 0.0
        results.append(MonteCarloResult(estimator=name, mse=mse, mc_standard_error=se, reps=reps,
                                        failures=failures, error=message))
    return results
