"""Reference computations that check the program's outputs.

Each check recomputes its answer from ``scipy.stats`` latent pmfs and
integer rounding written here, not from the package's own tabulation, so
a wrong table, moment or estimate cannot confirm itself.  Checks return
``(name, ok)`` pairs; the worker runs them outside the timed region.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy import special, stats

#: Tabulated total plus truncation mass must equal 1 within this.
PMF_TOTAL_TOL = 1e-12
#: Moment results must match enumeration within this, relative to max(1, |ref|).
MOMENT_RTOL = 1e-9
#: A fitted parameter may trail the brute-force grid maximum by this much log-likelihood.
MLE_LOGLIK_TOL = 1e-6
MLE_GRID_POINTS = 4001
#: Monte Carlo MSE must lie within this many standard errors of the exact MSE.
MC_SE_LIMIT = 5.0
#: Enumerated MSEs may differ by this relative amount from the program's,
#: which drops latent values with probability below 1e-10.
MSE_RTOL = 1e-6


def latent(family: str, param: float, trials=None, nb_size=None):
    """Frozen ``scipy.stats`` distribution of the latent total."""
    if family == "poisson":
        return stats.poisson(param)
    if family == "binomial":
        return stats.binom(trials, param)
    return stats.nbinom(nb_size, param)


def round_lattice(k, n: int, tie_rule: str):
    """n * [k / n] on integers; ties at even n follow ``tie_rule``."""
    quot, rem = np.divmod(np.asarray(k, dtype=np.int64), n)
    twice = 2 * rem
    if tie_rule == "half-up":
        bump = twice >= n
    else:
        bump = (twice > n) | ((twice == n) & (quot % 2 == 1))
    return n * (quot + bump)


def block(u: int, n: int, tie_rule: str) -> tuple[int, int]:
    """Inclusive latent range that rounds to ``u``, found by direct search."""
    lo = max(u - n, 0)
    ks = np.arange(lo, u + n + 1)
    hit = ks[round_lattice(ks, n, tie_rule) == u]
    return int(hit[0]), int(hit[-1])


def enumerate_latent(dist, tail: float = 1e-16):
    top = dist.isf(tail)
    top = int(min(top, dist.support()[1])) if np.isfinite(top) else int(dist.support()[1])
    ks = np.arange(top + 1)
    return ks, dist.pmf(ks)


def close(value: float, ref: float, rtol: float) -> bool:
    return bool(np.isfinite(value)) and abs(value - ref) <= rtol * max(1.0, abs(ref))


# --- tables -----------------------------------------------------------------

def pmf_total(probs, truncation_mass: float) -> bool:
    return abs(math.fsum(np.asarray(probs, dtype=float)) + truncation_mass - 1.0) <= PMF_TOTAL_TOL


def moments_enumerated(dist, n: int, tie_rule: str = "half-up") -> tuple[float, float]:
    ks, ps = enumerate_latent(dist)
    us = round_lattice(ks, n, tie_rule).astype(float)
    mean = float(np.dot(ps, us))
    return mean, float(np.dot(ps, (us - mean) ** 2))


def moments_match(mean: float, variance: float, ref: tuple[float, float]) -> bool:
    return close(mean, ref[0], MOMENT_RTOL) and close(variance, ref[1], MOMENT_RTOL)


# --- estimation -------------------------------------------------------------

def _grid(family: str, u: int, n: int) -> np.ndarray:
    if family == "poisson":
        top = 10.0 * (u + n + 10.0 * math.sqrt(u + 1.0))
        return np.concatenate([[0.0], np.geomspace(1e-8, top, MLE_GRID_POINTS)])
    if family == "binomial":
        return np.linspace(0.0, 1.0, MLE_GRID_POINTS)
    return np.linspace(1e-9, 1.0, MLE_GRID_POINTS)


def block_loglik(family: str, params, u: int, n: int, tie_rule: str,
                 trials=None, nb_size=None) -> np.ndarray:
    """log P(U = u) at each parameter value, by log-sum-exp over the block."""
    lo, hi = block(u, n, tie_rule)
    ks = np.arange(lo, hi + 1)[None, :]
    params = np.asarray(params, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "poisson":
            logp = stats.poisson.logpmf(ks, params)
        elif family == "binomial":
            logp = stats.binom.logpmf(ks, trials, params)
        else:
            logp = stats.nbinom.logpmf(ks, nb_size, params)
        return special.logsumexp(logp, axis=1)


def mle_optimal(value: float, family: str, u: int, n: int, tie_rule: str,
                trials=None, nb_size=None) -> bool:
    """The estimate's log-likelihood reaches the brute-force grid maximum."""
    grid_best = float(np.max(block_loglik(family, _grid(family, u, n), u, n, tie_rule,
                                          trials, nb_size)))
    at = float(block_loglik(family, [value], u, n, tie_rule, trials, nb_size)[0])
    return bool(np.isfinite(at)) and at >= grid_best - MLE_LOGLIK_TOL


def enumerated_mse(estimate, dist, n: int, tie_rule: str, target: float) -> tuple[float, float]:
    """Exact E[(T(U) - target)^2] and the variance of one squared error,
    with ``estimate(u)`` evaluated once per distinct support point."""
    ks, ps = enumerate_latent(dist)
    keep = ps > 0.0
    ks, ps = ks[keep], ps[keep]
    us = round_lattice(ks, n, tie_rule)
    distinct, inverse = np.unique(us, return_inverse=True)
    values = np.array([float(estimate(int(u))) for u in distinct])
    sq = (values[inverse] - target) ** 2
    mse = float(np.dot(ps, sq))
    return mse, float(max(np.dot(ps, sq * sq) - mse * mse, 0.0))


def mc_within(mse: float, reported_se: float, reps: int, exact: tuple[float, float]) -> bool:
    """Monte Carlo MSE within MC_SE_LIMIT standard errors of the exact MSE.

    The standard error is the larger of the exact one and the one the run
    reports.  The exact one covers runs whose draws all land on one support
    point (reported error 0).  The reported one covers runs that drew a far
    point of tiny probability: one such draw moves the mean by many exact
    standard errors, and the sample then is not near normal, but the same
    draw also inflates the reported error."""
    ref, var = exact
    se = max(math.sqrt(var / reps), reported_se)
    return bool(np.isfinite(mse)) and abs(mse - ref) <= MC_SE_LIMIT * se + 1e-9 * max(1.0, ref)


# --- CLI output -------------------------------------------------------------

def csv_round_trip(text: str) -> tuple[list, tuple]:
    """Parse a CLI table and write it again.

    The data lines must come back byte for byte and the header values must
    parse to the same values again.  Header bytes are only reported: a
    one-element list such as ``alpha_list=0.05`` is written as text but
    parses as a number, so it is written back with 17 digits."""
    from roundedcounts import tableio

    parsed = tableio.read_csv(io.StringIO(text))
    again = io.StringIO()
    tableio.write_csv(again, parsed[0], list(parsed[1]), parsed[2])
    again = again.getvalue()

    def data(body: str) -> list[str]:
        return [line for line in body.splitlines() if not line.startswith("#")]

    ok = data(again) == data(text) and tableio.read_csv(io.StringIO(again)) == parsed
    return [("csv_round_trip", ok), ("info:csv_header_bytes_identical", again == text)], parsed
