"""Applied workflows built on the rounded-total distribution.

Two use cases: contrasting event totals between a before and an after
period when each period's total is only available as a rounded average
(excess-deaths estimation), and testing a success probability when the
total success count is only available rounded (true significance of the
misspecified normal test, and an exact conservative test binned on the
rounded lattice).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import Binomial
from .estimation import poisson_mle_closed
from .rounding import (
    HALF_UP,
    TAIL_EPS,
    RoundedPmf,
    RoundingScheme,
    _check_lattice,
    rounded_moments_poisson,
    rounded_pmf,
)

__all__ = [
    "ExcessDeathsDesign",
    "ExcessMoments",
    "SignificanceCurve",
    "BinnedTestResult",
    "MODE_EXACT_Y",
    "MODE_MISSPECIFIED_U",
    "MODE_BINNED_U",
    "excess_point_estimates",
    "excess_moments",
    "true_significance",
    "binned_binomial_test",
]

MODE_EXACT_Y = "exact-y"
MODE_MISSPECIFIED_U = "misspecified-u"
MODE_BINNED_U = "binned-u"
_MODES = (MODE_EXACT_Y, MODE_MISSPECIFIED_U, MODE_BINNED_U)


@dataclass(frozen=True)
class ExcessDeathsDesign:
    """Before/after design: totals over n1 pre-period and n2 post-period
    measurements, with pre-period rate ``theta`` and excess ``beta``."""

    n1: int
    n2: int
    theta: float
    beta: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be positive integers")
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.theta + self.beta > 0:
            raise ValueError("theta + beta must be positive")


def excess_point_estimates(u1, u2, n1: int, n2: int) -> tuple[float, float]:
    """Point estimates of the excess from two rounded totals.

    Returns the plain contrast u2 - (n2/n1) u1 and the contrast of the
    product-form rate estimates fitted to each rounded total, which
    compensates the rounding bias of the plain contrast when the rates are
    small relative to the group counts.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be positive integers")
    u1 = _check_lattice(u1, n1)
    u2 = _check_lattice(u2, n2)
    ratio = n2 / n1
    plain = u2 - ratio * u1
    fitted = poisson_mle_closed(u2, n2).value - ratio * poisson_mle_closed(u1, n1).value
    return float(plain), float(fitted)


@dataclass
class ExcessMoments:
    """Mean and variance of the excess contrast with and without rounding."""

    mean_rounded: float
    var_rounded: float
    mean_unrounded: float
    var_unrounded: float


def excess_moments(design: ExcessDeathsDesign) -> ExcessMoments:
    """Exact moments of the excess contrast.

    The rounded contrast u2 - (n2/n1) u1 has mean E(U2) - (n2/n1) E(U1) and,
    by independence of the periods, variance Var(U2) + (n2/n1)^2 Var(U1),
    each period's moments coming from the Poisson closed form.  The
    unrounded reference values are beta + theta (1 - n2/n1) and
    beta + theta (1 + n2^2/n1^2).
    """
    post = rounded_moments_poisson(design.theta + design.beta, design.n2)
    pre = rounded_moments_poisson(design.theta, design.n1)
    ratio = design.n2 / design.n1
    return ExcessMoments(
        mean_rounded=post.mean - ratio * pre.mean,
        var_rounded=post.variance + ratio**2 * pre.variance,
        mean_unrounded=design.beta + design.theta * (1.0 - ratio),
        var_unrounded=design.beta + design.theta * (1.0 + ratio**2),
    )


def _acceptance_bounds(total: int, phi0: float, alpha: float) -> tuple[float, float]:
    """Bounds of the normal-test acceptance region for the success count."""
    center = total * phi0
    half = special.ndtri(1.0 - alpha / 2.0) * np.sqrt(total * phi0 * (1.0 - phi0))
    return center - half, center + half


@dataclass
class SignificanceCurve:
    """True significance level across a grid of null success probabilities."""

    m: int
    n: int
    phi0_grid: np.ndarray
    nominal_alpha: float
    true_level: np.ndarray
    mode: str


def true_significance(m: int, n: int, phi0_grid, alpha: float, mode: str,
                      tie_rule: str = HALF_UP) -> SignificanceCurve:
    """Exact rejection probability under the null of the nominal-level test.

    ``m`` is the per-measurement trial count and ``n`` the number of
    measurements, so the latent success total has m*n trials.  Modes:

    * ``exact-y``: the normal test applied to the true total.
    * ``misspecified-u``: the same test applied to the rounded total as if
      it were the true total; the coarse lattice moves the level off
      nominal in either direction, depending on where the acceptance
      bounds fall on the lattice.
    * ``binned-u``: the exact equal-tail test on the rounded lattice, which
      is conservative by construction.

    Everything is computed by exact tail summation; no simulation.
    """
    phi0_grid = np.asarray(list(phi0_grid), dtype=float)
    levels = _significance_levels(m, n, phi0_grid, [alpha], mode, tie_rule)[0]
    return SignificanceCurve(m=int(m), n=int(n), phi0_grid=phi0_grid,
                             nominal_alpha=float(alpha), true_level=levels, mode=mode)


def _significance_levels(m: int, n: int, phi0_grid, alphas, mode: str,
                         tie_rule: str = HALF_UP) -> np.ndarray:
    """True levels of :func:`true_significance`, indexed [alpha, phi0].

    The rounded table of each phi0 depends on alpha only through its tail
    quantile (``TAIL_EPS``, or alpha/2 when smaller for ``binned-u``), so
    it is built once per distinct quantile and shared by the alphas.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    phi0_grid = np.asarray(list(phi0_grid), dtype=float)
    if phi0_grid.size == 0 or len(alphas) == 0:
        raise ValueError("phi0_grid and alphas must be non-empty")
    if np.any((phi0_grid <= 0.0) | (phi0_grid >= 1.0)):
        raise ValueError("phi0 values must lie strictly inside (0, 1)")
    total = int(m) * int(n)
    scheme = RoundingScheme(int(n), tie_rule)

    levels = np.empty((len(alphas), phi0_grid.size))
    for idx, phi0 in enumerate(phi0_grid):
        model = Binomial(total, phi0)
        tabulate = functools.cache(functools.partial(rounded_pmf, model, scheme))
        for a, alpha in enumerate(alphas):
            lo, hi = _acceptance_bounds(total, phi0, alpha)
            if mode == MODE_EXACT_Y:
                levels[a, idx] = float(model.cdf(np.ceil(lo) - 1.0) + model.sf(np.floor(hi)))
            elif mode == MODE_MISSPECIFIED_U:
                table = tabulate(TAIL_EPS)
                support = table.support
                outside = (support < lo) | (support > hi)
                # A side's off-window mass counts when the lattice point next to
                # the table is outside the acceptance interval, and with it every
                # point beyond; otherwise it is left out, an error below TAIL_EPS.
                below = table.mass_below if support[0] - scheme.n < lo else 0.0
                above = table.mass_above if support[-1] + scheme.n > hi else 0.0
                levels[a, idx] = float(np.sum(table.probs[outside])) + below + above
            else:
                levels[a, idx] = _binned_region(tabulate(_binned_eps(alpha)), alpha)[2]
    return levels


@dataclass
class BinnedTestResult:
    """Outcome of the exact equal-tail test on the rounded lattice."""

    reject: bool
    true_level: float
    lower_cut: int | None
    upper_cut: int | None


def _binned_eps(alpha: float) -> float:
    """Tail quantile of the table behind the binned test at level alpha."""
    return min(TAIL_EPS, alpha / 2.0)


def _binned_region(table: RoundedPmf, alpha: float):
    """Equal-tail rejection cuts on the rounded lattice and the exact level.

    ``table`` must leave out less than alpha/2 on each side
    (``_binned_eps``).  The lower cut is the largest support point whose
    lower tail holds at most alpha/2; the upper cut is the smallest support
    point whose upper tail holds at most alpha/2.  The attained level
    therefore never exceeds alpha.
    """
    # The lattice point next to each end of the table stands for the whole
    # off-window mass of its side.  That mass is below alpha/2, so a cut
    # beyond the table can only fall on that point.
    n, count = table.n, len(table.probs)
    keep = [table.mass_below > 0, *[True] * count, table.mass_above > 0]
    probs = np.concatenate(([table.mass_below], table.probs, [table.mass_above]))[keep]
    support = n * np.arange(table.first - 1, table.first + count + 1)[keep]
    lower_tail = np.cumsum(probs)
    upper_tail = np.cumsum(probs[::-1])[::-1]

    lower_ok = np.nonzero(lower_tail <= alpha / 2.0)[0]
    upper_ok = np.nonzero(upper_tail <= alpha / 2.0)[0]
    lower_cut = int(support[lower_ok[-1]]) if lower_ok.size else None
    upper_cut = int(support[upper_ok[0]]) if upper_ok.size else None
    level = 0.0
    if lower_cut is not None:
        level += float(lower_tail[lower_ok[-1]])
    if upper_cut is not None:
        level += float(upper_tail[upper_ok[0]])
    return lower_cut, upper_cut, level


def binned_binomial_test(u, m: int, n: int, phi0: float, alpha: float,
                         tie_rule: str = HALF_UP) -> BinnedTestResult:
    """Exact two-sided test of the success probability from a rounded total.

    The rejection region accumulates at most alpha/2 of the rounded-total
    distribution in each tail, so the attained (true) level is at most the
    nominal alpha.  At n = 1 this is the usual exact equal-tail test on the
    latent count itself.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < phi0 < 1.0:
        raise ValueError(f"phi0 must lie strictly inside (0, 1), got {phi0}")
    scheme = RoundingScheme(int(n), tie_rule)
    u = _check_lattice(u, scheme.n)
    total = int(m) * int(n)
    table = rounded_pmf(Binomial(total, float(phi0)), scheme, _binned_eps(float(alpha)))
    lower_cut, upper_cut, level = _binned_region(table, float(alpha))
    reject = (lower_cut is not None and u <= lower_cut) or (
        upper_cut is not None and u >= upper_cut
    )
    return BinnedTestResult(reject=bool(reject), true_level=level,
                            lower_cut=lower_cut, upper_cut=upper_cut)
