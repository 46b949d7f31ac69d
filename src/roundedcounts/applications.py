"""Applied workflows built on the rounded-total distribution.

Two use cases: contrasting event totals between a before and an after
period when each period's total is only available as a rounded average
(excess-deaths estimation), and testing a success probability when the
total success count is only available rounded (true significance of the
misspecified normal test, and an exact conservative test binned on the
rounded lattice).

Every level and cut is read off two tails of the latent count at block
edges; no table of U is built for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import Binomial, _positive_int
from .estimation import poisson_mle_closed
from .rounding import (
    HALF_UP,
    RoundingScheme,
    _block_bounds,
    _check_lattice,
    round_count,
    rounded_moments_poisson,
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
    each period's moments coming from the cheaper exact route of
    ``rounded_moments_poisson``: the series within its error bound, or the
    table of U.  The unrounded reference values are beta + theta (1 - n2/n1)
    and beta + theta (1 + n2^2/n1^2).
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


@dataclass
class SignificanceCurve:
    """True significance level across a grid of null success probabilities."""

    m: int
    n: int
    phi0_grid: np.ndarray
    nominal_alpha: float
    true_level: np.ndarray
    mode: str


def _outside(model: Binomial, scheme: RoundingScheme, a: int, b: int) -> tuple[float, float]:
    """P(V < a) and P(V > b) for V = [Y/n]: the latent tails before the
    first value of a's block and past the last value of b's block."""
    first, _ = _block_bounds(scheme.n, scheme.tie_rule, a)
    _, last = _block_bounds(scheme.n, scheme.tie_rule, b)
    return float(model.cdf(first - 1)), float(model.sf(last))


def _binned_region(model: Binomial, scheme: RoundingScheme,
                   alpha: float) -> tuple[int, int, float, float]:
    """Group indices a..b that the equal-tail test on the lattice accepts,
    and the two rejected tails P(V < a) and P(V > b).

    The test rejects V < a and V > b, with a as large and b as small as
    keeps each rejected tail at most alpha/2.  The first guess rejects the
    blocks that end at or below the lower alpha/2-quantile of Y
    (``support_window``) and those that start at or above the upper one.
    Each side holds at most one block too many, the one touching its
    quantile, and gives it back when its tail exceeds alpha/2.
    """
    half = alpha / 2.0
    y_lo, y_hi = model.support_window(half)
    a = round_count(y_lo + 1, scheme.n, scheme.tie_rule)
    b = round_count(y_hi - 1, scheme.n, scheme.tie_rule) if y_hi > 0 else -1
    below, above = _outside(model, scheme, a, b)
    if below > half or above > half:
        a, b = a - (below > half), b + (above > half)
        below, above = _outside(model, scheme, a, b)
    return a, b, below, above


def _level(model: Binomial, scheme: RoundingScheme, alpha: float, mode: str) -> float:
    """True level of one mode: the latent tails outside the accepted group indices."""
    if mode == MODE_BINNED_U:
        _, _, below, above = _binned_region(model, scheme, alpha)
        return below + above
    if mode == MODE_EXACT_Y:
        scheme = RoundingScheme(1)  # the test on Y is the test on U at n = 1
    half = special.ndtri(1.0 - alpha / 2.0) * np.sqrt(model.variance())
    lo, hi = model.mean() - half, model.mean() + half
    # The normal test accepts lo <= U <= hi, that is ceil(lo) <= n*V <= floor(hi).
    a, b = -(-int(np.ceil(lo)) // scheme.n), int(np.floor(hi)) // scheme.n
    if a > b:  # nothing is accepted; the two tails would add up to 1 only to roundoff
        return 1.0
    below, above = _outside(model, scheme, a, b)
    return below + above


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

    Rounding is monotone, so each level is P(Y < a) + P(Y > b) for the
    first latent value a and the last latent value b that the test
    accepts: two exact tails of Y, with no table and no truncation.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    phi0_grid = np.asarray(list(phi0_grid), dtype=float)
    if phi0_grid.size == 0:
        raise ValueError("phi0_grid must be non-empty")
    if np.any((phi0_grid <= 0.0) | (phi0_grid >= 1.0)):
        raise ValueError("phi0 values must lie strictly inside (0, 1)")
    m, n = _positive_int(m, "m"), _positive_int(n, "n")
    scheme = RoundingScheme(n, tie_rule)
    levels = np.array([_level(Binomial(m * n, phi0), scheme, alpha, mode)
                       for phi0 in phi0_grid.tolist()])
    return SignificanceCurve(m=m, n=n, phi0_grid=phi0_grid, nominal_alpha=float(alpha),
                             true_level=levels, mode=mode)


@dataclass
class BinnedTestResult:
    """Outcome of the exact equal-tail test on the rounded lattice."""

    reject: bool
    true_level: float
    lower_cut: int | None
    upper_cut: int | None


def binned_binomial_test(u, m: int, n: int, phi0: float, alpha: float,
                         tie_rule: str = HALF_UP) -> BinnedTestResult:
    """Exact two-sided test of the success probability from a rounded total.

    The lower cut is the largest lattice point whose lower tail holds at
    most alpha/2 of the rounded-total distribution, the upper cut the
    smallest one (up to the largest possible total) whose upper tail does,
    and a side without such a point has no cut.  So the attained (true)
    level is at most the nominal alpha.  At n = 1 this is the usual exact
    equal-tail test on the latent count itself.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < phi0 < 1.0:
        raise ValueError(f"phi0 must lie strictly inside (0, 1), got {phi0}")
    m, n = _positive_int(m, "m"), _positive_int(n, "n")
    scheme = RoundingScheme(n, tie_rule)
    u = _check_lattice(u, n)
    model = Binomial(m * n, float(phi0))
    a, b, below, above = _binned_region(model, scheme, float(alpha))
    lower_cut = n * (a - 1) if a > 0 else None
    upper_cut = n * (b + 1) if b < round_count(m * n, n, tie_rule) else None
    reject = (lower_cut is not None and u <= lower_cut) or (
        upper_cut is not None and u >= upper_cut
    )
    return BinnedTestResult(reject=bool(reject), true_level=below + above,
                            lower_cut=lower_cut, upper_cut=upper_cut)
