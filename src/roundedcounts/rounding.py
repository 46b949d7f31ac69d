"""The rounded-average proxy U = n * [Y / n] and its exact distribution.

When a count total Y over n measurements is only reported as the
integer-rounded average [Y/n], the recoverable total U = n*[Y/n] lives on
the lattice {0, n, 2n, ...} and aggregates roughly n consecutive
probabilities of Y per lattice point.  This module provides:

* exact tabulation of P(U = u) from the latent pmf (both tie rules),
* the generating function of U as a roots-of-unity filter applied to the
  generating function of Y (round-half-up only),
* exact E(U) and Var(U) via the alternating roots-of-unity series, with
  input-checked Poisson and binomial entry points,
* sampling of U, and large-sample reference values for the mean of the
  product-form estimator recovering the Poisson rate from U.

The complex series are real-valued by conjugate symmetry; finite precision
leaks a small imaginary part which is surfaced as a diagnostic rather than
silently discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .distributions import Binomial, CountDistribution, Poisson

__all__ = [
    "HALF_UP",
    "HALF_EVEN",
    "RoundingScheme",
    "RootsOfUnityTable",
    "RoundedPmf",
    "MomentReport",
    "NearRootOfUnityError",
    "NumericalInconsistencyError",
    "round_count",
    "support_block",
    "roots_of_unity",
    "rounded_pmf",
    "rounded_logpmf",
    "rounded_pgf",
    "rounded_moments_series",
    "rounded_moments_poisson",
    "rounded_moments_binomial",
    "sample_u",
    "asymptotic_mle_mean",
]

HALF_UP = "half-up"
HALF_EVEN = "half-even"
_TIE_RULES = (HALF_UP, HALF_EVEN)

#: Moment computations reject results whose discarded imaginary part
#: exceeds this magnitude.
IMAG_RESIDUAL_LIMIT = 1e-9

#: Direct generating-function evaluation is refused this close to a root of
#: unity (the singularities are removable but cancellation is catastrophic).
POLE_GUARD_RADIUS = 1e-6


class NearRootOfUnityError(ValueError):
    """Raised when the generating-function formula is evaluated too close to
    a removable singularity; use the tabulated series (``RoundedPmf.pgf``)
    instead."""


class NumericalInconsistencyError(ArithmeticError):
    """Raised when realizing a complex series leaves a non-negligible
    imaginary residue or a negative variance."""


@dataclass(frozen=True)
class RoundingScheme:
    """Group count ``n`` and the tie-breaking rule for averages ending in .5.

    Ties only occur when ``n`` is even, so the rule is irrelevant for odd
    ``n``.  The default matches the convention of rounding 0.5 upward.
    """

    n: int
    tie_rule: str = HALF_UP

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.tie_rule not in _TIE_RULES:
            raise ValueError(f"tie_rule must be one of {_TIE_RULES}, got {self.tie_rule!r}")

    @property
    def table(self) -> "RootsOfUnityTable":
        return roots_of_unity(self.n)


@dataclass(frozen=True)
class RootsOfUnityTable:
    """Precomputed n-th roots of unity and the alternating coefficients used
    by the generating-function filter.

    ``omega_pow[j] = exp(2*pi*i*j/n)``; ``coeff_a[j]`` is ``(-1)**j`` for
    even n and ``(-1)**j * exp(pi*i*j/n)`` (principal half power) for odd n;
    ``offset_r`` is 1 for even n and 1/2 for odd n.
    """

    n: int
    omega_pow: np.ndarray
    coeff_a: np.ndarray
    offset_r: float


# Bounded: each table holds two complex arrays of length n, and a long run
# may see many distinct n.
@lru_cache(maxsize=128)
def roots_of_unity(n: int) -> RootsOfUnityTable:
    j = np.arange(n)
    omega_pow = np.exp(2j * np.pi * j / n)
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    if n % 2 == 0:
        coeff = sign.astype(complex)
        offset = 1.0
    else:
        coeff = sign * np.exp(1j * np.pi * j / n)
        offset = 0.5
    return RootsOfUnityTable(n=n, omega_pow=omega_pow, coeff_a=coeff, offset_r=offset)


def round_count(y, n: int, tie_rule: str = HALF_UP):
    """Nearest integer to y/n computed exactly on integers (no float ties).

    A tie is detected as ``2*(y mod n) == n``, which can only happen for
    even n.  Accepts scalars or integer arrays.
    """
    if tie_rule not in _TIE_RULES:
        raise ValueError(f"tie_rule must be one of {_TIE_RULES}, got {tie_rule!r}")
    arr = np.asarray(y)
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    quot, rem = np.divmod(arr, n)
    twice = 2 * rem
    if tie_rule == HALF_UP:
        bump = twice >= n
    else:
        bump = (twice > n) | ((twice == n) & (quot % 2 == 1))
    quot += bump
    return int(quot) if arr.ndim == 0 else quot


def _check_lattice(u, n: int) -> int:
    if u < 0 or int(u) != u or int(u) % n != 0:
        raise ValueError(f"u must be a non-negative multiple of n={n}, got {u}")
    return int(u)


def _block_bounds(n: int, tie_rule: str, v) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive latent bounds of the blocks rounding to group indices v.

    Round-half-up maps y = v*n - floor(n/2), ..., v*n + n - 1 - floor(n/2) to
    v.  Half-even at even n hands each tie value to the even neighbour: even
    v gains the upper tie value and odd v loses the lower one.  Blocks are
    clipped to non-negative counts.
    """
    u = v * n
    lo, hi = u - n // 2, u + (n - 1) - n // 2
    if tie_rule == HALF_EVEN and n % 2 == 0:
        odd = v % 2
        lo, hi = lo + odd, hi + 1 - odd
    return np.maximum(lo, 0), hi


def support_block(u, scheme: RoundingScheme) -> range:
    """Inclusive range of latent counts y with n*[y/n] == u."""
    v = _check_lattice(u, scheme.n) // scheme.n
    lo, hi = _block_bounds(scheme.n, scheme.tie_rule, v)
    return range(int(lo), int(hi) + 1)


@dataclass
class RoundedPmf:
    """Tabulated distribution of U on {0, n, 2n, ...}.

    ``probs[v]`` is P(U = v*n); ``truncation_mass`` bounds the probability
    omitted beyond the tabulated support, so the tabulated total plus the
    truncation mass is 1 up to roundoff.
    """

    n: int
    probs: np.ndarray
    truncation_mass: float

    @property
    def support(self) -> np.ndarray:
        """Support values u = v*n for the tabulated indices v."""
        return self.n * np.arange(len(self.probs))

    def prob(self, u) -> float:
        v = _check_lattice(u, self.n) // self.n
        return float(self.probs[v]) if v < len(self.probs) else 0.0

    def items(self):
        for v, p in enumerate(self.probs):
            yield self.n * v, float(p)

    def total(self) -> float:
        return float(np.sum(self.probs))

    def mean(self) -> float:
        return float(np.dot(self.support.astype(float), self.probs))

    def variance(self) -> float:
        m = self.mean()
        second = float(np.dot(self.support.astype(float) ** 2, self.probs))
        return second - m * m

    def pgf(self, s) -> complex:
        """Sum of P(U=u) s**u over the tabulated support; the series fallback
        for arguments the direct formula refuses."""
        z = complex(s) ** self.n
        powers = z ** np.arange(len(self.probs))
        return complex(np.dot(self.probs, powers))


def rounded_pmf(model: CountDistribution, scheme: RoundingScheme, tail_eps: float = 1e-12) -> RoundedPmf:
    """Tabulate P(U = u) for u = 0, n, 2n, ... covering the latent support.

    Block probabilities are computed as cdf/sf differences (lower tail near
    the origin, survival beyond the mean) so both tails keep full absolute
    precision.  For n = 1 this is the latent pmf unchanged.
    """
    n = scheme.n
    y_max = model.support_bound(tail_eps)
    v_max = round_count(y_max, n, scheme.tie_rule)
    v = np.arange(v_max + 1)
    lo, hi = _block_bounds(n, scheme.tie_rule, v)
    mean = model.mean()
    lower = model.cdf(hi) - model.cdf(lo - 1)
    upper = model.sf(lo - 1) - model.sf(hi)
    probs = np.maximum(np.where(hi <= mean, lower, upper), 0.0)
    truncation = float(max(model.sf(hi[-1]), 0.0))
    return RoundedPmf(n=n, probs=probs, truncation_mass=truncation)


def rounded_logpmf(model: CountDistribution, scheme: RoundingScheme, u) -> float:
    """log P(U = u): log-sum-exp of the latent log-pmf over the block of u.

    This is the binned log-likelihood used for estimation from a single
    observed u.
    """
    block = support_block(u, scheme)
    if len(block) == 0:
        return -np.inf
    ks = np.arange(block.start, block.stop)
    return float(logsumexp(model.logpmf(ks)))


def _require_half_up(scheme: RoundingScheme, what: str):
    # Odd n is tolerated under either rule because ties cannot occur.
    if scheme.tie_rule == HALF_EVEN and scheme.n % 2 == 0:
        raise ValueError(f"{what} is only available for the round-half-up rule")


def rounded_pgf(model: CountDistribution, scheme: RoundingScheme, s) -> complex:
    """E(s**U) by the closed roots-of-unity filter (round-half-up only).

    Valid on the closed unit disk away from the n-th roots of unity (and
    away from 0 when n >= 3, where the denominator power of s vanishes);
    within the guard radius a :class:`NearRootOfUnityError` directs callers
    to the tabulated series ``rounded_pmf(...).pgf(s)``, which has no
    excluded points.
    """
    _require_half_up(scheme, "the generating-function formula")
    n = scheme.n
    s = complex(s)
    if abs(s) > 1.0 + 1e-9:
        raise ValueError(f"|s| must be <= 1, got {abs(s)}")
    table = scheme.table
    if np.min(np.abs(s - table.omega_pow)) <= POLE_GUARD_RADIUS:
        raise NearRootOfUnityError(
            "s lies within the guard radius of a root of unity; "
            "evaluate the tabulated series from rounded_pmf instead"
        )
    # n even: s**(n/2 - 1); n odd: s**((n-1)/2). Integer exponent either way.
    exponent = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2
    if exponent > 0 and abs(s) <= POLE_GUARD_RADIUS:
        raise NearRootOfUnityError(
            "s lies within the guard radius of 0 where the denominator power "
            "vanishes; evaluate the tabulated series from rounded_pmf instead"
        )
    terms = table.coeff_a * model.pgf(s / table.omega_pow) / (s - table.omega_pow)
    return complex((s**n - 1.0) / (n * s**exponent) * np.sum(terms))


@dataclass
class MomentReport:
    """E(U) and Var(U) with the largest imaginary magnitude discarded when
    the complex series was realized to real numbers."""

    mean: float
    variance: float
    imag_residual: float


def _assemble_moments(ey: float, vy: float, gv: np.ndarray, gdv: np.ndarray,
                      table: RootsOfUnityTable) -> MomentReport:
    """Combine latent moments with generating-function values at the
    reciprocal roots of unity (indices j = 1..n-1)."""
    n, r = table.n, table.offset_r
    omega = table.omega_pow[1:]
    coeff = table.coeff_a[1:]
    one_minus = 1.0 - omega
    s1 = np.sum(coeff * gv / one_minus)
    s2 = np.sum(coeff * (gdv / (omega * one_minus) - gv / one_minus**2))
    mean_c = ey + 0.5 * (2.0 * r - 1.0) + s1
    var_c = vy + (n * n - 1.0) / 12.0 - (2.0 * ey - 1.0) * s1 - s1 * s1 + 2.0 * s2
    residual = max(abs(mean_c.imag), abs(var_c.imag)) if n > 1 else 0.0
    if residual > IMAG_RESIDUAL_LIMIT:
        raise NumericalInconsistencyError(
            f"imaginary residual {residual:.3e} exceeds {IMAG_RESIDUAL_LIMIT:.0e}"
        )
    variance = float(np.real(var_c))
    if variance < 0.0:
        if variance < -1e-12:
            raise NumericalInconsistencyError(f"negative variance {variance:.3e}")
        variance = 0.0
    return MomentReport(mean=float(np.real(mean_c)), variance=variance, imag_residual=float(residual))


def rounded_moments_series(model: CountDistribution, scheme: RoundingScheme) -> MomentReport:
    """E(U) and Var(U) from the generic alternating series over reciprocal
    roots of unity (round-half-up).  At n = 1 the sums are empty and the
    latent moments are returned unchanged."""
    _require_half_up(scheme, "the moment series")
    table = scheme.table
    recip = np.conj(table.omega_pow[1:])
    gv = np.asarray(model.pgf(recip), dtype=complex)
    gdv = np.asarray(model.pgf_derivative(recip), dtype=complex)
    return _assemble_moments(model.mean(), model.variance(), gv, gdv, table)


def rounded_moments_poisson(theta: float, n: int) -> MomentReport:
    """Closed-form E(U) and Var(U) for a Poisson latent total with mean theta.

    This is the series of :func:`rounded_moments_series` with the Poisson
    generating function, exp(theta*(1/omega**j - 1)), whose real exponent
    part is non-positive, so the evaluation cannot overflow for large theta.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    return rounded_moments_series(Poisson(theta), RoundingScheme(int(n)))


def rounded_moments_binomial(trials: int, prob: float, n: int) -> MomentReport:
    """Closed-form E(U) and Var(U) for a binomial latent total.

    The closed form is stated for totals over whole groups, so ``trials``
    must be a multiple of ``n``.  It is the series of
    :func:`rounded_moments_series` with the binomial generating function,
    whose powers are taken through the complex log to stay finite for very
    large trial counts.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if trials < 1 or int(trials) != trials:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if trials % n != 0:
        raise ValueError(f"trials={trials} must be a multiple of n={n}")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob must lie in [0, 1], got {prob}")
    return rounded_moments_series(Binomial(trials, prob), RoundingScheme(int(n)))


def sample_u(model: CountDistribution, scheme: RoundingScheme, rng: np.random.Generator, size=None):
    """Draw U = n*[Y/n]: sample the latent count and round its average on
    exact integer arithmetic.  Returns a scalar when ``size`` is None."""
    y = model.sample(rng, size=size)
    v = round_count(y, scheme.n, scheme.tie_rule)
    return scheme.n * v


def _mle_mean_branch(v0: int) -> float:
    c = v0 - 0.5
    t = 1.0 / c + 1.0
    return c * math.exp(c * t * math.log(t) - 1.0)


def asymptotic_mle_mean(lam: float) -> float:
    """Large-group limit of E(estimate)/n for the product-form rate
    estimator, as a function of the per-measurement mean ``lam``.

    Below 0.5 the observed proxy collapses to 0 and the limit is 1/(2e);
    above 0.5 the limit depends only on the nearest integer v0 to lam; at
    half-integers (where two lattice points stay equally likely) it is the
    average of the two adjacent branches, with the v0 = 0 branch read as
    1/(2e).
    """
    if not lam > 0 or not np.isfinite(lam):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    low = 1.0 / (2.0 * math.e)
    if lam < 0.5:
        return low
    if lam - math.floor(lam) == 0.5:
        upper = int(lam + 0.5)
        lower_val = low if upper == 1 else _mle_mean_branch(upper - 1)
        return 0.5 * (lower_val + _mle_mean_branch(upper))
    return _mle_mean_branch(int(math.floor(lam + 0.5)))
