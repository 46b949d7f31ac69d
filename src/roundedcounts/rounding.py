"""The rounded-average proxy U = n * [Y / n] and its exact distribution.

When a count total Y over n measurements is only reported as the
integer-rounded average [Y/n], the recoverable total U = n*[Y/n] lives on
the lattice {0, n, 2n, ...} and aggregates roughly n consecutive
probabilities of Y per lattice point.  This module provides:

* exact tabulation of P(U = u) over the lattice points between two tail
  quantiles of Y (both tie rules), each block read off two latent tails or,
  for short blocks in long tables, summed from the latent pmf, and the
  binned log-likelihood log P(U = u) of one block, read off the same tails
  or, far out in them, summed from the latent pmf relative to one point,
* the generating function of U as a roots-of-unity filter applied to the
  generating function of Y (round-half-up only), refused at any point where
  its forward error bound exceeds ``SERIES_RTOL``,
* exact E(U) and Var(U) by the cheaper exact route: the paper's alternating
  roots-of-unity series, accepted only within its forward error bound, or
  the mean and variance of the table of U, which is short exactly where the
  series is long or inexact (n much larger than the spread of Y); with
  input-checked Poisson and binomial entry points,
* sampling of U, and large-sample reference values for the mean of the
  product-form estimator recovering the Poisson rate from U.

Both roots-of-unity sums share one bound (``_roundoff_bound``): each term's
rounding error, with the rounding error of the root amplified by the
reciprocal distance to it, summed in absolute value.  The complex series
are real-valued by conjugate symmetry; the imaginary part that finite
precision leaks is reported as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .distributions import Binomial, CountDistribution, Poisson, _positive_int

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

#: Largest table of U ``rounded_pmf`` builds, and the largest group count
#: with a roots-of-unity table; a larger one is refused before any array is
#: allocated.
MAX_TABLE_ENTRIES = 2**22

#: A roots-of-unity sum (the moment series, the generating-function filter)
#: is accepted only while its forward error bound is at most this times
#: max(1, |value|).
SERIES_RTOL = 1e-9

_EPS = float(np.finfo(float).eps)

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Direct generating-function evaluation is refused this close to a root of
#: unity (the singularities are removable but cancellation is catastrophic).
POLE_GUARD_RADIUS = 1e-6


class NearRootOfUnityError(ValueError):
    """Raised when the generating-function formula is evaluated too close to
    a removable singularity; use the tabulated series (``RoundedPmf.pgf``)
    instead."""


class NumericalInconsistencyError(ArithmeticError):
    """Raised when a closed form's forward error bound exceeds ``SERIES_RTOL``."""


@dataclass(frozen=True)
class RoundingScheme:
    """Group count ``n`` and the tie-breaking rule for averages ending in .5.

    Ties only occur when ``n`` is even, so the rule is irrelevant for odd
    ``n``.  The default matches the convention of rounding 0.5 upward.
    """

    n: int
    tie_rule: str = HALF_UP

    def __post_init__(self):
        _positive_int(self.n, "n")
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

    @cached_property
    def series_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """conj(omega), 1 - omega, omega*(1 - omega) and (1 - omega)**2 at
        the roots omega = ``omega_pow[1:]``, for the moment series."""
        omega = self.omega_pow[1:]
        one_minus = 1.0 - omega
        return np.conj(omega), one_minus, omega * one_minus, one_minus**2

    @cached_property
    def root_error(self) -> np.ndarray:
        """A bound on |computed - exact| of ``omega_pow[j]`` in units of eps:
        1 + 2*phi at the angle phi = 2*pi*j/n.  The angle's two roundings
        move it by up to eps*phi; near j = n they take one sign over many
        roots, so the bound counts them twice."""
        return 1.0 + 4.0 * np.pi * np.arange(self.n) / self.n

    @cached_property
    def bound_weights(self) -> np.ndarray:
        """Weights of the moment series' error bound over |G| and then |G'|
        at j = 1..n-1 (see ``_moments_series``), one row per sum bounded:
        [w*(c + rho*w), rho*w] for s1, [w**2*(c + 2*rho*w), w*(c + rho*(2*w + 1))]
        for s2, and [0, rho*w] for the part of s2's bound that scales with
        the latent factorial moments.  Here w = 1/|1 - omega|, rho =
        ``root_error`` and c = 2 + log2(n) roundings for each term's
        arithmetic and the sum."""
        w = 1.0 / np.abs(self.series_factors[1])
        rho, c = self.root_error[1:], 2.0 + math.log2(self.n)
        return np.array([np.concatenate((w * (c + rho * w), rho * w)),
                         np.concatenate((w * w * (c + 2.0 * rho * w),
                                         w * (c + rho * (2.0 * w + 1.0)))),
                         np.concatenate((np.zeros_like(w), rho * w))])


#: Most roots of unity the table cache holds, summed over its tables.  A
#: table holds at most 6 complex arrays of n entries (its roots and
#: coefficients, and the series factors once read) and 7 real ones (the
#: roots' error and the bound weights), 152 bytes per root, so the cache
#: never holds more than 38 MiB.  A table for a larger n is built on each
#: call and not kept.
ROOTS_CACHE_LIMIT = 2**18

_ROOTS_CACHE: dict[int, RootsOfUnityTable] = {}


def roots_of_unity(n: int) -> RootsOfUnityTable:
    """The table for n groups; n over ``MAX_TABLE_ENTRIES`` raises ValueError
    before any array is allocated.  Tables are kept, least recently used
    dropped first, while their n sum to at most ``ROOTS_CACHE_LIMIT``."""
    table = _ROOTS_CACHE.pop(n, None)
    if table is None:
        table = _roots_table(n)
        if n > ROOTS_CACHE_LIMIT:
            return table
        while sum(_ROOTS_CACHE) + n > ROOTS_CACHE_LIMIT:
            del _ROOTS_CACHE[next(iter(_ROOTS_CACHE))]
    _ROOTS_CACHE[n] = table
    return table


def _check_group_count(n: int):
    """Refuse a group count with no roots-of-unity table, before anything is allocated."""
    if n > MAX_TABLE_ENTRIES:
        raise ValueError(f"a roots-of-unity table for n={n} is over the limit of {MAX_TABLE_ENTRIES}")


def _roots_table(n: int) -> RootsOfUnityTable:
    _check_group_count(n)
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
    even n.  Accepts scalars or integer arrays; a Python int is rounded in
    Python integer arithmetic, without numpy.
    """
    if tie_rule not in _TIE_RULES:
        raise ValueError(f"tie_rule must be one of {_TIE_RULES}, got {tie_rule!r}")
    scalar = isinstance(y, int)
    arr = y if scalar else np.asarray(y)
    if (arr < 0) if scalar else np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    quot, rem = divmod(arr, n)
    twice = 2 * rem
    if tie_rule == HALF_UP:
        bump = twice >= n
    else:
        bump = (twice > n) | ((twice == n) & (quot % 2 == 1))
    quot += bump
    return int(quot) if scalar or arr.ndim == 0 else quot


def _check_lattice(u, n: int) -> int:
    if u < 0 or int(u) != u or int(u) % n != 0:
        raise ValueError(f"u must be a non-negative multiple of n={n}, got {u}")
    return int(u)


def _block_bounds(n: int, tie_rule: str, v) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive latent bounds of the blocks rounding to group indices v.

    Round-half-up maps y = v*n - floor(n/2), ..., v*n + n - 1 - floor(n/2) to
    v.  Half-even at even n hands each tie value to the even neighbour: even
    v gains the upper tie value and odd v loses the lower one.  Blocks are
    clipped to non-negative counts; a Python int v gives Python ints, exact
    past int64.
    """
    u = v * n
    lo, hi = u - n // 2, u + (n - 1) - n // 2
    if tie_rule == HALF_EVEN and n % 2 == 0:
        odd = v % 2
        lo, hi = lo + odd, hi + 1 - odd
    return lo * (lo > 0), hi


def support_block(u, scheme: RoundingScheme) -> range:
    """Inclusive range of latent counts y with n*[y/n] == u.  A block that
    reaches the int64 limit, where numpy can no longer hold its points,
    raises ValueError."""
    v = _check_lattice(u, scheme.n) // scheme.n
    lo, hi = _block_bounds(scheme.n, scheme.tie_rule, v)
    if hi >= _INT64_MAX:
        raise ValueError(f"the block of u={u} reaches the int64 limit of {_INT64_MAX}")
    return range(int(lo), int(hi) + 1)


@dataclass
class RoundedPmf:
    """Tabulated distribution of U on a window of {0, n, 2n, ...}.

    ``probs[i]`` is P(U = (first + i)*n).  ``mass_below`` and ``mass_above``
    are the probabilities of the lattice points below and above the table,
    and ``truncation_mass`` is their sum, so the tabulated total plus the
    truncation mass is 1 up to roundoff.  ``route`` records how the blocks
    were computed (see ``rounded_pmf``): "tails", as differences of two
    latent tails, or "pmf", as sums of the latent pmf.
    """

    n: int
    probs: np.ndarray
    first: int
    mass_below: float
    mass_above: float
    route: str = "tails"

    @property
    def truncation_mass(self) -> float:
        """Probability outside the table, on both sides."""
        return self.mass_below + self.mass_above

    @property
    def support(self) -> np.ndarray:
        """Support values u = v*n for the tabulated indices v."""
        return self.n * np.arange(self.first, self.first + len(self.probs))

    def prob(self, u) -> float:
        i = _check_lattice(u, self.n) // self.n - self.first
        return float(self.probs[i]) if 0 <= i < len(self.probs) else 0.0

    def items(self):
        for u, p in zip(self.support, self.probs):
            yield int(u), float(p)

    def total(self) -> float:
        return float(np.sum(self.probs))

    def mean(self) -> float:
        return float(np.dot(self.support.astype(float), self.probs))

    def variance(self) -> float:
        """Sum of squared deviations from ``mean()``: E[U**2] - E[U]**2 cancels at large means."""
        dev = self.support - self.mean()
        return float(np.dot(dev * dev, self.probs))

    def pgf(self, s):
        """Sum of P(U=u) s**u over the tabulated support; the series fallback
        for arguments the direct formula refuses.

        s is a complex scalar, which gives a Python complex, or an array of
        any shape, which gives an array of that shape.  An array whose size
        times the table length exceeds ``MAX_TABLE_ENTRIES`` raises
        ValueError before anything is evaluated.
        """
        s = np.asarray(s, dtype=complex)
        _check_entries(s.size, len(self.probs), "table entries")
        powers = np.power(s, self.n)[..., None] ** np.arange(self.first,
                                                             self.first + len(self.probs))
        # One dot product per point, summed as a single point's is.
        total = np.matmul(powers[..., None, :], self.probs[:, None])[..., 0, 0]
        return complex(total) if s.ndim == 0 else total


#: Default probability each side of a table leaves out: the package's one truncation rule.
TAIL_EPS = 1e-12


def rounded_pmf(model: CountDistribution, scheme: RoundingScheme,
                tail_eps: float = TAIL_EPS) -> RoundedPmf:
    """Tabulate P(U = u) over the lattice points between the tail_eps-quantiles of Y.

    The table runs from the lattice point of the lower quantile to that of
    the upper one (``model.support_window``), so each side leaves out less
    than tail_eps.  Each block probability is computed by one of two routes
    (``_table_over``), which ``RoundedPmf.route`` records: a difference of
    the latent tails at its edges, or, where n is short for the family and
    the table long, the sum of the latent pmf over the block.  For n = 1
    this is the latent pmf over the window.
    A table over ``MAX_TABLE_ENTRIES`` entries, a window whose block edges
    would overflow int64, or a tail_eps above 0.5 whose quantiles cross
    raises ValueError.
    """
    return _table_over(model, scheme, _latent_window(model, tail_eps))


def _latent_window(model: CountDistribution, tail_eps: float) -> tuple[int, int]:
    """``model.support_window(tail_eps)``, refused when its quantiles cross.

    The window depends on the model alone, so the tables of one model at
    several group counts share it (``_table_over``).
    """
    y_lo, y_hi = model.support_window(tail_eps)
    if y_lo > y_hi:
        raise ValueError(f"tail_eps={tail_eps} leaves an empty window: the lower quantile "
                         f"{y_lo} lies above the upper one {y_hi}, as it does for tail_eps "
                         f"above 0.5")
    return y_lo, y_hi


def _table_over(model: CountDistribution, scheme: RoundingScheme,
                window: tuple[int, int]) -> RoundedPmf:
    """The table of ``rounded_pmf`` over the latent window (y_lo, y_hi).

    For short blocks in a long table (``_pmf_is_cheaper``: n at most the
    family's ``_PMF_MAX_BLOCK``, at least ``_PMF_MIN_ENTRIES`` entries),
    where it is the cheaper route, each block is the sum of the latent pmf
    over it (``_pmf_blocks``), within about 3*PMF_ANCHOR_EVERY*eps
    relative, and the masses beyond the table are cdf(lo - 1) and sf(hi)
    at its ends.  Otherwise each block is a difference of the tail
    function at its edges, the cdf up to the mean
    and the survival function beyond it, so both tails keep full absolute
    precision; each edge is read once.  That route carries the tails'
    relative error, times the tail over the block: ``Binomial(29_973_776,
    0.5682)`` at n = 31 is 5e-11 off a 40-digit sum on it, 3e-14 on the
    pmf route.
    """
    n = scheme.n
    y_lo, y_hi = window
    # The window ends are Python ints, so a window beyond int64 rounds exactly.
    v_lo, v_hi = round_count(y_lo, n, scheme.tie_rule), round_count(y_hi, n, scheme.tie_rule)
    if v_hi - v_lo + 1 > MAX_TABLE_ENTRIES:
        raise ValueError(f"the table of U would hold {v_hi - v_lo + 1} entries, "
                         f"over the limit of {MAX_TABLE_ENTRIES}")
    # The block edges below are int64 and reach up to n past y_hi.
    if y_hi + n > _INT64_MAX:
        raise ValueError(f"the latent window ends at {y_hi}, too close to the int64 limit "
                         f"for blocks of n={n}")
    lo, hi = _block_bounds(n, scheme.tie_rule, np.arange(v_lo, v_hi + 1))
    if _pmf_is_cheaper(model, n, len(lo)):
        return RoundedPmf(n=n, probs=_pmf_blocks(model, n, lo, hi), first=int(v_lo),
                          mass_below=float(model.cdf(int(lo[0]) - 1)),
                          mass_above=float(model.sf(int(hi[-1]))), route="pmf")
    # Block i is (edges[i], edges[i+1]]; the blocks ending at or below the
    # mean come first and take the cdf, the rest the survival function.
    edges = np.concatenate(([lo[0] - 1], hi)).astype(float)
    split = int(np.searchsorted(hi, model.mean(), side="right"))
    below = model._edge_tails(edges[:split + 1], upper=False)
    above = model._edge_tails(edges[split:], upper=True)
    probs = np.maximum(np.concatenate((below[1:] - below[:-1], above[:-1] - above[1:])), 0.0)
    return RoundedPmf(n=n, probs=probs, first=int(v_lo), mass_below=float(below[0]),
                      mass_above=float(max(above[-1], 0.0)))


#: The longest block, per latent family, that a table of U sums from the
#: latent pmf (``_pmf_is_cheaper``).  Measured on one core of a 2-CPU x86-64
#: machine, a latent point costs 10-15 ns on the pmf route and a block
#: 20-30 ns more (its reduction), against 0.15-0.33 us per Poisson block
#: edge read off the tails (a fifth of them, 4.5 sd or more above the mean,
#: 0.7-1.9 us each), 0.75-1.05 us per negative binomial edge and, for the
#: binomial, from 0.28 us at 200 trials to 0.65 us at 15,500 and 1.45 us at
#: 2e7.  Each limit stops short of where the pmf sums stop being cheaper
#: in long tables (n = 15 for the Poisson at means from 2e6, 55 for the
#: negative binomial).  Timed on both routes over 416 tables (means 1e3 to
#: 1e7, 1e3 to 1e8 trials, n up to 100), the tables that the limits and
#: ``_PMF_MIN_ENTRIES`` misroute cost at most about a fifth more.
_PMF_MAX_BLOCK = {"poisson": 12, "binomial": 100, "negbinomial": 40}

#: The fewest entries of a table of U that takes the pmf sums.  The first
#: pmf-route table in a fresh interpreter costs about 120 us more than
#: later ones (the first calls of its numpy and Python code), so a short
#: table of a one-off command or a fit stays on the tails even where a warm
#: process sums it faster: ``NegativeBinomial(5, 0.35)`` at n = 1 (90
#: entries) takes 77 us warm on the pmf route against 114 us on the tails,
#: ``NegativeBinomial(5, 0.3)`` at n = 1 (109 entries) 81 against 132 us.
_PMF_MIN_ENTRIES = 100

#: Latent points the pmf route holds at once, in chunks of whole blocks, so
#: that each temporary array stays at 128 KiB.  At 2**16 (512 KiB each) the
#: allocator hands the freed temporaries back to the system and every call
#: faults their pages in again: ``Poisson(9_855_443.42)`` at n = 3 (44,172
#: points) sums in 800 us with 271 page faults a call, against 550 us and
#: none at 2**14, and ``Poisson(5.253e6)`` at n = 7 in 470 against 330 us.
#: 2**15 lies at that threshold: a little faster on some tables, 45 %
#: slower on that n = 7 one.
_PMF_CHUNK = 2**14


def _pmf_is_cheaper(model: CountDistribution, n: int, entries: int) -> bool:
    """Whether a table of ``entries`` blocks of about n latent points each is
    summed from the latent pmf rather than read off the latent tails: its
    blocks are at most the family's ``_PMF_MAX_BLOCK`` long and it holds at
    least ``_PMF_MIN_ENTRIES`` entries."""
    return n <= _PMF_MAX_BLOCK[model.kind] and entries >= _PMF_MIN_ENTRIES


def _pmf_blocks(model: CountDistribution, n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """P(lo[i] <= Y <= hi[i]) for the consecutive blocks of a table, each the
    sum of the latent pmf over the block (``CountDistribution._pmf_run``),
    in chunks of whole blocks of about ``_PMF_CHUNK`` latent points; the
    points past the binomial trials are left out."""
    top = model.upper_support()
    last = int(hi[-1]) if top is None else min(int(hi[-1]), top)
    per_chunk = max(1, _PMF_CHUNK // n)
    probs = np.empty(len(lo))
    for i in range(0, len(lo), per_chunk):
        j = min(i + per_chunk, len(lo))
        start = int(lo[i])
        probs[i:j] = np.add.reduceat(model._pmf_run(start, min(int(hi[j - 1]), last)),
                                     lo[i:j] - start)
    return probs


#: The log-likelihood reads a block probability p off two latent tails only
#: while the larger tail read is at most this many times p, because p
#: carries the tails' relative error times that ratio.
TAIL_RATIO_LIMIT = 1e6

#: The smallest block probability the log-likelihood reads off the tails:
#: below about 1e-246 the binomial tails (``scipy.special.betainc``) lose
#: all accuracy and return 0 at some k.
TAIL_ROUTE_MIN_PROB = 1e-200

#: Latent points on each side of its anchor that the log-likelihood's
#: anchored sum reads in its first log-pmf call (``_block_logpmf``), so that
#: a far block of up to 16 points takes one call, point by point on Python
#: floats; later pieces hold ``_PMF_CHUNK`` points.
_FIRST_REACH = 15


def _block_logpmf(model: CountDistribution, lo: int, hi: int) -> float:
    """log P(lo <= Y <= hi) for 0 <= lo <= hi: the log-likelihood of a block.

    Split at the mean as in ``rounded_pmf``, the probability p is
    cdf(hi) - cdf(lo - 1) for a block ending at or below the mean,
    sf(lo - 1) - sf(hi) for one starting above it, and
    1 - cdf(lo - 1) - sf(hi) for one around it.  log(p) is returned when p
    is at least ``TAIL_ROUTE_MIN_PROB`` and the larger tail read is at most
    ``TAIL_RATIO_LIMIT`` times p.  Otherwise, far out in the tails, it is
    the latent pmf summed relative to the block's point a nearest the mean:
    log P(Y = a) + log(the sum of P(Y = k)/P(Y = a) over the block).
    Loader's log-pmf keeps its relative precision at any count, so no term
    that matters underflows.  The first log-pmf call reads up to
    ``_FIRST_REACH`` points each side of a; the sum then walks away from a
    on each side in pieces of ``_PMF_CHUNK`` points and stops once the
    points left on that side times its last term are at most eps of the
    sum.  The pmf is unimodal, so past its mode that bounds the rest: a far
    block is cut after a few terms and one of any length holds one piece in
    memory.  A binomial block past the trials is -inf.
    """
    mean = model.mean()
    if hi <= mean:
        larger = model.cdf(hi)
        p = larger - model.cdf(lo - 1)
    elif lo > mean:
        larger = model.sf(lo - 1)
        p = larger - model.sf(hi)
    else:
        below, above = model.cdf(lo - 1), model.sf(hi)
        larger, p = max(below, above), 1.0 - below - above
    if p >= TAIL_ROUTE_MIN_PROB and larger <= TAIL_RATIO_LIMIT * p:
        return math.log(p)
    a = min(max(int(mean + 0.5), lo), hi)
    logs = model.logpmf(np.arange(max(lo, a - _FIRST_REACH), min(hi, a + _FIRST_REACH) + 1))
    log_a = float(logs[min(a - lo, _FIRST_REACH)])
    if log_a == -math.inf:  # past the binomial trials, or a degenerate model off its point
        return log_a
    terms = np.exp(logs - log_a)
    total = float(terms.sum())
    # Each side walks on from distance d = _FIRST_REACH + 1 from a up to far,
    # one past the block's end.  Past the mode the points left weigh at most
    # their count times the last term; short of it the last term is the
    # largest yet, so the test cannot pass before about 1/eps points.
    for step, far, edge in ((1, hi - a + 1, terms[-1]), (-1, a - lo + 1, terms[0])):
        d = _FIRST_REACH + 1
        while d < far and (far - d) * edge > _EPS * total:
            terms = np.exp(model.logpmf(a + step * np.arange(d, min(d + _PMF_CHUNK, far))) - log_a)
            total += float(terms.sum())
            d, edge = d + _PMF_CHUNK, terms[-1]
    return log_a + math.log(total)


def rounded_logpmf(model: CountDistribution, scheme: RoundingScheme, u) -> float:
    """log P(U = u), the binned log-likelihood of a single observed u.

    P(U = u) is the probability of the block of latent values that round to
    u, read off two latent tails at the block's edges; far out in the tails
    it is the latent pmf summed relative to the block's point nearest the
    mean (see ``_block_logpmf``).  A block that reaches the int64 limit
    raises ValueError (``support_block``).
    """
    block = support_block(u, scheme)
    return _block_logpmf(model, block.start, block.stop - 1)


def _require_half_up(scheme: RoundingScheme, what: str):
    # Odd n is tolerated under either rule because ties cannot occur.
    if scheme.tie_rule == HALF_EVEN and scheme.n % 2 == 0:
        raise ValueError(f"{what} is only available for the round-half-up rule")


def _check_entries(points: int, per_point: int, what: str):
    """Refuse an array call that would hold more than ``MAX_TABLE_ENTRIES``
    complex entries, before any is allocated."""
    if points * per_point > MAX_TABLE_ENTRIES:
        raise ValueError(f"{points} points of s times {per_point} {what} is "
                         f"{points * per_point} entries, over the limit of {MAX_TABLE_ENTRIES}")


def _roundoff_bound(values: np.ndarray, weights) -> np.ndarray:
    """eps * sum_j |values_j| * weights_j along the last axis: the forward
    error bound of a sum over the roots of unity whose j-th term is off by at
    most eps * |values_j| * weights_j.  The weights carry each term's own
    roundings and the rounding of its root, amplified by the reciprocal
    distance to it; the moment series and the generating-function filter
    both bound their sums with it."""
    # One dot product per row, as np.vecdot (numpy >= 2) would take it.
    return _EPS * np.matmul(weights[..., None, :], np.abs(values)[..., :, None])[..., 0, 0]


def _first_point(flags: np.ndarray) -> str:
    """The name of the first flagged point of s: "s" for a scalar, else "s[i, ...]"."""
    if flags.ndim == 0:
        return "s"
    return f"s[{', '.join(map(str, np.unravel_index(np.argmax(flags), flags.shape)))}]"


def rounded_pgf(model: CountDistribution, scheme: RoundingScheme, s):
    """E(s**U) by the closed roots-of-unity filter (round-half-up only).

    s is a complex scalar, which gives a Python complex, or an array of any
    shape, which gives an array of that shape: each point's filter terms
    are one row of a (points, n) array, summed along it.  Valid on the
    closed unit disk away from the n-th roots of unity (and away from 0 when
    n >= 3, where the denominator power of s vanishes); a point within the
    guard radius raises :class:`NearRootOfUnityError`, naming the first
    such point, and directs callers to the tabulated series
    ``rounded_pmf(...).pgf(s)``, which has no excluded points.  A point
    outside the disk, or an array whose size times n exceeds
    ``MAX_TABLE_ENTRIES``, raises ValueError.  Every check covers the whole
    array before anything is evaluated.

    The prefactor multiplies the sum's rounding error, by about |s|**(-n/2)
    at small |s|, so each point's forward error bound (``_roundoff_bound``
    times |prefactor|) is checked after evaluation: a point whose bound
    exceeds ``SERIES_RTOL`` (the value lies in the unit disk) raises
    :class:`NumericalInconsistencyError`, naming the first such point.
    """
    _require_half_up(scheme, "the generating-function formula")
    n = scheme.n
    s = np.asarray(s, dtype=complex)
    # np.hypot is what Python's abs gives for a complex.
    radius = np.hypot(s.real, s.imag)
    outside = radius > 1.0 + 1e-9
    if outside.any():
        raise ValueError(f"|{_first_point(outside)}| must be <= 1, got {float(radius[outside][0])}")
    table = scheme.table
    _check_entries(s.size, n, "roots of unity")
    diff = s[..., None] - table.omega_pow
    distance = np.abs(diff)
    near_root = distance.min(axis=-1) <= POLE_GUARD_RADIUS
    if near_root.any():
        raise NearRootOfUnityError(
            f"{_first_point(near_root)} lies within the guard radius of a root of unity; "
            "evaluate the tabulated series from rounded_pmf instead"
        )
    # n even: s**(n/2 - 1); n odd: s**((n-1)/2). Integer exponent either way.
    exponent = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2
    if exponent > 0 and (near_zero := radius <= POLE_GUARD_RADIUS).any():
        raise NearRootOfUnityError(
            f"{_first_point(near_zero)} lies within the guard radius of 0 where the "
            "denominator power vanishes; evaluate the tabulated series from rounded_pmf instead"
        )
    # np.power, not **, which would square by a different routine at n = 2.
    denominator = n * np.power(s, exponent)
    if (vanished := denominator == 0).any():
        raise ZeroDivisionError(f"complex division by zero: {_first_point(vanished)}"
                                f"**{exponent} underflows to 0")
    prefactor = (np.power(s, n) - 1.0) / denominator
    terms = table.coeff_a * model.pgf(s[..., None] / table.omega_pow) / diff
    total = prefactor * terms.sum(axis=-1)
    # A term is off by its own rounding, the root's error amplified by
    # 1/|s - omega| and, through the latent generating function, by its mean.
    bound = np.abs(prefactor) * _roundoff_bound(
        terms, (1.0 + model.mean()) + table.root_error / distance)
    if not (bound <= SERIES_RTOL).all():
        inexact = ~(bound <= SERIES_RTOL)
        raise NumericalInconsistencyError(
            f"the closed form's error bound at {_first_point(inexact)} is "
            f"{float(bound[inexact][0]):.3e}, over {SERIES_RTOL:.0e}; "
            "evaluate the tabulated series from rounded_pmf instead"
        )
    return complex(total) if s.ndim == 0 else total


@dataclass
class MomentReport:
    """E(U) and Var(U), the route that gave them and its diagnostics.

    ``route`` is "series" (the alternating roots-of-unity series) or "table"
    (the mean and variance of the table of U).  For the series,
    ``imag_residual`` is the largest imaginary magnitude discarded when the
    complex sums were realized, and ``error_bound`` the forward error bound
    of the mean and of the variance, each relative to max(1, |value|), the
    larger of the two.  A table has no imaginary part and no series bound:
    0 and NaN.
    """

    mean: float
    variance: float
    imag_residual: float
    route: str = "table"
    error_bound: float = math.nan


def _moments_series(model: CountDistribution, scheme: RoundingScheme) -> MomentReport:
    """The paper's alternating series for E(U) and Var(U) (round-half-up) as
    computed, with its forward error bound; nothing is refused or clamped.
    At n = 1 the sums are empty and the latent moments are returned.

    The generating function of Y and its derivative at the reciprocal roots
    come from one evaluation (``CountDistribution._pgf_pair``), and the
    factors in the roots from the cached table, so the cost is about one
    complex exponential per root.  The bound takes each term's roundings
    and the rounding of its root amplified by w = 1/|1 - omega|, up to
    w**3 in the variance, so it grows like n**3 where the terms do not
    decay (n much larger than the spread of Y); the latent generating
    function's sensitivity to the root enters through its derivative and,
    for the derivative, E[Y(Y - 1)]/E(Y).
    """
    _require_half_up(scheme, "the moment series")
    table = scheme.table
    n, r = table.n, table.offset_r
    ey, vy = model.mean(), model.variance()
    coeff = table.coeff_a[1:]
    conj_omega, one_minus, omega_one_minus, one_minus_sq = table.series_factors
    gv, gdv = model._pgf_pair(conj_omega)
    s1 = np.sum(coeff * gv / one_minus)
    s2 = np.sum(coeff * (gdv / omega_one_minus - gv / one_minus_sq))
    mean_c = ey + 0.5 * (2.0 * r - 1.0) + s1
    var_c = vy + (n * n - 1.0) / 12.0 - (2.0 * ey - 1.0) * s1 - s1 * s1 + 2.0 * s2
    mean_c, var_c, a1, a2 = complex(mean_c), complex(var_c), abs(complex(s1)), abs(complex(s2))
    residual = max(abs(mean_c.imag), abs(var_c.imag)) if n > 1 else 0.0
    mean, variance = mean_c.real, var_c.real
    # |coeff| = |omega| = 1, so the terms' magnitudes are |G| and |G'| times powers of w.
    err_s1, err_s2, err_factorial = _roundoff_bound(np.concatenate((gv, gdv)),
                                                    table.bound_weights).tolist()
    if ey > 0:  # G'' moves by E[Y(Y-1)]/E(Y) times G' where the root is off
        err_s2 += (vy / ey + ey - 1.0) * err_factorial
    b = abs(2.0 * ey - 1.0)
    last = _EPS * (2.0 + math.log2(n))  # the final combinations and the latent moments
    mean_bound = err_s1 + last * (abs(ey) + 0.5 + a1)
    var_bound = ((b + 2.0 * a1) * err_s1 + 2.0 * err_s2
                 + last * (vy + n * n / 12.0 + b * a1 + a1 * a1 + 2.0 * a2))
    bound = max(mean_bound / max(1.0, abs(mean)), var_bound / max(1.0, abs(variance)))
    return MomentReport(mean, variance, residual, "series", bound)


def _accepted(report: MomentReport) -> MomentReport | None:
    """A series report within ``SERIES_RTOL``, its negative variance within
    the bound set to 0; None where the bound is over it, or a negative
    variance lies beyond it."""
    if not report.error_bound <= SERIES_RTOL:
        return None
    if report.variance < 0.0:
        if report.variance < -report.error_bound * max(1.0, -report.variance):
            return None
        return replace(report, variance=0.0)
    return report


#: The moments' route per latent family: the table of U costs about as much
#: as ``fixed`` roots of the series plus ``per_entry`` roots for each of its
#: entries (``_table_is_cheaper``), the ratios of the two routes' fixed and
#: per-root or per-entry costs measured on one core of a 2-CPU x86-64
#: machine.  At 2,418 (model, n) points of the three families, n from 24 to
#: 2**20, this picks the route of those measured costs at all but four
#: binomial points at its switch, each within 4 % of that route's time.
_TABLE_ROUTE = {"poisson": (448, 8), "binomial": (32, 5), "negbinomial": (416, 6)}


def _table_is_cheaper(model: CountDistribution, n: int, tail_eps: float) -> bool:
    """Whether the moments take the table of U rather than the series: n is
    at least the family's ``_TABLE_ROUTE`` fixed cost plus its cost per entry
    times the table length estimated from the mean, sd and skewness of Y,
    the Cornish-Fisher window (``model._cornish_fisher``) with
    z = sqrt(2 log(1/tail_eps)), a little above the normal quantile that
    ``support_window`` starts from.  No tail is read."""
    fixed, per_entry = _TABLE_ROUTE[model.kind]
    if n < fixed:
        return False
    lo, hi = model._cornish_fisher(math.sqrt(2.0 * math.log(1.0 / tail_eps)))
    return n >= fixed + per_entry * ((hi - max(0.0, lo)) / n + 2.0)


def rounded_moments_series(model: CountDistribution, scheme: RoundingScheme) -> MomentReport:
    """Exact E(U) and Var(U) by the cheaper exact route (round-half-up).

    Where the table of U is the cheaper route by its estimated length
    (``_table_is_cheaper``), its mean and variance are returned; everywhere
    else the alternating series over the reciprocal roots of unity
    (``_moments_series``), accepted only while its forward error bound is
    within ``SERIES_RTOL`` (a negative variance within the bound becomes
    0), and the table where it is not.  The series is long and inexact
    where n is large against the spread of Y, and the table short there:
    about 2*z*sd/n + 1 entries, z = 7 to 10.  The table leaves out at most
    ``TAIL_EPS``/n**2 each side, so the mass left out moves the variance by
    far less than ``SERIES_RTOL`` even where it sits n or more from the
    mean; the ``moments`` command's ``enumeration`` row takes the same cut
    (``cli._cmd_moments``).  A group count over ``MAX_TABLE_ENTRIES`` and
    half-even at even n raise ValueError before anything is evaluated.
    """
    _require_half_up(scheme, "the moment series")
    n = scheme.n
    _check_group_count(n)
    tail_eps = TAIL_EPS / (n * n)
    if not _table_is_cheaper(model, n, tail_eps):
        report = _accepted(_moments_series(model, scheme))
        if report is not None:
            return report
    table = _table_over(model, scheme, _latent_window(model, tail_eps))
    return MomentReport(table.mean(), table.variance(), 0.0)


def rounded_moments_poisson(theta: float, n: int) -> MomentReport:
    """Exact E(U) and Var(U) for a Poisson latent total with mean theta,
    by the routes of :func:`rounded_moments_series`.

    The series' Poisson generating function, exp(theta*(1/omega**j - 1)),
    has a non-positive real exponent, so it cannot overflow for large theta.
    """
    return rounded_moments_series(Poisson(theta), RoundingScheme(n))


def rounded_moments_binomial(trials: int, prob: float, n: int) -> MomentReport:
    """Exact E(U) and Var(U) for a binomial latent total, by the routes of
    :func:`rounded_moments_series`.

    The paper states the closed form for totals over whole groups, so
    ``trials`` must be a multiple of ``n``.  The series' binomial powers are
    taken through the complex log to stay finite for very large trial counts.
    """
    scheme = RoundingScheme(n)
    if trials % n != 0:
        raise ValueError(f"trials={trials} must be a multiple of n={n}")
    return rounded_moments_series(Binomial(trials, prob), scheme)


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
