"""Latent count distributions: pmf, tails, pgf, and the support window.

These are the hidden non-negative integer variables whose totals are only
observed through a rounded average.  The log-pmf is Loader's saddle-point
form (``logpmf``), which loses no digits to cancellation at large counts
and parameters, and ``_pmf_run`` carries it between anchors by each
family's exact pmf ratio, for the tables of U.  Tails come from ``scipy.special``
(regularized incomplete gamma and beta functions), except the Poisson
upper tail 4.5 sd and more above a mean of 5e4 or more, which is Temme's
uniform asymptotic expansion.  Each family supplies its two raw tail
functions for points inside the support, and only the base class reads
them: ``cdf``/``sf`` take an integer scalar on a short path and floor any
other k, and give the exact values below 0 and at or past the largest
support point; ``_edge_tails`` reads the sorted block edges of a table.
The support window and every other module read the tails through these.
Generating functions accept complex arguments because the rounding
machinery evaluates them at roots of unity; each family gives the
generating function and its derivative together from one evaluation
(``_pgf_pair``), for the moment series.

``FAMILIES`` is the one table of what estimation from a rounded total needs
to know about each family; other modules look a family up there.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import special

__all__ = ["CountDistribution", "Poisson", "Binomial", "NegativeBinomial", "Family",
           "FAMILIES", "family_spec"]


def _positive_int(value, name: str) -> int:
    """value as an int; ValueError unless it is a positive integer (2.0 passes, 2.5 does not)."""
    if value < 1 or int(value) != value:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def _integer_power(z, k: int, log_z=None):
    """z**k for complex z via the complex log, safe for very large k;
    ``log_z``, if given, is ``np.log(z[z != 0])``."""
    z = np.asarray(z, dtype=complex)
    if k == 0:
        return np.ones_like(z)
    out = np.zeros_like(z)
    nz = z != 0
    out[nz] = np.exp(k * (np.log(z[nz]) if log_z is None else log_z))
    return out


class CountDistribution:
    """Common interface for the supported latent count distributions."""

    kind: str

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def skewness(self) -> float:
        """Third standardized moment (closed form), for a positive variance."""
        raise NotImplementedError

    def logpmf(self, k):
        """log P(Y = k), -inf off the support, for a scalar or an array k.

        Loader's saddle-point form (C. Loader, "Fast and Accurate
        Computation of Binomial Probabilities", 2000): for the Poisson
        ``-log(2*pi*k)/2 - stirlerr(k) - bd0(k, theta)``, for the binomial
        its two-sided analogue and for the negative binomial the binomial
        one through their relation, as R's ``dnbinom`` takes it
        (``_log_pmf``).  Every term is small where the pmf is not, so the
        log-pmf keeps its relative precision at any count, where the
        log-gamma form cancels terms of about k*log(k) (at k = 1e13, 3e14
        down to -15.9).
        """
        k = np.asarray(k, dtype=float)
        top = self.upper_support()
        inside = (k >= 0) & (k <= (math.inf if top is None else top))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = self._log_pmf_array(np.where(inside, k, 0.0).reshape(-1)).reshape(k.shape)
        return np.where(inside, out, -np.inf)[()]

    def _log_pmf(self, k):
        """log P(Y = k) for a float k or a 1-d float array of k in the support."""
        raise NotImplementedError

    def _log_pmf_array(self, k: np.ndarray) -> np.ndarray:
        """``_log_pmf`` at a 1-d float array of k in the support, point by
        point on Python floats up to ``_SCALAR_POINTS`` points, where the
        array form's fixed cost is the larger."""
        if len(k) <= _SCALAR_POINTS:
            return np.array([self._log_pmf(x) for x in k.tolist()])
        return self._log_pmf(k)

    def _pmf_ratio(self, k):
        """P(Y = k + 1)/P(Y = k) at a float array of k in the support."""
        raise NotImplementedError

    def pmf(self, k):
        """P(Y = k), evaluated in the log domain."""
        return np.exp(self.logpmf(k))

    def _pmf_run(self, a: int, b: int) -> np.ndarray:
        """P(Y = k) for k = a..b, 0 <= a <= b <= the largest support point.

        The points lie in rows of at most ``PMF_ANCHOR_EVERY``.  Each row
        starts at its end nearest the mean, at the exact log-pmf, and the
        cumulative product of the pmf ratios carries it away from the mean,
        so a point underflows only where its value does.  Each step rounds
        at most five times, so a point is within about
        3*PMF_ANCHOR_EVERY*eps relative (3.4e-13).
        """
        m = min(max(int(self.mean()), a), b + 1)
        # Point j >= 1 of a row takes the ratio at grid point j: from point
        # j + 1 to point j below the mean, from point j - 1 to point j above.
        down, up = _row_grid(m - 1, m - a, -1.0), _row_grid(m - 1, b + 1 - m, 1.0)
        anchors = np.concatenate((down[:, 0], up[:, 0] + 1.0))
        runs = []
        # Column 0 and the points past a or b, where the last row of each
        # direction runs, take ratios that are not used.
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = self._log_pmf_array(anchors)
            for grid, log_anchors, downward in ((down, logs[:len(down)], True),
                                                (up, logs[len(down):], False)):
                out = self._pmf_ratio(grid)
                if downward:
                    np.divide(1.0, out, out=out)
                out[:, 0] = np.exp(log_anchors)
                runs.append(np.cumprod(out, axis=1, out=out).reshape(-1))
        return np.concatenate((runs[0][:m - a][::-1], runs[1][:b + 1 - m]))

    def cdf(self, k):
        """P(Y <= k).

        An integer scalar k (``int`` or ``np.integer``) takes a short path
        that checks the support before the raw tail reads it; any other k is
        floored first.  Either way the result is a ``np.float64``, or an
        array shaped like k, and equal bit for bit for the same point.
        """
        if isinstance(k, int) or isinstance(k, np.integer):
            top = self.upper_support()
            if 0 <= k and (top is None or k < top):
                return self._cdf_at(float(k))
            return np.float64(k >= 0)
        return self._tail(k, self._cdf_at, 0.0, 1.0)

    def sf(self, k):
        """P(Y > k), by the same two paths as ``cdf``."""
        if isinstance(k, int) or isinstance(k, np.integer):
            top = self.upper_support()
            if 0 <= k and (top is None or k < top):
                return self._sf_at(float(k))
            return np.float64(k < 0)
        return self._tail(k, self._sf_at, 1.0, 0.0)

    def _cdf_at(self, k):
        """P(Y <= k) for float k with 0 <= k < upper_support(), a float or an
        array: one ufunc call.  Outside that range it may read wrong (0.0 at
        the top of ``Binomial(N, 1.0)``), so only this class calls it."""
        raise NotImplementedError

    def _sf_at(self, k):
        """P(Y > k) on the terms of ``_cdf_at``."""
        raise NotImplementedError

    def _tail(self, k, at, below: float, above: float):
        """A tail at floor(k): ``below`` under 0, ``above`` at and past the
        largest support point, and ``at`` of k clipped into the support."""
        k = np.floor(k)
        top = self.upper_support()
        if top is None:
            return np.where(k < 0, below, at(np.maximum(k, 0.0)))[()]
        out = at(np.minimum(np.maximum(k, 0.0), top - 1.0))
        return np.where(k < 0, below, np.where(k >= top, above, out))[()]

    def _edge_tails(self, edges: np.ndarray, upper: bool) -> np.ndarray:
        """P(Y > k) if upper, else P(Y <= k), at a non-empty increasing float
        array of the block edges k >= -1 of one table (``rounded_pmf``).

        Only the first edge can be -1 and only the last one can reach the
        largest support point, since the window lies inside the support.
        Those take their exact values and the raw tail reads the rest, which
        costs less than ``cdf``/``sf`` flooring, clipping and masking every
        edge.
        """
        top = self.upper_support()
        below = int(edges[0] < 0)
        past = int(top is not None and edges[-1] >= top)
        inside = (self._sf_at if upper else self._cdf_at)(edges[below:len(edges) - past])
        if not (below or past):
            return inside
        return np.concatenate(([1.0 if upper else 0.0] * below, inside,
                               [0.0 if upper else 1.0] * past))

    def _slow_edge_reads(self, top: int, step: int) -> float:
        """About how many upper-tail reads of ``_edge_tails`` at block edges
        ``step`` apart up to ``top`` cost a point-by-point evaluation each,
        from the parameters alone: none here."""
        return 0.0

    def pgf(self, s):
        """E(s**Y) as a complex number (closed form)."""
        raise NotImplementedError

    def pgf_derivative(self, s):
        """d/ds E(s**Y) as a complex number; equals the mean at s=1."""
        return self._pgf_pair(np.asarray(s, dtype=complex))[1][()]

    def _pgf_pair(self, s):
        """(pgf(s), pgf_derivative(s)) at a complex array s from one
        evaluation of the generating function, as the moment series needs."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def upper_support(self) -> int | None:
        """Largest support point, or None when the support is unbounded."""
        return None

    def _cornish_fisher(self, z: float) -> tuple[float, float]:
        """Cornish-Fisher estimates ``mean + sd*(-+z + (z**2 - 1)*skew/6)`` of
        the two quantiles that leave out the normal tail beyond z, from the
        mean, sd and closed-form skewness; no tail is read."""
        mean, sd = self.mean(), math.sqrt(self.variance())
        shift = (z * z - 1.0) * self.skewness() / 6.0 if sd > 0 else 0.0
        return mean + sd * (shift - z), mean + sd * (shift + z)

    def support_window(self, tail_eps: float) -> tuple[int, int]:
        """Latent range (lo, hi) outside which each tail holds less than tail_eps.

        ``lo`` is the smallest k with cdf(k) >= tail_eps (0 whenever
        P(Y = 0) >= tail_eps) and ``hi`` the smallest k with
        sf(k) < tail_eps, at most the largest support point, where both
        tails are settled.  Each search reads integer k on the scalar path of
        ``cdf``/``sf`` and starts at the Cornish-Fisher estimate of its
        quantile (``_cornish_fisher``), with ``z = -ndtri(tail_eps)``.
        """
        if not 0.0 < tail_eps < 1.0:
            raise ValueError("tail_eps must be in (0, 1)")
        lo, hi = self._cornish_fisher(-float(special.ndtri(tail_eps)))
        return (self._first_true(self.cdf, operator.ge, tail_eps, lo),
                self._first_true(self.sf, operator.lt, tail_eps, hi))

    def _first_true(self, tail: Callable, test: Callable, eps: float, guess: float) -> int:
        """Smallest k >= 0 with test(tail(k), eps), for a test false up to some
        k and true after: ``cdf(k) >= eps`` or ``sf(k) < eps``.

        From ``guess`` (rounded down and clipped into the support) the
        search gallops toward the answer in steps of 1, 2, 4, ... until the
        test flips, then bisects inside the last step.  The test is an
        ``operator`` function rather than a lambda: a Python call fewer per
        tail read.
        """
        top = self.upper_support()
        # In this argument order a NaN guess starts at 0 and an infinite one at the cap.
        k = int(min(sys.float_info.max if top is None else top, max(0.0, guess)))
        step = 1
        if test(tail(k), eps):
            hi = k
            while hi > 0:
                lo = max(hi - step, 0)
                if not test(tail(lo), eps):
                    break
                hi, step = lo, 2 * step
            else:
                return 0
        else:
            lo = k
            while True:
                hi = lo + step if top is None else min(lo + step, top)
                if test(tail(hi), eps):
                    break
                lo, step = hi, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if test(tail(mid), eps):
                hi = mid
            else:
                lo = mid
        return hi


# Below this mean pdtrc's far tail costs no more than the expansion read point
# by point (0.8 us at 3e4, 1.0 at 5e4, against 1.1), so the short far parts of
# tables at large n would get slower; measured on the large-spread tables.
_TEMME_MIN_MEAN = 5e4
_TEMME_MIN_Z = 4.5  # where pdtrc leaves its asymptotic branch
# A far part up to this long is cheaper element by element: the array form
# costs about 24 us however short the array, a float about 1.1 us.
_TEMME_SCALAR_MAX = 22
# Horner coefficients 1/17, 1/15, ..., 1/3 in v**2 of (atanh(v) - v)/v**3, to
# double precision for v < 0.1.
_BD0_SERIES = tuple(1.0 / j for j in range(17, 1, -2))
# 1/12, 1/360, 1/1260, 1/1680 and 1/1188: Stirling's series of stirlerr(k) in
# 1/k, whose next term is under 1e-16 relative above k = 15.
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: Latent points per row of ``CountDistribution._pmf_run``: one exact log-pmf
#: anchor each, the rest carried by the pmf ratio at up to five roundings a
#: step, about 3*512*eps = 3.4e-13 relative at worst.  An anchor costs
#: 1.2-2.5 us, so a row of 512 points adds at most 5 ns to the 10-20 ns of
#: a point.
PMF_ANCHOR_EVERY = 512
# Log-pmf points up to this many are computed one by one on Python floats:
# the array form costs about 25 points' time, 30 us against 1.2 us each for
# the Poisson and 60-65 us against 2.5 us for the other two families.
_SCALAR_POINTS = 24


def _two_product(a: float, b: float) -> tuple[float, float]:
    """a*b as hi + lo with hi the rounded product and lo its exact error
    (Dekker's product over Veltkamp's split), for a*b far from overflow."""
    hi = a * b
    split_a, split_b = 134217729.0 * a, 134217729.0 * b
    a_hi, b_hi = split_a - (split_a - a), split_b - (split_b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _row_grid(start: int, count: int, step: float) -> np.ndarray:
    """The points start + step*j, j >= 0, in rows of at most
    ``PMF_ANCHOR_EVERY``, as few rows as hold count of them and each as
    narrow as they allow, the last one cut short (a (0, 1) array for none)."""
    rows = -(-count // PMF_ANCHOR_EVERY)
    width = -(-count // rows) if rows else 1
    return np.arange(start, start + step * rows * width, step).reshape(rows, width)


def _bd0_series(x, m):
    """Loader's bd0(x, m) = x*log(x/m) + m - x from its series in
    v = (x - m)/(x + m), to double precision for |v| < 0.1, for floats or
    arrays; beyond that the series falls short of bd0."""
    d = x - m
    v = d / (x + m)
    t = v * v
    series = 0.0
    for c in _BD0_SERIES:
        series = series * t + c
    return d * v + 2.0 * x * v * t * series


def _bd0(x, m):
    """bd0(x, m) = x*log(x/m) + m - x >= 0 for x >= 0 and m > 0 (m at x = 0),
    for floats or arrays: the series (``_bd0_series``) where |v| < 0.1, whose
    direct form cancels, and beyond it x*log1p((x - m)/m) - (x - m), within
    about 10*eps of bd0."""
    b = _bd0_series(x, m)
    d = x - m
    if isinstance(b, float):
        if abs(d) < 0.1 * (x + m):
            return b
        return (x * math.log1p(d / m) if x else 0.0) - d
    far = np.abs(d) >= 0.1 * (x + m)
    if far.any():
        b = np.where(far, special.xlog1py(x, d / m) - d, b)
    return b


def _stirling_series(k):
    s0, s1, s2, s3, s4 = _STIRLING
    nn = k * k
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / k


def _stirlerr(k):
    """Loader's stirlerr(k) = log(k!) - log(sqrt(2*pi*k)*(k/e)**k) for k >= 0
    (0 at k = 0), a float or a 1-d array: Stirling's series above k = 15,
    and at or below it lgamma(k + 1) - (k + 1/2)*log(k) + k - log(2*pi)/2,
    whose cancellation leaves about 1e-14 absolute."""
    if isinstance(k, float):
        if k > 15.0:
            return _stirling_series(k)
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI if k else 0.0
    out = _stirling_series(k)
    small = k <= 15.0
    if small.any():
        ks = k[small]
        out[small] = np.where(ks > 0, special.gammaln(ks + 1.0) - (ks + 0.5) * np.log(ks)
                              + ks - _HALF_LOG_2PI, 0.0)
    return out


def _half_log_2pi(x):
    """log(2*pi*x)/2 for x > 0 and 0 at x = 0, where the saddle-point form
    of the pmf has no such term; a float or an array."""
    if isinstance(x, float):
        return 0.5 * math.log(2.0 * math.pi * x) if x else 0.0
    return 0.5 * np.log(np.where(x > 0, 2.0 * math.pi * x, 1.0))


def _temme_p(a, theta):
    """Regularized lower incomplete gamma P(a, theta) for a - theta >= 4.5*sqrt(a),
    theta >= 5e4, from Temme's uniform asymptotic expansion (Temme 1979; DLMF
    8.12) to the a**-2 term, for a float a or an array of them.

    Within 6e-14 relative of a 40-digit sum at means 1e5 to 1e8, 4.5 to 9 sd
    above them, and within 1.5e-14 at 5e4 (1.7e-14 at 3e4, 7e-14 at 1e3, so
    the mean stays above a few thousand).  The exponent
    ``b = a*log(a/theta) + theta - a``, which cancels in that form, is the
    series in ``v = (a - theta)/(a + theta)`` of Loader's ``bd0``
    (``_bd0_series``).  From
    v = 0.1 on the series falls short of b, but b exceeds 2,300 there, so P is
    0.0 either way.  exp and erfc are the numpy ufuncs for a float too, so
    both forms agree bitwise.
    """
    sqrt = math.sqrt if isinstance(a, float) else np.sqrt
    b = _bd0_series(a, theta)
    eta = -sqrt(2.0 * b / a)
    # Powers as products of reciprocals: ** on a negative array is much slower.
    im, ie, ia = 1.0 / (theta / a - 1.0), 1.0 / eta, 1.0 / a
    im2, ie2 = im * im, ie * ie
    im3, ie3 = im2 * im, ie2 * ie
    c0 = im - ie
    c1 = ie3 - im3 - im2 - im / 12.0
    c2 = (-3.0 * ie3 * ie2 + 3.0 * im3 * im2 + 5.0 * im2 * im2 + 25.0 / 12.0 * im3
          + im2 / 12.0 + im / 288.0)
    return (0.5 * special.erfc(-eta * sqrt(0.5 * a))
            - np.exp(-b) / sqrt(2.0 * math.pi * a) * (c0 + (c1 + c2 * ia) * ia))


class Poisson(CountDistribution):
    """Poisson with mean ``theta`` (strictly positive)."""

    kind = "poisson"

    def __init__(self, theta: float):
        if not theta > 0 or not np.isfinite(theta):
            raise ValueError(f"Poisson mean must be positive, got {theta}")
        self.theta = float(theta)

    def __repr__(self):
        return f"Poisson(theta={self.theta})"

    def mean(self):
        return self.theta

    def variance(self):
        return self.theta

    def skewness(self):
        return 1.0 / math.sqrt(self.theta)

    def _log_pmf(self, k):
        """-log(2*pi*k)/2 - stirlerr(k) - bd0(k, theta), -theta at k = 0."""
        return -_half_log_2pi(k) - _stirlerr(k) - _bd0(k, self.theta)

    def _pmf_ratio(self, k):
        return self.theta / (k + 1.0)

    def _cdf_at(self, k):
        return special.pdtr(k, self.theta)

    def _sf_at(self, k):
        # P(Y > k) is the regularized P(a, theta) at a = k + 1.  Where
        # a - theta >= 4.5*sqrt(a), pdtrc leaves its asymptotic branch for a series
        # that is slow (1.0 us per point at 5e4, 1.3 at 8.7e4) and, at means from
        # about 3e5, inaccurate (3.1e-2 relative at 1e7), so there Temme's
        # expansion takes over from a mean of 5e4.  Each point's formula depends
        # on (theta, k) alone: the scalar and array forms agree bit for bit.
        theta = self.theta
        if theta < _TEMME_MIN_MEAN:
            return special.pdtrc(k, theta)
        a = k + 1.0
        if isinstance(k, float):
            far = _TEMME_MIN_Z * math.sqrt(a) <= a - theta < math.inf
            return _temme_p(a, theta) if far else special.pdtrc(k, theta)
        far = (a - theta >= _TEMME_MIN_Z * np.sqrt(a)) & (a < math.inf)
        out = np.empty_like(a)
        a_far = a[far]
        if len(a_far) > _TEMME_SCALAR_MAX:
            out[far] = _temme_p(a_far, theta)
        elif len(a_far):
            out[far] = [_temme_p(x, theta) for x in a_far.tolist()]
        out[~far] = special.pdtrc(k[~far], theta)
        return out

    def _slow_edge_reads(self, top, step):
        # The far points of ``_sf_at``, a = k + 1 at or above the root of
        # a - theta = 4.5*sqrt(a): each is pdtrc's series below a mean of
        # 5e4, and Temme's expansion from there, one point at a time up to
        # _TEMME_SCALAR_MAX points and beyond them an array that costs as much.
        root = 0.5 * (_TEMME_MIN_Z + math.sqrt(_TEMME_MIN_Z**2 + 4.0 * self.theta))
        far = max(0.0, (top + 1.0 - root * root) / step)
        return far if self.theta < _TEMME_MIN_MEAN else min(far, _TEMME_SCALAR_MAX)

    def pgf(self, s):
        s = np.asarray(s, dtype=complex)
        return np.exp(self.theta * (s - 1.0))[()]

    def _pgf_pair(self, s):
        g = np.exp(self.theta * (s - 1.0))
        return g, self.theta * g

    def sample(self, rng, size=None):
        return rng.poisson(self.theta, size=size)


class Binomial(CountDistribution):
    """Binomial with ``trials`` total draws and success probability ``prob``."""

    kind = "binomial"

    def __init__(self, trials: int, prob: float):
        self.trials = _positive_int(trials, "trials")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must lie in [0, 1], got {prob}")
        self.prob = float(prob)

    def __repr__(self):
        return f"Binomial(trials={self.trials}, prob={self.prob})"

    def mean(self):
        return self.trials * self.prob

    def variance(self):
        return self.trials * self.prob * (1.0 - self.prob)

    def skewness(self):
        return (1.0 - 2.0 * self.prob) / math.sqrt(self.variance())

    @cached_property
    def _saddle(self) -> tuple[float, ...]:
        """N*p and N*(1 - p) as sums hi + lo of two floats each, exact to
        the last bit of lo, then stirlerr(N) and p/(1 - p).  A rounded mean
        would move bd0 by |k - N*p|*eps, up to 1e-11 at 7 sd of 1e9 trials."""
        trials = float(self.trials)
        mean, mean_lo = _two_product(trials, self.prob)
        other = trials - mean  # rounds off other_err exactly, as mean <= trials
        other_err = (trials - other) - mean
        return (mean, mean_lo, other, other_err - mean_lo, _stirlerr(trials),
                self.prob / (1.0 - self.prob) if self.prob < 1.0 else math.inf)

    def _log_pmf(self, k):
        """stirlerr(N) - stirlerr(k) - stirlerr(N - k) - bd0(k, N*p)
        - bd0(N - k, N*(1 - p)) - log(2*pi*k*(N - k)/N)/2, the last term 0 at
        k = 0 and N; 0 or -inf where p is 0 or 1."""
        if not 0.0 < self.prob < 1.0:
            top = self.trials if self.prob else 0
            return (0.0 if k == top else -math.inf) if isinstance(k, float) else \
                np.where(k == top, 0.0, -np.inf)
        trials = float(self.trials)
        mean, mean_lo, other, other_lo, stirlerr_n, _ = self._saddle
        rest = trials - k
        # bd0(x, m + lo) = bd0(x, m) + (1 - x/m)*lo to first order.
        return (stirlerr_n - _stirlerr(k) - _stirlerr(rest)
                - _bd0(k, mean) - (1.0 - k / mean) * mean_lo
                - _bd0(rest, other) - (1.0 - rest / other) * other_lo
                - _half_log_2pi(k * rest / trials))

    def _pmf_ratio(self, k):
        return (self.trials - k) / (k + 1.0) * self._saddle[5]

    # Incomplete beta forms rather than special.bdtr/bdtrc, which lose
    # accuracy at large trial counts (off by 0.40 at k = mean, 1e9 trials).
    def _cdf_at(self, k):
        return special.betainc(self.trials - k, k + 1.0, 1.0 - self.prob)

    def _sf_at(self, k):
        return special.betainc(k + 1.0, self.trials - k, self.prob)

    def pgf(self, s):
        s = np.asarray(s, dtype=complex)
        return _integer_power(1.0 - self.prob + self.prob * s, self.trials)[()]

    def _pgf_pair(self, s):
        z = np.asarray(1.0 - self.prob + self.prob * s, dtype=complex)
        log_z = np.log(z[z != 0])
        return (_integer_power(z, self.trials, log_z),
                self.trials * self.prob * _integer_power(z, self.trials - 1, log_z))

    def sample(self, rng, size=None):
        return rng.binomial(self.trials, self.prob, size=size)

    def upper_support(self):
        return self.trials


class NegativeBinomial(CountDistribution):
    """Failures before the ``size``-th success, each success with probability ``prob``."""

    kind = "negbinomial"

    def __init__(self, size: float, prob: float):
        if not size > 0 or not np.isfinite(size):
            raise ValueError(f"size must be positive, got {size}")
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"prob must lie in (0, 1], got {prob}")
        self.size = float(size)
        self.prob = float(prob)

    def __repr__(self):
        return f"NegativeBinomial(size={self.size}, prob={self.prob})"

    def mean(self):
        return self.size * (1.0 - self.prob) / self.prob

    def variance(self):
        return self.size * (1.0 - self.prob) / self.prob**2

    def skewness(self):
        return (2.0 - self.prob) / math.sqrt(self.size * (1.0 - self.prob))

    def _log_pmf(self, k):
        """log(r/(k + r)) + log P(B = r) for B ~ Binomial(k + r, p) at real
        k + r, in the binomial's saddle-point form: stirlerr(k + r) -
        stirlerr(r) - stirlerr(k) - bd0(r, (k + r)*p) - bd0(k, (k + r)*(1 - p))
        - log(2*pi*k*(k + r)/r)/2; 0 or -inf where p is 1."""
        r, p = self.size, self.prob
        if p == 1.0:
            return (0.0 if k == 0 else -math.inf) if isinstance(k, float) else \
                np.where(k == 0, 0.0, -np.inf)
        total = k + r
        return (_stirlerr(total) - _stirlerr(r) - _stirlerr(k)
                - _bd0(r, total * p) - _bd0(k, total * (1.0 - p))
                - _half_log_2pi(k * total / r))

    def _pmf_ratio(self, k):
        return (k + self.size) / (k + 1.0) * (1.0 - self.prob)

    def _cdf_at(self, k):
        return special.betainc(self.size, k + 1.0, self.prob)

    def _sf_at(self, k):
        return special.betaincc(self.size, k + 1.0, self.prob)

    def pgf(self, s):
        # E(s**Y) = (p / (1 - (1-p) s))**size, analytic for |s| < 1/(1-p).
        s = np.asarray(s, dtype=complex)
        q = 1.0 - self.prob
        if q > 0 and np.any(np.abs(s) >= 1.0 / q - 1e-12):
            raise ValueError("pgf argument outside the radius of convergence")
        return np.exp(self.size * (np.log(self.prob) - np.log(1.0 - q * s)))[()]

    def _pgf_pair(self, s):
        g = self.pgf(s)
        q = 1.0 - self.prob
        return g, self.size * q / (1.0 - q * s) * g

    def sample(self, rng, size=None):
        return rng.negative_binomial(self.size, self.prob, size=size)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean of each row, summed as ``np.mean`` sums one row on its own."""
    return np.add.reduce(x, axis=1) / x.shape[1]


# Block MLEs of P(lo <= Y <= hi) (see numeric_mle) for each row lo..hi of k, NaN where it
# is 0 for every parameter; a row from 0 puts an infinite term in the mean: the boundary.

def _poisson_block_mle(k: np.ndarray, _fixed) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.exp(_row_mean(np.log(k)))


def _binomial_block_mle(k: np.ndarray, trials: int) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = special.expit(_row_mean(np.log(k) - np.log(trials - k)))
    # A NaN row holds a value above trials or both 0 and trials: no maximum if it
    # starts above trials, else the supremum p = 0 for a row from 0 and p = 1 otherwise.
    lo = k[:, 0]
    return np.where(np.isnan(p) & (lo <= trials), lo > 0, p)


def _negbinomial_block_mle(k: np.ndarray, size: float) -> np.ndarray:
    # log(1 - p) is the mean of log(k / (k + size)) = -log1p(size / k).
    with np.errstate(divide="ignore"):
        return -np.expm1(-_row_mean(np.log1p(size / k)))


@dataclass(frozen=True)
class Family:
    """What estimation from a rounded total needs to know about one family.

    ``make(param, fixed, n=1)`` is the latent total of n measurements with
    per-measurement parameter ``param`` (the Poisson mean and the binomial
    trial count scale with n; the negative binomial size is the total's).
    ``fixed`` is the keyword of the parameter held fixed and ``fixed_attr``
    the model attribute holding it; ``fitted`` is the model attribute that
    is estimated, which is also the target of its MSE.  ``block_mle(k, fixed)``
    maximizes P(lo <= Y <= hi) for each row lo..hi of the 2-D float array k;
    ``plug_in(u, fixed)`` treats an array of rounded totals as latent counts.
    Only Poisson has the product form.
    ``ratio_grid`` (grid text, ``start:stop:step``) and ``ratio_fixed`` are
    the family's default parameter grid and fixed value for the MSE ratio.
    """

    name: str
    make: Callable[..., CountDistribution]
    fitted: str
    block_mle: Callable[[np.ndarray, float | None], np.ndarray]
    plug_in: Callable[[np.ndarray, float | None], np.ndarray]
    ratio_grid: str
    fixed: str | None = None
    fixed_attr: str | None = None
    ratio_fixed: float | None = None
    product_form: bool = False

    def resolve(self, trials=None, nb_size=None):
        """The fixed parameter among the keyword values; ValueError if missing."""
        if self.fixed is None:
            return None
        value = {"trials": trials, "nb_size": nb_size}[self.fixed]
        if value is None:
            raise ValueError(f"the {self.name} family requires {self.fixed}")
        return value

    def fixed_of(self, model: CountDistribution):
        return None if self.fixed_attr is None else getattr(model, self.fixed_attr)


FAMILIES: dict[str, Family] = {
    family.name: family for family in (
        Family("poisson", lambda theta, _, n=1: Poisson(n * theta), fitted="theta",
               block_mle=_poisson_block_mle, plug_in=lambda u, _: np.asarray(u, dtype=float),
               ratio_grid="0.2:10:0.2", product_form=True),
        Family("binomial", lambda prob, trials, n=1: Binomial(trials * n, prob), fitted="prob",
               block_mle=_binomial_block_mle, plug_in=lambda u, trials: u / trials,
               ratio_grid="0.05:0.95:0.05", fixed="trials", fixed_attr="trials", ratio_fixed=50),
        Family("negbinomial", lambda prob, size, n=1: NegativeBinomial(size, prob), fitted="prob",
               block_mle=_negbinomial_block_mle, plug_in=lambda u, size: size / (size + u),
               ratio_grid="0.05:0.95:0.05", fixed="nb_size", fixed_attr="size", ratio_fixed=5.0),
    )
}


def family_spec(name: str) -> Family:
    """The table entry of a family name; ValueError for unknown names."""
    if name not in FAMILIES:
        raise ValueError(f"family must be one of {tuple(FAMILIES)}, got {name!r}")
    return FAMILIES[name]
