import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from roundedcounts import Binomial, NegativeBinomial, Poisson
from roundedcounts.distributions import _TEMME_SCALAR_MAX, _temme_p

ALL_MODELS = [Poisson(0.5), Poisson(2.0), Poisson(7.3), Binomial(20, 0.35),
              Binomial(4, 0.3), NegativeBinomial(5, 0.4)]


def test_poisson_pmf_values():
    model = Poisson(2.0)
    assert model.pmf(0) == pytest.approx(np.exp(-2.0), abs=1e-14)
    # theta**4 exp(-theta)/4! = (2/3) exp(-2)
    assert model.pmf(4) == pytest.approx(2.0 / 3.0 * np.exp(-2.0), abs=1e-15)
    assert model.pmf(4) == pytest.approx(0.09022352215774178, abs=1e-15)


def test_binomial_pmf_symmetry():
    assert Binomial(2, 0.5).pmf(1) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_pmf_matches_scipy(model):
    ks = np.arange(0, model.support_window(1e-12)[1] + 1)
    if model.kind == "poisson":
        ref = stats.poisson.pmf(ks, model.theta)
    elif model.kind == "binomial":
        ref = stats.binom.pmf(ks, model.trials, model.prob)
    else:
        ref = stats.nbinom.pmf(ks, model.size, model.prob)
    assert np.max(np.abs(model.pmf(ks) - ref)) < 1e-13


def test_log_domain_handles_large_parameters():
    model = Poisson(4000.0)
    assert 0 < model.pmf(4000) < 1
    ks = np.arange(model.support_window(1e-13)[1] + 1)
    assert np.sum(model.pmf(ks)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_pgf_at_one_is_one(model):
    assert model.pgf(1.0) == pytest.approx(1.0, abs=1e-12)


def test_pgf_at_zero_is_mass_at_zero():
    assert Poisson(1.0).pgf(0.0) == pytest.approx(np.exp(-1.0), abs=1e-14)


def test_binomial_pgf_alternating_series():
    model = Binomial(4, 0.3)
    # oracle: sum of (-1)**y p_y over the full support
    oracle = sum((-1.0) ** y * model.pmf(y) for y in range(5))
    assert model.pgf(-1.0) == pytest.approx(oracle, abs=1e-14)
    assert model.pgf(-1.0) == pytest.approx(0.0256, abs=1e-14)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_pgf_matches_truncated_power_series(model):
    ks = np.arange(0, model.support_window(1e-14)[1] + 1)
    ps = model.pmf(ks)
    # 100 points: the unit circle plus the real segment [-1, 1]
    points = np.concatenate([
        np.exp(1j * np.linspace(0.0, 2 * np.pi, 50, endpoint=False)),
        np.linspace(-1.0, 1.0, 50).astype(complex),
    ])
    for s in points:
        series = np.sum(ps * s ** ks)
        assert abs(model.pgf(s) - series) < 1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_pgf_derivative_matches_finite_difference(model):
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        s = complex(rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99))
        if abs(s) > 0.99:
            continue
        fd = (model.pgf(s + h) - model.pgf(s - h)) / (2 * h)
        assert abs(model.pgf_derivative(s) - fd) < 1e-6


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_pgf_derivative_at_one_is_mean(model):
    assert model.pgf_derivative(1.0) == pytest.approx(model.mean(), rel=1e-10)
    assert Poisson(3.0).pgf_derivative(1.0) == pytest.approx(3.0, abs=1e-12)
    assert Binomial(10, 0.2).pgf_derivative(1.0) == pytest.approx(2.0, abs=1e-12)


def test_poisson_pgf_derivative_value():
    # theta * exp(theta (s-1)) at theta=2, s=0.5 -> 2 e^{-1}
    assert Poisson(2.0).pgf_derivative(0.5) == pytest.approx(2 * np.exp(-1.0), abs=1e-12)
    assert Poisson(2.0).pgf_derivative(0.5) == pytest.approx(0.7357588823428847, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_pgf_conjugate_symmetry(model):
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(s) > 1:
            continue
        assert model.pgf(np.conj(s)) == pytest.approx(np.conj(model.pgf(s)), abs=1e-12)


def test_support_window_binomial():
    assert Binomial(12, 0.4).support_window(1e-6) == (0, 12)
    model, eps = Binomial(12, 0.4), 0.3
    lo, hi = model.support_window(eps)
    assert 0 <= lo <= hi <= 12
    assert model.cdf(lo - 1) < eps <= model.cdf(lo)
    assert model.sf(hi) < eps <= model.sf(hi - 1)


def test_support_window_poisson_cumulative_oracle():
    eps = 1e-12
    for model in (Poisson(5.0), Poisson(200.0)):
        lo, hi = model.support_window(eps)
        # oracle: accumulate the pmf from each end, smallest terms first; lo is
        # where P(Y <= k) first reaches eps, hi where P(Y > k) first drops below
        ps = model.pmf(np.arange(1000))
        lower = np.cumsum(ps)
        upper = np.cumsum(ps[::-1])[::-1]  # P(Y >= k)
        assert lo == np.argmax(lower >= eps)
        assert hi == np.argmax(upper[1:] < eps)
        assert model.sf(hi) < eps <= model.sf(hi - 1)
        assert model.cdf(lo - 1) < eps <= model.cdf(lo)
    assert Poisson(5.0).support_window(eps)[0] == 0
    assert Poisson(200.0).support_window(eps)[0] > 0


def test_support_window_rejects_bad_eps():
    with pytest.raises(ValueError):
        Poisson(5.0).support_window(0.0)
    with pytest.raises(ValueError):
        Poisson(5.0).support_window(1.5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        Poisson(-1.0)
    with pytest.raises(ValueError):
        Binomial(0, 0.5)
    with pytest.raises(ValueError):
        Binomial(5, 1.2)
    with pytest.raises(ValueError):
        NegativeBinomial(-1.0, 0.5)
    with pytest.raises(ValueError):
        NegativeBinomial(2.0, 0.0)


def test_negative_binomial_pgf_pole_guard():
    model = NegativeBinomial(3.0, 0.25)
    with pytest.raises(ValueError):
        model.pgf(1.0 / 0.75)


def test_binomial_degenerate_probs():
    assert Binomial(4, 0.0).pmf(0) == pytest.approx(1.0)
    assert Binomial(4, 1.0).pmf(4) == pytest.approx(1.0)
    assert Binomial(4, 1.0).pmf(2) == 0.0


def mp_binomial_tails(trials, prob, k):
    """(P(Y <= k), P(Y > k)) at 40 digits, summing pmf terms outward from k
    over the smaller tail; mpmath.betainc does not converge at tens of
    millions of trials."""
    with mp.workdps(40):
        p = mp.mpf(prob)
        q = 1 - p
        upper = k >= trials * prob
        j = k + 1 if upper else k
        term = mp.exp(mp.loggamma(trials + 1) - mp.loggamma(j + 1) - mp.loggamma(trials - j + 1)
                      + j * mp.log(p) + (trials - j) * mp.log(q))
        tail = mp.mpf(0)
        while term > tail * mp.mpf(10) ** -42:
            tail += term
            if upper:
                term *= (trials - j) / mp.mpf(j + 1) * p / q
                j += 1
            else:
                term *= j / mp.mpf(trials - j + 1) * q / p
                j -= 1
        return (1 - tail, tail) if upper else (tail, 1 - tail)


@pytest.mark.parametrize("z", [-8.0, 0.0, 8.0])
def test_binomial_tails_at_large_trials_match_mpmath(z):
    # special.bdtr is off by 3.9e-8 relative at z=-8 and 3.5e-2 at z=0 here.
    # At z=+-8 the small tail's relative condition number in prob is 5.1e4,
    # so double rounding inside the evaluation alone can move it by about
    # 5e-12 (measured: 4.2e-12 at z=-8, as scipy.stats.binom gives).
    model = Binomial(29973776, 0.5682118210604725)
    k = math.floor(model.mean() + z * math.sqrt(model.variance()))
    cdf, sf = mp_binomial_tails(model.trials, model.prob, k)
    assert abs(model.cdf(k) / cdf - 1) < 1e-11
    assert abs(model.sf(k) / sf - 1) < 1e-11


# Found comparing significance levels on random models: near the middle the
# incomplete beta form of the lower tail is 3.9e-12 relative low (0.5371447388491211
# against 0.537144738851207), while sf matches.  This passes, and the marker has
# to go, once each family evaluates its smaller tail directly and the larger one
# as its complement.
@pytest.mark.xfail(strict=True, reason="betainc loses accuracy in the binomial middle")
def test_binomial_cdf_near_the_middle_matches_mpmath():
    model, k = Binomial(2_960_452, 1.2291595683208096e-4), 365
    cdf, _ = mp_binomial_tails(model.trials, model.prob, k)
    assert abs(model.cdf(k) / cdf - 1) < 1e-13


# The same form is off across the whole lower tail, where it is the smaller
# tail, so evaluating the smaller tail directly would not mend it: for this
# model 4.2e-11 relative at z = -8, 1.7e-11 at -3 and 5.9e-12 at -0.5.
# betaincc(k + 1, N - k, p) is within 1.7e-15 at each of these points, but costs
# 4 to 8 times as much per element.
@pytest.mark.xfail(strict=True, reason="betainc loses accuracy in the binomial lower tail")
def test_binomial_lower_tail_matches_mpmath():
    model = Binomial(2_960_452, 1.2291595683208096e-4)
    k = math.floor(model.mean() - 8.0 * math.sqrt(model.variance()))
    cdf, _ = mp_binomial_tails(model.trials, model.prob, k)
    assert abs(model.cdf(k) / cdf - 1) < 1e-13


@pytest.mark.parametrize("z", [-8.0, 0.0, 8.0])
def test_negative_binomial_tails_at_fractional_size_match_mpmath(z):
    model = NegativeBinomial(200.5, 0.3)
    k = math.floor(model.mean() + z * math.sqrt(model.variance()))
    with mp.workdps(30):
        cdf = mp.betainc(model.size, k + 1, 0, model.prob, regularized=True)
        sf = mp.betainc(model.size, k + 1, model.prob, 1, regularized=True)
    assert abs(model.cdf(k) / cdf - 1) < 1e-12
    assert abs(model.sf(k) / sf - 1) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_tails_outside_the_support(model):
    top = model.upper_support()
    assert model.cdf(-1) == 0.0 and model.sf(-1) == 1.0
    assert model.cdf(-5.0) == 0.0 and model.sf(-5.0) == 1.0
    if top is not None:
        assert model.cdf(top) == 1.0 and model.sf(top) == 0.0
        assert model.cdf(top + 3) == 1.0 and model.sf(top + 3) == 0.0
    ks = np.arange(-2, 40)
    assert np.all(np.isfinite(model.cdf(ks))) and np.all(np.isfinite(model.sf(ks)))


# Each family's tails written out in full, flooring and edge values included,
# as the reference that cdf and sf must reproduce bit for bit.
def reference_tails(model, k):
    k = np.floor(k)
    if isinstance(model, Poisson):
        # pdtrc, but Temme's expansion from a mean of 5e4 at a = k + 1 >= mean +
        # 4.5*sqrt(a), a finite; evaluated as an array even for a scalar k.
        inner, theta = np.maximum(k, 0.0), model.theta
        a = np.array(inner + 1.0, ndmin=1)
        far = (theta >= 5e4) & (a - theta >= 4.5 * np.sqrt(a)) & np.isfinite(a)
        sf = np.array(special.pdtrc(inner, theta), ndmin=1)
        sf[far] = _temme_p(a[far], theta)
        return (np.where(k < 0, 0.0, special.pdtr(inner, theta))[()],
                np.where(k < 0, 1.0, sf.reshape(np.shape(k)))[()])
    if isinstance(model, Binomial):
        inner = np.minimum(np.maximum(k, 0.0), model.trials - 1.0)
        cdf = special.betainc(model.trials - inner, inner + 1.0, 1.0 - model.prob)
        sf = special.betainc(inner + 1.0, model.trials - inner, model.prob)
        return (np.where(k < 0, 0.0, np.where(k >= model.trials, 1.0, cdf))[()],
                np.where(k < 0, 1.0, np.where(k >= model.trials, 0.0, sf))[()])
    cdf = special.betainc(model.size, np.maximum(k, 0.0) + 1.0, model.prob)
    sf = special.betaincc(model.size, np.maximum(k, 0.0) + 1.0, model.prob)
    return np.where(k < 0, 0.0, cdf)[()], np.where(k < 0, 1.0, sf)[()]


PINNED_MODELS = ALL_MODELS + [Poisson(1e18), Binomial(1, 0.0), Binomial(1, 1.0),
                              Binomial(3, 0.0), Binomial(3, 1.0), Binomial(10**9, 0.3),
                              NegativeBinomial(0.3, 1.0), NegativeBinomial(2.5, 1e-6)]
PINNED_POINTS = [0, 1, 3, 4, 21, -1, -7, 2.5, -0.5, 3.999, 1e12, -1e300, 1e300,
                 np.float64(7.0), np.int64(2), math.nan, math.inf, -math.inf,
                 np.int64(-1), np.int64(3), np.int64(21), 10**30, -(10**30), True,
                 [0, 1, 2], np.arange(-3, 30), np.linspace(-2.5, 25.5, 57),
                 np.array([math.nan, math.inf, -math.inf, 0.0, 3.0, 1e20]),
                 np.array(5.0), np.zeros((2, 3)), np.array([], dtype=float)]


@pytest.mark.parametrize("model", PINNED_MODELS, ids=repr)
def test_tails_are_bitwise_the_per_family_formulas(model):
    with np.errstate(invalid="ignore"):
        for k in PINNED_POINTS:
            for got, want in zip((model.cdf(k), model.sf(k)), reference_tails(model, k)):
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def reference_first(pred_of_array, top) -> int:
    """Smallest k >= 0 with the monotone predicate true: a doubling search
    from 0 and then a 64-way narrowing, each step on a whole vector of k."""
    powers = np.concatenate(([0], 2 ** np.arange(63, dtype=np.int64)))
    if top is not None:
        powers = np.unique(np.minimum(powers, top))
    first = int(np.argmax(pred_of_array(powers)))
    assert first > 0 or pred_of_array(powers[:1])[0]
    if first == 0:
        return 0
    lo, hi = int(powers[first - 1]), int(powers[first])  # pred(lo) false, pred(hi) true
    while hi - lo > 1:
        grid = np.array(sorted({lo + (hi - lo) * j // 64 for j in range(65)}), dtype=np.int64)
        at = int(np.argmax(pred_of_array(grid)))
        lo, hi = int(grid[at - 1]), int(grid[at])
    return hi


@st.composite
def windowed_models(draw, poisson_log_top=18.0):
    kind = draw(st.sampled_from(["poisson", "binomial", "negbinomial"]))
    if kind == "poisson":
        # Means from 3e5 to 1e18, where scipy's Poisson tails lose accuracy, get
        # a share of their own.
        model = Poisson(10.0 ** draw(st.one_of(st.floats(-3.0, poisson_log_top),
                                               st.floats(math.log10(3e5), 18.0))))
    elif kind == "binomial":
        trials = draw(st.one_of(st.just(1), st.integers(1, 50), st.integers(1, 10**9)))
        model = Binomial(trials, draw(st.one_of(st.sampled_from([0.0, 1.0, 1e-8]),
                                                st.floats(0.0, 1.0))))
    else:
        model = NegativeBinomial(10.0 ** draw(st.floats(-2.0, 6.0)),
                                 draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0))))
    eps = draw(st.one_of(st.sampled_from([1e-300, 0.5]), st.floats(-300.0, math.log10(0.5)).map(
        lambda e: 10.0 ** e)))
    if draw(st.integers(0, 3)) == 0:
        # A tail value of the model itself, so that a predicate meets eps with equality.
        k = max(0, math.floor(model.mean() + draw(st.floats(-3.0, 3.0)) * math.sqrt(model.variance())))
        tail = float(draw(st.sampled_from([model.cdf, model.sf]))(k))
        eps = tail if 0.0 < tail <= 0.5 else eps
    return model, eps


@settings(derandomize=True, max_examples=300, deadline=None)
@given(windowed_models())
def test_support_window_matches_a_vector_bisection(case):
    model, eps = case
    top = model.upper_support()
    lo = reference_first(lambda k: model.cdf(k) >= eps, top)
    hi = reference_first(lambda k: model.sf(k) < eps, top)
    assert model.support_window(eps) == (lo, hi)


def bracketed_first(model, pred) -> int:
    """Reference for the guess-started search in support_window, with no guess:
    bisection over mean +- 10 sd, the bracket halving toward 0 or doubling
    outward (up to the largest support point) until it holds the answer."""
    mean, spread = model.mean(), 10.0 * np.sqrt(model.variance())
    lo, hi = max(0, int(mean - spread)), max(1, int(mean + spread + 10.0))
    top = model.upper_support()
    if top is not None:
        hi = min(hi, top)
    while lo > 0 and pred(lo):
        lo //= 2
    while not pred(hi):
        hi = 2 * hi if top is None else min(2 * hi, top)
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def bracketed_window(model, eps) -> tuple[int, int]:
    return (bracketed_first(model, lambda k: model.cdf(k) >= eps),
            bracketed_first(model, lambda k: model.sf(k) < eps))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(windowed_models(poisson_log_top=300.0))
def test_support_window_matches_the_bracketed_bisection(case):
    model, eps = case
    got = model.support_window(eps)
    assert got == bracketed_window(model, eps)
    assert all(type(end) is int for end in got)


@pytest.mark.parametrize("model", [Binomial(1, 1e-8), Binomial(1, 0.5), Poisson(1e-3),
                                   Poisson(1e300), NegativeBinomial(0.01, 1e-6),
                                   NegativeBinomial(1e6, 1e-6), NegativeBinomial(0.01, 1.0)],
                         ids=repr)
@pytest.mark.parametrize("eps", [1e-300, 1e-12, 0.25, 0.5])
def test_support_window_at_the_skew_extremes(model, eps):
    assert model.support_window(eps) == bracketed_window(model, eps)


def test_support_window_with_infinite_variance():
    # prob**2 underflows, so sd and both quantile guesses are infinite.
    model, eps = NegativeBinomial(1.0, 1e-160), 1e-12
    assert model.variance() == math.inf
    lo, hi = model.support_window(eps)
    assert model.cdf(lo) >= eps > model.cdf(lo - 1)
    assert model.sf(hi) < eps <= model.sf(hi - 1)


def test_support_window_makes_few_tail_calls(monkeypatch):
    model = Binomial(15500, 0.3)
    calls = []
    for name in ("cdf", "sf"):
        tail = getattr(model, name)
        monkeypatch.setattr(model, name, lambda k, tail=tail: calls.append(k) or tail(k))
    assert model.support_window(1e-12) == bracketed_window(Binomial(15500, 0.3), 1e-12)
    assert len(calls) <= 8


def mp_poisson_sf(theta, k):
    """P(Y > k) for Y ~ Poisson(theta) at 40 digits: the sum of the pmf terms
    from k + 1, theta**(k+1) exp(-theta)/(k+1)! * 1F1(1; k+2; theta), which
    mpmath's hyp1f1 adds up in fixed point (its gammainc stops converging
    near theta = 1e7)."""
    with mp.workdps(40):
        theta = mp.mpf(theta)
        head = mp.exp((k + 1) * mp.log(theta) - theta - mp.loggamma(k + 2))
        return head * mp.hyp1f1(1, k + 2, theta, maxterms=10**8)


# scipy.special.pdtrc (scipy 1.17.1) loses accuracy in the upper tail once the
# mean passes about 3e5: at z = 5 it is off by 4.6e-6 relative at 1e6 and by
# 3.1e-2 at 1e7.  Poisson.sf takes Temme's expansion there.
@pytest.mark.parametrize("theta", [1e6, 1e7])
def test_poisson_upper_tail_at_large_means_matches_mpmath(theta):
    k = math.floor(theta + 5.0 * math.sqrt(theta))
    assert abs(Poisson(theta).sf(k) / mp_poisson_sf(theta, k) - 1) < 1e-9


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(math.log10(5e4), 8.0), st.floats(4.0, 9.0))
def test_poisson_upper_tail_matches_mpmath_property(log_theta, z):
    # z from 4 to 9 spans the switch to Temme's expansion at about 4.5.
    theta = 10.0 ** log_theta
    k = math.floor(theta + z * math.sqrt(theta))
    assert abs(Poisson(theta).sf(k) / mp_poisson_sf(theta, k) - 1) < 1e-12


@pytest.mark.parametrize("theta", [1e5, 1e6])
@pytest.mark.parametrize("z", [20.0, 37.0])
def test_poisson_deep_upper_tail_matches_mpmath(theta, z):
    # Out to the 1e-300 quantile, where v = (k + 1 - theta)/(k + 1 + theta)
    # reaches 0.06 and the exponent needs every term of its series.
    k = math.floor(theta + z * math.sqrt(theta))
    assert abs(Poisson(theta).sf(k) / mp_poisson_sf(theta, k) - 1) < 1e-12


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.floats(5e4, 2e5))
def test_poisson_tail_formulas_agree_at_the_switch(theta):
    # Here pdtrc is still accurate, so at the first k that takes Temme's
    # expansion, and the one before it, both formulas give the same tail.
    k = math.floor(theta + 4.5 * math.sqrt(theta))
    while k + 1.0 - theta < 4.5 * math.sqrt(k + 1.0):
        k += 1
    model = Poisson(theta)
    assert model.sf(k - 1) == special.pdtrc(k - 1, theta)
    assert model.sf(k) == _temme_p(k + 1.0, theta)
    for j in (k - 1, k):
        assert abs(_temme_p(j + 1.0, theta) / special.pdtrc(j, theta) - 1) < 1e-13


@pytest.mark.parametrize("theta", [1e5, 1e9])
def test_poisson_sf_underflows_where_the_bd0_series_falls_short(theta):
    # From v = (k + 1 - theta)/(k + 1 + theta) = 0.1 on, the exponent's series
    # understates it, but the tail is far below the smallest double.
    k = math.ceil(theta * 11.0 / 9.0)
    assert mp_poisson_sf(theta, k) < mp.mpf(10) ** -1000
    assert Poisson(theta).sf(k) == 0.0 and Poisson(theta).sf(float(k)) == 0.0


@pytest.mark.parametrize("theta", [49_999.9, 5e4, 9e4, 3.3e5, 1e7, 1e18])
def test_poisson_sf_scalar_and_array_agree_bitwise(theta):
    ks = np.floor(theta + np.linspace(-9.0, 40.0, 400) * math.sqrt(theta))
    ks = np.concatenate((ks, [0.0, 1e20, 1e300, math.inf, math.nan]))
    model = Poisson(theta)
    with np.errstate(invalid="ignore"):
        scalars = np.array([model.sf(float(k)) for k in ks])
        integers = np.array([model.sf(int(k)) for k in ks[:-2]])
        assert scalars.tobytes() == model.sf(ks).tobytes()
        assert integers.tobytes() == scalars[:-2].tobytes()
        if theta < 5e4:
            assert scalars.tobytes() == special.pdtrc(ks, theta).tobytes()


@pytest.mark.parametrize("far", [1, _TEMME_SCALAR_MAX - 1, _TEMME_SCALAR_MAX,
                                 _TEMME_SCALAR_MAX + 1])
@pytest.mark.parametrize("theta", [5e4, 7.7e4, 1e6])
def test_poisson_sf_of_a_batch_is_its_points_bitwise(theta, far):
    # A far part this short is read element by element, a longer one as one
    # array; either way each tail is the one a call at that point alone gives.
    sd = math.sqrt(theta)
    near = np.floor(theta + np.linspace(-6.0, 4.0, 9) * sd)
    ks = np.concatenate((np.floor(theta + np.linspace(4.7, 9.0, far) * sd), near))
    model = Poisson(theta)
    a = ks + 1.0
    assert np.count_nonzero(a - theta >= 4.5 * np.sqrt(a)) == far
    for batch in (ks, ks[::-1], np.concatenate((near[:4], ks[:far], near[4:]))):
        assert model.sf(batch).tobytes() == np.array([model.sf(k) for k in batch]).tobytes()


@pytest.mark.parametrize("theta", [100.0, 1234.5, 1e4, 49_999.0, 5e4, 1e5, 1e6, 1e7])
def test_poisson_slow_edge_reads_count_the_far_edges(theta):
    # Edges step apart down from top: the count from the parameters alone is
    # within one of the edges that take the far formula, capped from a mean
    # of 5e4 where the expansion reads more than _TEMME_SCALAR_MAX as one array.
    for step in (1, 3, 7, 31):
        for z in (0.0, 4.4, 5.0, 6.0, 7.5, 12.0):
            top = math.floor(theta + z * math.sqrt(theta))
            a = np.arange(top, theta - 1.0, -step, dtype=float) + 1.0
            far = np.count_nonzero(a - theta >= 4.5 * np.sqrt(a))
            if theta >= 5e4:
                far = min(far, _TEMME_SCALAR_MAX)
            assert abs(Poisson(theta)._slow_edge_reads(top, step) - far) <= 1.0, (step, z)
            for model in (Binomial(1000, 0.3), NegativeBinomial(5.0, 0.4)):
                assert model._slow_edge_reads(top, step) == 0.0
