import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from roundedcounts import Binomial, NegativeBinomial, Poisson

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
