import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from roundedcounts import (
    HALF_EVEN,
    HALF_UP,
    Binomial,
    NegativeBinomial,
    NoMaximumError,
    Poisson,
    RoundingScheme,
    exact_mse,
    expected_value_exact,
    monte_carlo_mse,
    mse_ratio_curve,
    numeric_mle,
    poisson_mle_closed,
    round_count,
    rounded_logpmf,
    rounded_pmf,
    sample_tally,
    support_block,
)
from roundedcounts import estimation, rounding
from roundedcounts.distributions import family_spec
from roundedcounts.estimation import _estimator_fn
from roundedcounts.rounding import MAX_TABLE_ENTRIES, TAIL_EPS


class TestClosedForm:
    def test_pair_block_values(self):
        assert poisson_mle_closed(2, 2).value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert poisson_mle_closed(10, 2).value == pytest.approx(math.sqrt(10 * 9), abs=1e-12)
        assert poisson_mle_closed(0, 2).value == 0.0
        assert poisson_mle_closed(0, 1).value == 0.0

    def test_triple_block_value(self):
        est = poisson_mle_closed(3, 3)
        assert est.value == pytest.approx(24 ** (1 / 3), abs=1e-12)
        assert est.value == pytest.approx(2.8844991406148166, abs=1e-12)

    def test_identity_at_n1(self):
        assert poisson_mle_closed(4, 1).value == 4.0

    def test_zero_observation_keeps_positive_product_for_larger_groups(self):
        # the zero factor is dropped before the geometric mean, so the
        # product-form value is positive at u=0 once the block has positive
        # members; the likelihood supremum itself sits at 0 (see numeric)
        assert poisson_mle_closed(0, 5).value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert poisson_mle_closed(0, 50).value == pytest.approx(
            math.exp(math.lgamma(25.0) / 24.0), abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_even_groups_estimate_below_observation(self, n):
        for v in range(1, 30):
            assert poisson_mle_closed(v * n, n).value < v * n

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            poisson_mle_closed(4, 3)

    @pytest.mark.parametrize("n, v", [(1, 7), (3, 0), (5, 6), (50, 1), (7, 14_286)])
    def test_loglik_is_rounded_logpmf_bit_for_bit(self, n, v):
        est = poisson_mle_closed(n * v, n)
        assert est.loglik_at_optimum == rounded_logpmf(Poisson(est.value), RoundingScheme(n), n * v)


class TestNumeric:
    def test_identity_at_n1(self):
        assert numeric_mle(4, RoundingScheme(1)).value == pytest.approx(4.0, abs=1e-6)

    def test_matches_closed_form_inside_support(self):
        for n in (1, 2, 3, 5, 6):
            for v in range(1, 13):
                closed = poisson_mle_closed(v * n, n).value
                numeric = numeric_mle(v * n, RoundingScheme(n)).value
                assert numeric == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_zero_observation_goes_to_boundary(self, n):
        est = numeric_mle(0, RoundingScheme(n))
        assert est.value == 0.0

    def test_binomial_against_dense_grid(self):
        trials, n, u = 20, 2, 10
        scheme = RoundingScheme(n)
        est = numeric_mle(u, scheme, "binomial", trials=trials)
        # oracle: dense grid search over the block-summed likelihood
        grid = np.linspace(0.0, 1.0, 10_001)
        from scipy import stats
        block = np.arange(9, 11)  # latent values rounding to 10 at n=2
        lik = stats.binom.pmf(block[:, None], trials, grid[None, :]).sum(axis=0)
        oracle = grid[np.argmax(lik)]
        assert est.value == pytest.approx(oracle, abs=1e-4)
        assert 0.0 <= est.value <= 1.0

    def test_binomial_boundaries(self):
        scheme = RoundingScheme(2)
        assert numeric_mle(0, scheme, "binomial", trials=20).value == 0.0
        assert numeric_mle(20, scheme, "binomial", trials=20).value == 1.0

    def test_negative_binomial_runs(self):
        est = numeric_mle(6, RoundingScheme(3), "negbinomial", nb_size=5.0)
        assert 0.0 < est.value <= 1.0

    def test_flat_likelihood_raises(self):
        with pytest.raises(NoMaximumError):
            numeric_mle(8, RoundingScheme(2), "binomial", trials=4)

    def test_missing_fixed_params_rejected(self):
        with pytest.raises(ValueError):
            numeric_mle(4, RoundingScheme(2), "binomial")
        with pytest.raises(ValueError):
            numeric_mle(4, RoundingScheme(2), "negbinomial")


def latent_block(u, n, tie_rule):
    """The latent values that round to u, found by direct search."""
    ks = np.arange(max(u - n, 0), u + n + 1)
    return ks[n * round_count(ks, n, tie_rule) == u]


def block_loglik(family, params, u, n, tie_rule, fixed):
    """log P(U = u) at each parameter value from scipy pmfs over the block."""
    ks = latent_block(u, n, tie_rule)[None, :]
    params = np.asarray(params, dtype=float)[:, None]
    with np.errstate(divide="ignore"):
        if family == "poisson":
            logp = stats.poisson.logpmf(ks, params)
        elif family == "binomial":
            logp = stats.binom.logpmf(ks, fixed, params)
        else:
            logp = stats.nbinom.logpmf(ks, fixed, params)
    return np.logaddexp.reduce(logp, axis=1)


@st.composite
def mle_inputs(draw):
    """A family with its fixed parameter, a scheme and an observed total,
    with blocks at 0 and at the top of the binomial support drawn often."""
    family = draw(st.sampled_from(["poisson", "binomial", "negbinomial"]))
    n = draw(st.integers(1, 30))
    tie_rule = draw(st.sampled_from(["half-up", "half-even"]))
    if family == "binomial":
        fixed = draw(st.integers(1, 80))
        top = round_count(fixed, n, tie_rule)
        v = draw(st.one_of(st.sampled_from([0, top, top + 1]), st.integers(0, top)))
    else:
        fixed = draw(st.sampled_from([0.3, 1.0, 2.5, 5.0, 40.0])) if family == "negbinomial" else None
        v = draw(st.one_of(st.just(0), st.integers(0, 60)))
    return family, fixed, n * v, RoundingScheme(n, tie_rule)


class TestClosedFormMle:
    @pytest.mark.parametrize("family, fixed, n, u, want", [
        ("binomial", 10, 10, 0, 0.0),
        ("binomial", 20, 6, 18, 1.0),
        ("negbinomial", 5.0, 25, 0, 1.0),
        ("binomial", 1, 3, 0, 0.0),  # the block 0..1 is the whole support
    ])
    def test_boundary_blocks(self, family, fixed, n, u, want):
        kwargs = {"trials": fixed} if family == "binomial" else {"nb_size": fixed}
        est = numeric_mle(u, RoundingScheme(n), family, **kwargs)
        assert est.value == want
        assert est.loglik_at_optimum == 0.0
        if want > 0:  # the model at the boundary sits on one point of the block
            model = family_spec(family).make(want, fixed)
            assert rounded_logpmf(model, RoundingScheme(n), u) == 0.0

    def test_large_poisson_total_is_exact(self):
        # The block 3e9-1..3e9+1 has geometric mean m (1 - 1/m^2)^(1/3), m = 3e9,
        # within 1e-19 of m.  exp(mean(log k)) carries the rounding of logs
        # near 22, about 5e-15 relative.
        est = numeric_mle(3 * 10**9, RoundingScheme(3))
        assert est.value == pytest.approx(3e9, rel=1e-14)

    def test_poisson_equals_product_form_off_zero(self):
        for n in range(1, 13):
            for v in range(1, 31):
                assert numeric_mle(v * n, RoundingScheme(n)).value == \
                    poisson_mle_closed(v * n, n).value, (n, v)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mle_inputs())
    def test_reaches_dense_grid_maximum(self, case):
        family, fixed, u, scheme = case
        kwargs = {"binomial": {"trials": fixed}, "negbinomial": {"nb_size": fixed}}.get(family, {})
        if family == "binomial" and latent_block(u, scheme.n, scheme.tie_rule)[0] > fixed:
            with pytest.raises(NoMaximumError):
                numeric_mle(u, scheme, family, **kwargs)
            return
        est = numeric_mle(u, scheme, family, **kwargs)
        if family == "poisson":
            grid = np.concatenate([[0.0], np.geomspace(1e-8, 10.0 * (u + scheme.n + 10.0), 4001)])
        else:
            grid = np.linspace(1e-9 if family == "negbinomial" else 0.0, 1.0, 4001)
        best = block_loglik(family, grid, u, scheme.n, scheme.tie_rule, fixed).max()
        at = block_loglik(family, [est.value], u, scheme.n, scheme.tie_rule, fixed)[0]
        assert at >= best - 1e-9
        assert est.loglik_at_optimum == pytest.approx(at, abs=1e-9)
        if est.value > 0:
            model = family_spec(family).make(est.value, fixed)
            assert est.loglik_at_optimum == rounded_logpmf(model, scheme, u)
        else:
            assert est.loglik_at_optimum == 0.0

    @pytest.mark.parametrize("family", ["binomial", "negbinomial"])
    def test_ratio_curve_requires_fixed_parameter(self, family):
        with pytest.raises(ValueError):
            mse_ratio_curve(family, [0.3], [1, 2])


@st.composite
def estimator_totals(draw):
    """A family with its fixed parameter, a scheme and a sorted array of
    distinct totals up to 3e9, with 0, the smallest totals and (binomial)
    the totals around the top of the support drawn often."""
    family = draw(st.sampled_from(["poisson", "binomial", "negbinomial"]))
    n = draw(st.integers(1, 1000))
    scheme = RoundingScheme(n, draw(st.sampled_from([HALF_UP, HALF_EVEN])))
    top = 3 * 10**9 // n
    vs = st.one_of(st.integers(0, 3), st.integers(0, top))
    fixed = None
    if family == "binomial":
        fixed = draw(st.one_of(st.integers(1, 5 * n), st.integers(1, 3 * 10**9)))
        near = round_count(fixed, n)
        vs = st.one_of(vs, st.integers(max(near - 2, 0), near + 2))
    elif family == "negbinomial":
        fixed = draw(st.floats(0.01, 1e6))
    totals = draw(st.lists(vs, min_size=1, max_size=12, unique=True))
    return family, fixed, scheme, n * np.array(sorted(totals), dtype=np.int64)


def same_float(a: float, b: float) -> bool:
    """Equal bit for bit (NaN matches NaN)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestValueOnly:
    """The estimates of the MSE paths, one array call per set of totals,
    against the public fits that also report the log-likelihood."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(estimator_totals())
    def test_array_estimates_are_the_public_fits(self, case):
        family, fixed, scheme, us = case
        spec = family_spec(family)
        model = spec.make(0.5, fixed)
        kwargs = {spec.fixed: fixed} if spec.fixed else {}
        numeric = _estimator_fn("numeric-mle", model, scheme)(us)
        assert numeric.shape == us.shape
        for u, value in zip(us.tolist(), numeric):
            try:
                want = numeric_mle(u, scheme, family, **kwargs).value
            except NoMaximumError:
                assert math.isnan(value), u
                continue
            assert same_float(value, want), (u, value, want)
        if spec.product_form:
            closed = _estimator_fn("closed-mle", model, scheme)(us)
            for u, value in zip(us.tolist(), closed):
                assert same_float(value, poisson_mle_closed(u, scheme.n).value), u

    @pytest.mark.parametrize("tie_rule", [HALF_UP, HALF_EVEN])
    @pytest.mark.parametrize("family, fixed", [("poisson", None), ("binomial", 20),
                                               ("negbinomial", 2.5)])
    def test_block_value_is_the_numeric_mle_value(self, family, fixed, tie_rule):
        spec = family_spec(family)
        kwargs = {spec.fixed: fixed} if spec.fixed else {}
        model = spec.make(0.5, fixed)
        kinds = set()
        for n in (1, 2, 3, 4, 7):
            scheme = RoundingScheme(n, tie_rule)
            us = np.arange(0, 13 * n, n)
            values = _estimator_fn("numeric-mle", model, scheme)(us)
            for u, value in zip(us.tolist(), values.tolist()):
                block = support_block(u, scheme)
                if family == "binomial" and block.start > fixed:
                    kinds.add("above")
                    with pytest.raises(NoMaximumError):
                        numeric_mle(u, scheme, family, **kwargs)
                    assert math.isnan(value), (n, u)
                    continue
                if block.start == 0:
                    kinds.add("zero")
                elif family == "binomial" and block.stop > fixed:
                    kinds.add("top")
                else:
                    kinds.add("interior")
                assert value == numeric_mle(u, scheme, family, **kwargs).value, (n, u)
        assert kinds == ({"zero", "top", "interior", "above"} if family == "binomial"
                         else {"zero", "interior"})

    def test_closed_value_is_the_product_form_value(self):
        for n in range(1, 13):
            for tie_rule in (HALF_UP, HALF_EVEN):
                scheme = RoundingScheme(n, tie_rule)
                us = np.arange(0, 31) * n
                values = _estimator_fn("closed-mle", Poisson(1.0), scheme)(us)
                for u, value in zip(us.tolist(), values.tolist()):
                    assert value == poisson_mle_closed(u, n).value, (n, tie_rule, u)
        with pytest.raises(ValueError):
            poisson_mle_closed(4, 3)

    def test_block_above_trials_is_flagged_by_monte_carlo(self, monkeypatch):
        # Draws never leave the support, so the tally is planted: with
        # 4 trials in pairs the blocks of 6, 8 and 10 start above 4.
        us, counts = np.array([0, 2, 4, 6, 8, 10]), np.array([1, 1, 2, 1, 2, 1])
        monkeypatch.setattr(estimation, "sample_tally",
                            lambda model, scheme, reps, rng: (us, counts))
        model, scheme = Binomial(4, 0.5), RoundingScheme(2)
        res = monte_carlo_mse(model, scheme, ["u", "numeric-mle"], int(counts.sum()), seed=1)
        flagged = {r.estimator: r for r in res}["numeric-mle"]
        with pytest.raises(NoMaximumError) as first:
            numeric_mle(6, scheme, "binomial", trials=4)
        assert (flagged.failures, flagged.error) == (4, str(first.value))
        assert math.isnan(flagged.mse)
        assert {r.estimator: r for r in res}["u"].failures == 0


def estimator_exact_mse(name, model, scheme, true_param):
    """The exact MSE of a named estimator through its array function, as the
    mse-exact command computes it."""
    loss = estimation._squared_error(_estimator_fn(name, model, scheme), true_param)
    return estimation._expectation(loss, rounded_pmf(model, scheme, TAIL_EPS))


def latent_expectation(fn, model, scheme, tail_eps=1e-16):
    """E[fn(U)] by enumerating the latent values: each k of the n = 1 table
    between the tail_eps-quantiles of Y is rounded with ``round_count`` and
    weighted by its entry.  An independent reference for the sums over the
    table of U."""
    latent = rounded_pmf(model, RoundingScheme(1), tail_eps)
    us = scheme.n * round_count(latent.support, scheme.n, scheme.tie_rule)
    value = {u: float(fn(u)) for u in set(us.tolist())}
    return float(np.dot([value[u] for u in us.tolist()], latent.probs))


@pytest.fixture
def built_tables(monkeypatch):
    """The tables ``estimation`` builds, through ``rounded_pmf`` or over a
    shared latent window, in order."""
    built = []
    table_over = rounding._table_over

    def recording_table_over(*args):
        built.append(table_over(*args))
        return built[-1]

    monkeypatch.setattr(rounding, "_table_over", recording_table_over)
    monkeypatch.setattr(estimation, "_table_over", recording_table_over)
    return built


class TestExactMse:
    def test_constant_estimator_is_exact(self):
        model, scheme = Poisson(3.0), RoundingScheme(2)
        assert exact_mse(lambda u: 3.0, model, scheme, 3.0) == 0.0

    def test_identity_estimator_recovers_variance(self):
        model, scheme = Poisson(4.0), RoundingScheme(1)
        assert exact_mse(float, model, scheme, 4.0) == pytest.approx(4.0, abs=1e-6)

    def test_matches_monte_carlo(self):
        model, scheme = Poisson(6.0), RoundingScheme(3)
        exact = exact_mse(float, model, scheme, 6.0)
        mc = monte_carlo_mse(model, scheme, ["u"], 50_000, seed=2024)[0]
        assert abs(mc.mse - exact) < 4 * mc.mc_standard_error

    def test_matches_monte_carlo_on_random_configurations(self):
        rng = np.random.default_rng(314159)
        for case in range(20):
            n = int(rng.integers(1, 9))
            if case % 2 == 0:
                theta = float(np.round(rng.uniform(0.5, 20.0), 3))
                model, target = Poisson(theta), theta
            else:
                prob = float(np.round(rng.uniform(0.05, 0.95), 3))
                model, target = Binomial(30, prob), prob
            scheme = RoundingScheme(n)
            exact = estimator_exact_mse("u", model, scheme, target)
            mc = monte_carlo_mse(model, scheme, ["u"], 20_000, seed=1000 + case)[0]
            slack = 4 * mc.mc_standard_error + 1e-9
            assert abs(mc.mse - exact) < slack, (case, model, n)

    def test_mle_beats_proxy_for_tiny_rates_at_large_groups(self):
        # with theta far below the group count the proxy collapses to 0 and
        # carries the full squared rate, while the product-form estimate
        # stays near its n-dependent plateau
        model, scheme = Poisson(2.5), RoundingScheme(50)  # lam = 0.05
        mse_u = estimator_exact_mse("u", model, scheme, 2.5)
        mse_mle = exact_mse(lambda u: poisson_mle_closed(u, 50).value, model, scheme, 2.5)
        assert mse_u == pytest.approx(6.25, abs=1e-4)
        assert mse_mle > 8 * mse_u

    def test_empty_window_is_refused(self):
        model, scheme = Poisson(1.0), RoundingScheme(3)
        with pytest.raises(ValueError, match="tail_eps"):
            exact_mse(float, model, scheme, 1.0, tail_eps=0.9)
        with pytest.raises(ValueError, match="tail_eps"):
            expected_value_exact(float, model, scheme, 0.9)
        with pytest.raises(ValueError, match="tail_eps"):
            mse_ratio_curve("poisson", [1.0], [1, 3], tail_eps=0.9)

    def test_oversized_enumeration_is_refused(self):
        with pytest.raises(ValueError, match="over the limit"):
            exact_mse(float, Poisson(1e14), RoundingScheme(3), 1e14)

    @pytest.mark.parametrize("tie_rule", [HALF_UP, HALF_EVEN])
    @pytest.mark.parametrize("n", [2, 5, 31])
    @pytest.mark.parametrize("family, model, fixed", [
        ("poisson", Poisson(7.5), {}),
        ("binomial", Binomial(40, 0.35), {"trials": 40}),
        ("negbinomial", NegativeBinomial(3.0, 0.3), {"nb_size": 3.0}),
    ])
    def test_matches_the_latent_enumeration(self, family, model, fixed, n, tie_rule):
        scheme = RoundingScheme(n, tie_rule)
        target = getattr(model, family_spec(family).fitted)
        mean = expected_value_exact(float, model, scheme)
        assert mean == pytest.approx(latent_expectation(float, model, scheme), rel=1e-9)

        def fit(u):
            return numeric_mle(u, scheme, family, **fixed).value

        mse = exact_mse(fit, model, scheme, target)
        reference = latent_expectation(lambda u: (fit(u) - target) ** 2, model, scheme)
        assert mse == pytest.approx(reference, rel=1e-9)


_LARGE_MODELS = [*(Poisson(theta) for theta in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)),
                 Binomial(10**9, 0.5), Binomial(3000, 0.01), NegativeBinomial(0.05, 1e-4)]


class TestExactExpectationAccuracy:
    """The expectations weight each rounded total by its entry in the table of
    ``rounded_pmf`` at the call's scheme, a difference of the accurate tails."""

    @pytest.mark.parametrize("model", [*_LARGE_MODELS, Poisson(1e7)], ids=repr)
    def test_identity_mse_is_the_variance(self, model):
        # The negative binomial's heavy upper tail beyond the 1e-12 quantile
        # holds 1e-8 of its variance, so it is enumerated further out.
        tail_eps = 1e-15 if model.kind == "negbinomial" else TAIL_EPS
        mse = exact_mse(float, model, RoundingScheme(1), model.mean(), tail_eps)
        assert mse == pytest.approx(model.variance(), rel=1e-9)

    @pytest.mark.parametrize("model", _LARGE_MODELS, ids=repr)
    def test_expected_one_is_the_tabulated_mass(self, model, built_tables):
        one = expected_value_exact(lambda u: 1.0, model, RoundingScheme(3))
        (table,) = built_tables
        assert table.n == 3
        assert one == pytest.approx(1.0 - table.truncation_mass, abs=1e-12)

    def test_large_group_count_reads_the_table_of_u(self):
        # The latent window holds about 2.2e7 values, over MAX_TABLE_ENTRIES;
        # the table of U holds about 2,200.
        model, n = Binomial(10**13, 0.5), 10_000
        mse = exact_mse(float, model, RoundingScheme(n), model.mean())
        assert mse == pytest.approx(model.variance() + (n * n - 1) / 12, rel=1e-9)


class TestMseRatio:
    def test_unit_ratio_without_grouping(self):
        curve = mse_ratio_curve("poisson", [0.5, 2.0, 7.3], [1])
        assert np.all(curve.psi == 1.0)
        curve_b = mse_ratio_curve("binomial", [0.3, 0.6], [1], trials=20)
        assert np.all(curve_b.psi == 1.0)
        curve_nb = mse_ratio_curve("negbinomial", [0.4, 0.7], [1], nb_size=5.0)
        assert np.all(curve_nb.psi == 1.0)

    def test_zero_unrounded_mse_is_refused(self):
        with pytest.raises(ValueError, match="unrounded MSE"):
            # The window is {1}, whose n=1 fit is the true 0.5.
            mse_ratio_curve("binomial", [0.5], [1, 2], trials=2, tail_eps=0.3)

    def test_poisson_rounding_costly_for_small_rates(self):
        curve = mse_ratio_curve("poisson", [1.0, 1.5, 2.0, 2.5], [10])
        assert np.all(curve.psi > 1.0)

    def test_poisson_ratio_flips_when_proxy_degenerates(self):
        # below roughly theta/n ~ 0.07 the rounded observation is 0 almost
        # surely and the fitted rate clamps to the boundary 0, which beats
        # the unrounded single-observation estimate in MSE
        curve = mse_ratio_curve("poisson", [0.25, 0.5], [10])
        assert np.all(curve.psi < 1.0)

    def test_binomial_ratio_changes_sign(self):
        phis = [round(0.05 * i, 10) for i in range(1, 20)]
        curve = mse_ratio_curve("binomial", phis, [25], trials=50)
        assert np.any(curve.psi > 1.0) and np.any(curve.psi < 1.0)

    def test_rows_align_with_arrays(self):
        curve = mse_ratio_curve("poisson", [1.0, 2.0], [1, 2])
        rows = list(curve.iter_rows())
        assert len(rows) == 4
        assert rows[0][:2] == (1.0, 1)
        assert rows[-1][:2] == (2.0, 2)
        for param, n, mr, mu, psi in rows:
            assert psi == pytest.approx(mr / mu, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            mse_ratio_curve("poisson", [], [1])

    def test_one_table_per_distinct_group_count(self, built_tables):
        curve = mse_ratio_curve("poisson", [2.0], [1, 5])
        assert sorted(table.n for table in built_tables) == [1, 5]
        assert curve.psi[0, 0] == 1.0
        built_tables.clear()
        curve = mse_ratio_curve("poisson", [2.0], [5, 5])
        assert sorted(table.n for table in built_tables) == [1, 5]
        assert curve.mse_rounded[0].tobytes() == curve.mse_rounded[1].tobytes()
        assert curve.psi[0].tobytes() == curve.psi[1].tobytes()

    def test_one_window_search_per_grid_point(self, monkeypatch):
        searched = []
        search = NegativeBinomial.support_window
        monkeypatch.setattr(NegativeBinomial, "support_window",
                            lambda model, eps: searched.append(eps) or search(model, eps))
        mse_ratio_curve("negbinomial", [0.3, 0.6], [1, 2, 5, 10], nb_size=5.0)
        assert searched == [TAIL_EPS, TAIL_EPS]

    @pytest.mark.parametrize("family, model_of, fixed", [
        ("poisson", Poisson, {}),
        ("binomial", lambda p: Binomial(20, p), {"trials": 20}),
        ("negbinomial", lambda p: NegativeBinomial(4.0, p), {"nb_size": 4.0}),
    ])
    def test_entries_equal_exact_mse_of_the_fit(self, family, model_of, fixed):
        grid, n_list = [0.3, 0.7], [1, 2, 5]
        curve = mse_ratio_curve(family, grid, n_list, **fixed)
        for j, param in enumerate(grid):
            for i, n in enumerate(n_list):
                scheme = RoundingScheme(n)
                fit = lambda u: numeric_mle(u, scheme, family, **fixed).value  # noqa: E731
                assert curve.mse_rounded[i, j] == exact_mse(fit, model_of(param), scheme, param)
            fit1 = lambda u: numeric_mle(u, RoundingScheme(1), family, **fixed).value  # noqa: E731
            unrounded = exact_mse(fit1, model_of(param), RoundingScheme(1), param)
            assert np.all(curve.mse_unrounded[:, j] == unrounded)


def cell_tally(model, scheme, reps, seed, key=()):
    """The tally ``monte_carlo_mse`` draws: one generator per cell, seeded
    from (seed, key)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    return sample_tally(model, scheme, reps, rng)


class TestMonteCarlo:
    def test_single_replicate_definition(self):
        model, scheme = Poisson(4.0), RoundingScheme(1)
        res = monte_carlo_mse(model, scheme, ["u"], 1, seed=31)[0]
        us, counts = cell_tally(model, scheme, 1, 31)
        assert counts.tolist() == [1]
        assert res.mse == (us[0] - 4.0) ** 2
        assert res.mc_standard_error == 0.0

    def test_tally_matches_per_replicate_reference(self):
        model, scheme = Poisson(6.0), RoundingScheme(4)
        reps = 8199
        names = ["u", "closed-mle"]
        res = monte_carlo_mse(model, scheme, names, reps, seed=12, stream_key=(3,))
        us, counts = cell_tally(model, scheme, reps, 12, (3,))
        assert counts.sum() == reps and len(us) > 5 and np.all(counts > 0)
        assert np.all(np.diff(us) > 0)
        per_replicate = np.repeat(np.arange(len(us)), counts)
        for name, r in zip(names, res):
            sq = (_estimator_fn(name, model, scheme)(us)[per_replicate] - 6.0) ** 2
            assert r.mse == pytest.approx(np.mean(sq), rel=1e-12)
            assert r.mc_standard_error == pytest.approx(
                np.std(sq, ddof=1) / math.sqrt(reps), rel=1e-12)
            assert (r.reps, r.failures, r.error) == (reps, 0, None)

    def test_estimator_called_once_per_cell_on_the_sorted_distinct_totals(self, monkeypatch):
        calls = []
        make = estimation._estimator_fn

        def counting(name, model, scheme):
            fn = make(name, model, scheme)

            def counted(us):
                calls.append((name, us.tolist()))
                return fn(us)
            return counted

        monkeypatch.setattr(estimation, "_estimator_fn", counting)
        model, scheme = Poisson(6.0), RoundingScheme(3)
        reps = 8199
        monte_carlo_mse(model, scheme, ["u", "closed-mle"], reps, seed=12)
        distinct = cell_tally(model, scheme, reps, 12)[0].tolist()
        assert calls == [("u", distinct), ("closed-mle", distinct)]

    def test_memory_does_not_grow_with_reps(self):
        model, scheme = Poisson(2.0), RoundingScheme(5)
        tracemalloc.start()
        try:
            res = monte_carlo_mse(model, scheme, ["u"], 10**7, seed=3)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The cell holds its table of U, the tally and the estimates of the
        # distinct totals, a few arrays of about ten entries each; one float
        # per replicate would be 80 MB.
        assert peak < 12 * 4096 * 8
        exact = exact_mse(float, model, scheme, 2.0)
        assert abs(res.mse - exact) < 4 * res.mc_standard_error

    def test_cell_over_a_table_too_large_draws_latent_counts(self):
        # The latent window of Poisson(1e12) holds about 1.4e7 values, over
        # MAX_TABLE_ENTRIES; with fewer replicates the cell draws them.
        res = monte_carlo_mse(Poisson(1e12), RoundingScheme(1), ["u"], 400, seed=1)[0]
        assert abs(res.mse - 1e12) < 4 * res.mc_standard_error

    def test_cell_over_the_limit_on_both_table_and_reps_is_refused(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="entries"):
                monte_carlo_mse(Poisson(1e12), RoundingScheme(1), ["u"],
                                MAX_TABLE_ENTRIES + 1, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_degenerate_binomial(self):
        res = monte_carlo_mse(Binomial(4, 0.0), RoundingScheme(2), ["u"], 100, seed=1)[0]
        assert res.mse == 0.0

    def test_deterministic_given_seed(self):
        args = (Poisson(6.0), RoundingScheme(3), ["u", "closed-mle"], 500)
        a = monte_carlo_mse(*args, seed=77)
        b = monte_carlo_mse(*args, seed=77)
        assert [(r.estimator, r.mse, r.mc_standard_error) for r in a] == [
            (r.estimator, r.mse, r.mc_standard_error) for r in b]

    def test_closed_form_flagged_for_binomial(self):
        res = monte_carlo_mse(Binomial(20, 0.4), RoundingScheme(2),
                              ["u", "closed-mle"], 50, seed=5)
        flagged = {r.estimator: r for r in res}["closed-mle"]
        assert math.isnan(flagged.mse)
        assert flagged.failures == 50
        assert "Poisson" in flagged.error
        unflagged = {r.estimator: r for r in res}["u"]
        assert unflagged.error is None and not math.isnan(unflagged.mse)

    def test_numeric_estimator_on_negative_binomial(self):
        res = monte_carlo_mse(NegativeBinomial(5, 0.5), RoundingScheme(2),
                              ["u", "numeric-mle"], 200, seed=8)
        for r in res:
            assert r.error is None
            assert r.mse >= 0.0

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            _estimator_fn("bogus", Poisson(1.0), RoundingScheme(1))
