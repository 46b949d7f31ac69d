import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from roundedcounts import (
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
    rng_substream,
    round_count,
    rounded_pmf,
    sample_u,
)
from roundedcounts import estimation
from roundedcounts.estimation import MC_BLOCK, _estimator_fn


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
        assert est.converged

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
        assert est.converged

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

    @pytest.mark.parametrize("family", ["binomial", "negbinomial"])
    def test_ratio_curve_requires_fixed_parameter(self, family):
        with pytest.raises(ValueError):
            mse_ratio_curve(family, [0.3], [1, 2])


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
            fn = _estimator_fn("u", model, scheme)
            exact = exact_mse(fn, model, scheme, target)
            mc = monte_carlo_mse(model, scheme, ["u"], 20_000, seed=1000 + case)[0]
            slack = 4 * mc.mc_standard_error + 1e-9
            assert abs(mc.mse - exact) < slack, (case, model, n)

    def test_mle_beats_proxy_for_tiny_rates_at_large_groups(self):
        # with theta far below the group count the proxy collapses to 0 and
        # carries the full squared rate, while the product-form estimate
        # stays near its n-dependent plateau
        model, scheme = Poisson(2.5), RoundingScheme(50)  # lam = 0.05
        mse_u = exact_mse(_estimator_fn("u", model, scheme), model, scheme, 2.5)
        mse_mle = exact_mse(lambda u: poisson_mle_closed(u, 50).value, model, scheme, 2.5)
        assert mse_u == pytest.approx(6.25, abs=1e-4)
        assert mse_mle > 8 * mse_u

    def test_prob_floor_keeping_no_value_is_refused(self):
        model, scheme = Poisson(1.0), RoundingScheme(3)
        with pytest.raises(ValueError, match="prob_floor"):
            exact_mse(float, model, scheme, 1.0, prob_floor=1.0)
        with pytest.raises(ValueError, match="prob_floor"):
            expected_value_exact(float, model, scheme, 0.9)
        with pytest.raises(ValueError, match="prob_floor"):
            mse_ratio_curve("poisson", [1.0], [1, 3], prob_floor=0.9)

    def test_expected_value_matches_moments(self):
        model, scheme = Poisson(5.0), RoundingScheme(4)
        mean = expected_value_exact(float, model, scheme, 1e-13)
        table = rounded_pmf(model, scheme, 1e-13)
        assert mean == pytest.approx(table.mean(), abs=1e-10)


class TestMseRatio:
    def test_unit_ratio_without_grouping(self):
        curve = mse_ratio_curve("poisson", [0.5, 2.0, 7.3], [1])
        assert np.all(curve.psi == 1.0)
        curve_b = mse_ratio_curve("binomial", [0.3, 0.6], [1], trials=20)
        assert np.all(curve_b.psi == 1.0)
        curve_nb = mse_ratio_curve("negbinomial", [0.4, 0.7], [1], nb_size=5.0)
        assert np.all(curve_nb.psi == 1.0)

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


class TestMonteCarlo:
    def test_single_replicate_definition(self):
        model, scheme = Poisson(4.0), RoundingScheme(1)
        res = monte_carlo_mse(model, scheme, ["u"], 1, seed=31)[0]
        u = sample_u(model, scheme, rng_substream(31, (0,)), size=1)[0]
        assert res.mse == (u - 4.0) ** 2
        assert res.mc_standard_error == 0.0

    @staticmethod
    def block_draws(model, scheme, reps, seed, key):
        """The rounded totals of every replicate, drawn block by block."""
        sizes = [min(MC_BLOCK, reps - start) for start in range(0, reps, MC_BLOCK)]
        return np.concatenate([sample_u(model, scheme, rng_substream(seed, key + (b,)), size=m)
                               for b, m in enumerate(sizes)])

    def test_blocks_match_per_replicate_reference(self):
        model, scheme = Poisson(6.0), RoundingScheme(4)
        reps = 2 * MC_BLOCK + 7
        names = ["u", "closed-mle"]
        res = monte_carlo_mse(model, scheme, names, reps, seed=12, stream_key=(3,))
        us = self.block_draws(model, scheme, reps, 12, (3,))
        assert len(us) == reps and len(np.unique(us)) > 5
        for name, r in zip(names, res):
            fn = _estimator_fn(name, model, scheme)
            sq = np.array([(fn(int(u)) - 6.0) ** 2 for u in us])
            assert r.mse == pytest.approx(np.mean(sq), rel=1e-12)
            assert r.mc_standard_error == pytest.approx(
                np.std(sq, ddof=1) / math.sqrt(reps), rel=1e-12)
            assert (r.reps, r.failures, r.error) == (reps, 0, None)

    def test_estimator_called_once_per_distinct_u(self, monkeypatch):
        calls = []
        make = estimation._estimator_fn

        def counting(name, model, scheme):
            fn = make(name, model, scheme)

            def counted(u):
                calls.append((name, u))
                return fn(u)
            return counted

        monkeypatch.setattr(estimation, "_estimator_fn", counting)
        model, scheme = Poisson(6.0), RoundingScheme(3)
        reps = 2 * MC_BLOCK + 7
        monte_carlo_mse(model, scheme, ["u", "closed-mle"], reps, seed=12)
        distinct = np.unique(self.block_draws(model, scheme, reps, 12, ())).tolist()
        assert sorted(calls) == sorted((name, u) for name in ("u", "closed-mle")
                                       for u in distinct)

    def test_memory_does_not_grow_with_reps(self):
        model, scheme = Poisson(2.0), RoundingScheme(5)
        tracemalloc.start()
        try:
            res = monte_carlo_mse(model, scheme, ["u"], 10**7, seed=3)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One block's draws and rounding temporaries take about five int64
        # arrays of MC_BLOCK entries, and the interpreter's tuple free list
        # up to about three more; one float per replicate would be 80 MB.
        assert peak < 12 * MC_BLOCK * 8
        exact = exact_mse(float, model, scheme, 2.0)
        assert abs(res.mse - exact) < 4 * res.mc_standard_error

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
