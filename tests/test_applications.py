import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from roundedcounts import (
    HALF_EVEN,
    HALF_UP,
    ExcessDeathsDesign,
    Poisson,
    RoundedPmf,
    RoundingScheme,
    binned_binomial_test,
    excess_moments,
    excess_point_estimates,
    round_count,
    rounded_pmf,
    true_significance,
)
from roundedcounts.cli import main
from roundedcounts.tableio import read_csv

PHI0_GRID = [round(0.1 + 0.05 * i, 10) for i in range(17)]


def lattice_probs(m, n, phi0, tie_rule=HALF_UP):
    """Oracle: P(U = n*v) for every lattice index v of the m*n-trial
    binomial, by enumerating its whole support."""
    ks = np.arange(m * n + 1)
    return np.bincount(round_count(ks, n, tie_rule), weights=stats.binom.pmf(ks, m * n, phi0))


def full_support_misspecified_level(m, n, phi0, alpha, tie_rule=HALF_UP):
    """Oracle: mass of the lattice points the normal test for Y rejects."""
    probs, total = lattice_probs(m, n, phi0, tie_rule), m * n
    half = stats.norm.ppf(1 - alpha / 2) * math.sqrt(total * phi0 * (1 - phi0))
    outside = np.abs(n * np.arange(probs.size) - total * phi0) > half
    return math.fsum(probs[outside])


def full_support_cuts(m, n, phi0, alpha, tie_rule=HALF_UP):
    """Oracle: cuts and level of the binned test from the full lattice pmf."""
    probs = lattice_probs(m, n, phi0, tie_rule)
    lower_tail, upper_tail = np.cumsum(probs), np.cumsum(probs[::-1])[::-1]
    lower = np.nonzero(lower_tail <= alpha / 2)[0]
    upper = np.nonzero(upper_tail <= alpha / 2)[0]
    level = (lower_tail[lower[-1]] if lower.size else 0.0) + (
        upper_tail[upper[0]] if upper.size else 0.0)
    return (n * int(lower[-1]) if lower.size else None,
            n * int(upper[0]) if upper.size else None, level)


def joint_lattice_moments(theta, beta, n1, n2):
    """Oracle: moments of the excess contrast by enumeration over the joint
    lattice of the two independent rounded totals."""
    pre = rounded_pmf(Poisson(theta), RoundingScheme(n1), 1e-14)
    post = rounded_pmf(Poisson(theta + beta), RoundingScheme(n2), 1e-14)
    ratio = n2 / n1
    contrast = post.support.astype(float)[:, None] - ratio * pre.support.astype(float)[None, :]
    weight = np.outer(post.probs, pre.probs)
    mean = float(np.sum(contrast * weight))
    var = float(np.sum(contrast**2 * weight)) - mean**2
    return mean, var


class TestExcessPointEstimates:
    def test_identical_periods(self):
        plain, fitted = excess_point_estimates(14, 14, 7, 7)
        assert plain == 0.0
        assert fitted == 0.0

    def test_scaling_arithmetic(self):
        plain, _ = excess_point_estimates(7, 28, 7, 14)
        assert plain == 28 - 2 * 7 == 14

    def test_fitted_contrast_uses_product_form(self):
        _, fitted = excess_point_estimates(2, 0, 2, 2)
        assert fitted == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            excess_point_estimates(3, 4, 2, 4)

    @pytest.mark.parametrize("n1, n2", [(0, 1), (1, 0), (-2, 3)])
    def test_group_counts_below_one_rejected(self, n1, n2):
        with pytest.raises(ValueError, match="n1 and n2"):
            excess_point_estimates(0, 0, n1, n2)


class TestExcessMoments:
    def test_no_rounding_reference(self):
        m = excess_moments(ExcessDeathsDesign(1, 1, 3.0, 1.5))
        assert m.mean_rounded == m.mean_unrounded == pytest.approx(1.5)
        assert m.var_rounded == m.var_unrounded == pytest.approx(1.5 + 2 * 3.0)

    def test_unrounded_formulas(self):
        m = excess_moments(ExcessDeathsDesign(4, 6, 10.0, 2.0))
        assert m.mean_unrounded == pytest.approx(2.0 + 10.0 * (1 - 1.5))
        assert m.var_unrounded == pytest.approx(2.0 + 10.0 * (1 + 1.5**2))

    @pytest.mark.parametrize("theta,beta,n1,n2", [
        (5.0, 2.0, 3, 4), (12.0, 6.0, 2, 5), (30.0, -3.0, 6, 6),
        (8.0, 0.5, 1, 6), (20.0, 10.0, 5, 2),
    ])
    def test_composition_matches_joint_enumeration(self, theta, beta, n1, n2):
        m = excess_moments(ExcessDeathsDesign(n1, n2, theta, beta))
        mean, var = joint_lattice_moments(theta, beta, n1, n2)
        assert m.mean_rounded == pytest.approx(mean, abs=1e-8)
        assert m.var_rounded == pytest.approx(var, abs=1e-8)

    def test_large_rates_wash_out_rounding(self):
        m = excess_moments(ExcessDeathsDesign(7, 7, 1000.0, 50.0))
        assert abs(m.mean_rounded - 50.0) < 0.5
        assert abs(m.var_rounded / m.var_unrounded - 1.0) < 0.01

    def test_half_offset_rate_inflates_variance(self):
        # theta = n (I + 1/2) keeps two lattice points equally likely
        m = excess_moments(ExcessDeathsDesign(4, 4, 14.0, 1.0))
        assert m.var_rounded > m.var_unrounded

    def test_design_validation(self):
        with pytest.raises(ValueError):
            ExcessDeathsDesign(0, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            ExcessDeathsDesign(1, 1, -1.0, 3.0)
        with pytest.raises(ValueError):
            ExcessDeathsDesign(1, 1, 1.0, -1.5)


class TestTrueSignificance:
    def test_exact_total_level_stays_near_nominal(self):
        curve = true_significance(500, 31, PHI0_GRID, 0.05, "exact-y")
        assert np.all(curve.true_level > 0.03)
        assert np.all(curve.true_level < 0.07)

    def test_misspecified_oscillates_much_wider(self):
        exact = true_significance(500, 31, PHI0_GRID, 0.05, "exact-y")
        miss = true_significance(500, 31, PHI0_GRID, 0.05, "misspecified-u")
        # treating the rounded total as the true one distorts the level far
        # beyond the lattice wiggle of the exact case, in both directions
        assert miss.true_level.max() > 1.5 * exact.true_level.max()
        assert miss.true_level.min() < 0.7 * exact.true_level.min()
        assert np.max(np.abs(miss.true_level - 0.05)) > 5 * np.max(np.abs(exact.true_level - 0.05))

    def test_misspecified_level_value_against_simulation_pin(self):
        # frozen from a 2e6-draw simulation: level 0.02932 +- 0.0004
        curve = true_significance(500, 31, [0.2], 0.05, "misspecified-u")
        assert curve.true_level[0] == pytest.approx(0.029316, abs=5e-4)

    @pytest.mark.parametrize("m, n, phi0, alpha", [
        *[(m, n, phi0, 0.05) for m, n in [(1, 31), (2, 31), (3, 10), (50, 5)]
          for phi0 in [0.02, 0.1, 0.5, 0.9, 0.98]],
        # a level of 3.7e-13, all of it beyond the 1e-12 quantile of Y
        (1000, 2, 0.8141, 1e-13),
    ])
    def test_misspecified_level_matches_the_full_support(self, m, n, phi0, alpha):
        curve = true_significance(m, n, [phi0], alpha, "misspecified-u")
        level = full_support_misspecified_level(m, n, phi0, alpha)
        assert curve.true_level[0] == pytest.approx(level, abs=1e-14)

    @pytest.mark.parametrize("tie_rule", [HALF_UP, HALF_EVEN])
    def test_misspecified_far_tail_level_matches_mpmath(self, tie_rule):
        # All of this level (3.7e-13) lies beyond the 1e-12 quantiles of Y.
        m, n, phi0, alpha = 1000, 2, 0.8141, 1e-13
        total = m * n
        us = n * round_count(np.arange(total + 1), n, tie_rule)
        half = stats.norm.ppf(1 - alpha / 2) * math.sqrt(total * phi0 * (1 - phi0))
        outside = np.nonzero(np.abs(us - total * phi0) > half)[0].tolist()
        with mpmath.workdps(40):
            p = mpmath.mpf(phi0)
            level = float(mpmath.fsum(mpmath.binomial(total, k) * p**k * (1 - p)**(total - k)
                                      for k in outside))
        curve = true_significance(m, n, [phi0], alpha, "misspecified-u", tie_rule)
        assert curve.true_level[0] == pytest.approx(level, rel=1e-9, abs=0.0)
        assert level == pytest.approx(3.73e-13, rel=1e-2)

    @pytest.mark.parametrize("m, n, phi0, alpha, mode", [
        # no lattice point in 364 -+ 99 (points 244 apart): the two tails of
        # Binomial(2,960,452, 1.2e-4) at 365 add up to 1 - 2.1e-12
        (12133, 244, 0.00012291595683208096, 2.1208647368085674e-07, "misspecified-u"),
        (4, 1, 0.3, 0.99, "exact-y"),  # no integer in 1.2 -+ 0.012
    ])
    def test_level_is_one_when_nothing_is_accepted(self, m, n, phi0, alpha, mode):
        assert true_significance(m, n, [phi0], alpha, mode, HALF_EVEN).true_level[0] == 1.0

    def test_degenerate_grouping_matches_exact(self):
        exact = true_significance(500, 1, PHI0_GRID, 0.05, "exact-y")
        miss = true_significance(500, 1, PHI0_GRID, 0.05, "misspecified-u")
        assert np.allclose(exact.true_level, miss.true_level, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_binned_mode_is_conservative(self, alpha):
        curve = true_significance(500, 31, PHI0_GRID, alpha, "binned-u")
        assert np.all(curve.true_level <= alpha)
        assert np.all(curve.true_level >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            true_significance(500, 31, [0.0, 0.5], 0.05, "exact-y")
        with pytest.raises(ValueError):
            true_significance(500, 31, [0.5], 0.0, "exact-y")
        with pytest.raises(ValueError):
            true_significance(500, 31, [0.5], 0.05, "bogus-mode")

    @pytest.mark.parametrize("tie_rule", [HALF_UP, HALF_EVEN])
    @pytest.mark.parametrize("mode", ["exact-y", "misspecified-u", "binned-u"])
    def test_levels_build_no_table_of_u(self, monkeypatch, mode, tie_rule):
        def refuse(*args, **kwargs):
            raise AssertionError("a table of U was built")

        monkeypatch.setattr(RoundedPmf, "__init__", refuse)
        for alpha in (1e-13, 0.05):
            true_significance(500, 30, PHI0_GRID, alpha, mode, tie_rule)
            binned_binomial_test(0, 500, 30, 0.3, alpha, tie_rule)

    def test_alpha_list_is_one_curve_per_alpha(self, capsys):
        modes, alphas = ["exact-y", "misspecified-u", "binned-u"], [1e-13, 0.01, 0.05, 0.1]
        grid = ",".join(map(str, PHI0_GRID))
        assert main(["true-significance", "--m", "500", "--n", "31", "--phi0-grid", grid,
                     "--alpha-list", ",".join(map(str, alphas)),
                     "--modes", ",".join(modes)]) == 0
        _, _, rows = read_csv(io.StringIO(capsys.readouterr().out))
        expected = [[mode, alpha, phi0, level]
                    for mode in modes for alpha in alphas
                    for phi0, level in zip(PHI0_GRID, true_significance(
                        500, 31, PHI0_GRID, alpha, mode).true_level)]
        assert rows == expected


@pytest.mark.parametrize("mode", ["exact-y", "misspecified-u", "binned-u"])
def test_true_significance_refuses_an_empty_grid(mode):
    with pytest.raises(ValueError, match="non-empty"):
        true_significance(500, 31, [], 0.05, mode)


class TestBinnedTest:
    def test_reduces_to_exact_binomial_test_without_grouping(self):
        m, phi0, alpha = 40, 0.3, 0.05
        dist = stats.binom(m, phi0)
        ks = np.arange(m + 1)
        cdf = dist.cdf(ks)
        sf_inclusive = dist.sf(ks - 1)
        lower = ks[cdf <= alpha / 2].max()
        upper = ks[sf_inclusive <= alpha / 2].min()
        for u in range(0, m + 1):
            res = binned_binomial_test(u, m, 1, phi0, alpha)
            assert res.reject == (u <= lower or u >= upper)
        res = binned_binomial_test(0, m, 1, phi0, alpha)
        assert res.true_level == pytest.approx(
            float(cdf[lower] + sf_inclusive[upper]), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("phi0", [0.1, 0.35, 0.5, 0.8])
    def test_level_never_exceeds_nominal(self, alpha, phi0):
        res = binned_binomial_test(0, 500, 31, phi0, alpha)
        assert res.true_level <= alpha

    def test_region_monotone_in_alpha(self):
        m, n, phi0 = 500, 31, 0.3
        cuts = []
        for alpha in (0.01, 0.05, 0.1, 0.2):
            res = binned_binomial_test(0, m, n, phi0, alpha)
            cuts.append((res.lower_cut, res.upper_cut))
        for (lo1, hi1), (lo2, hi2) in zip(cuts, cuts[1:]):
            assert (lo1 is None) or (lo2 is not None and lo2 >= lo1)
            assert (hi1 is None) or (hi2 is not None and hi2 <= hi1)

    def test_reject_flag_consistent_with_cuts(self):
        res = binned_binomial_test(0, 500, 31, 0.5, 0.05)
        assert res.reject
        center = 31 * round(500 * 31 * 0.5 / 31)
        mid = binned_binomial_test(center, 500, 31, 0.5, 0.05)
        assert not mid.reject

    @pytest.mark.parametrize("m, n, phi0, alpha", [
        *[(m, n, phi0, alpha) for m, n in [(1, 31), (2, 31), (3, 10), (50, 5)]
          for phi0 in [0.02, 0.1, 0.5, 0.9, 0.98] for alpha in [0.05, 1e-13]],
        # cuts on a lattice point whose tail underflows to 0
        (1, 1000, 0.96, 0.05), (1, 1000, 0.0359, 0.9),
    ])
    def test_cuts_match_the_full_support(self, m, n, phi0, alpha):
        # These include cuts on the lattice point just past either end of the
        # 1e-12 window of Y (e.g. m=1, n=31, phi0=0.02 has its upper cut at 31).
        res = binned_binomial_test(0, m, n, phi0, alpha)
        lower, upper, level = full_support_cuts(m, n, phi0, alpha)
        assert (res.lower_cut, res.upper_cut) == (lower, upper)
        assert res.true_level == pytest.approx(level, rel=1e-9, abs=1e-15)
        for cut in (lower, upper):
            if cut is not None:
                assert binned_binomial_test(cut, m, n, phi0, alpha).reject

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(m=st.integers(1, 200), n=st.integers(1, 1000),
           phi0=st.one_of(st.floats(1e-5, 0.99999), st.floats(1e-7, 1e-3),
                          st.floats(1e-7, 1e-3).map(lambda q: 1.0 - q)),
           log_alpha=st.floats(-13.0, math.log10(0.99)),
           tie_rule=st.sampled_from([HALF_UP, HALF_EVEN]))
    def test_levels_and_cuts_match_the_full_support_property(self, m, n, phi0, log_alpha, tie_rule):
        alpha = 10.0**log_alpha
        res = binned_binomial_test(0, m, n, phi0, alpha, tie_rule)
        lower, upper, level = full_support_cuts(m, n, phi0, alpha, tie_rule)
        assert (res.lower_cut, res.upper_cut) == (lower, upper)
        assert res.true_level == pytest.approx(level, rel=1e-9, abs=1e-15)
        curve = true_significance(m, n, [phi0], alpha, "binned-u", tie_rule)
        assert curve.true_level[0] == res.true_level
        curve = true_significance(m, n, [phi0], alpha, "misspecified-u", tie_rule)
        level = full_support_misspecified_level(m, n, phi0, alpha, tie_rule)
        assert curve.true_level[0] == pytest.approx(level, rel=1e-9, abs=1e-15)

    def test_small_alpha_can_empty_a_tail(self):
        # tiny alpha with a short lattice: no lower cut exists
        res = binned_binomial_test(0, 2, 2, 0.5, 0.01)
        assert res.lower_cut is None
        assert res.true_level <= 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            binned_binomial_test(1, 500, 31, 0.5, 0.05)  # off-lattice u
        with pytest.raises(ValueError):
            binned_binomial_test(0, 500, 31, 0.5, 1.5)

