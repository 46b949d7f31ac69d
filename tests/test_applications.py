import math

import numpy as np
import pytest
from scipy import stats

from roundedcounts import (
    ExcessDeathsDesign,
    Poisson,
    RoundingScheme,
    binned_binomial_test,
    excess_moments,
    excess_point_estimates,
    round_count,
    rounded_pmf,
    true_significance,
)
from roundedcounts import applications
from roundedcounts.applications import _significance_levels

PHI0_GRID = [round(0.1 + 0.05 * i, 10) for i in range(17)]


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

    @pytest.mark.parametrize("phi0", [0.02, 0.1, 0.5, 0.9, 0.98])
    @pytest.mark.parametrize("m, n", [(1, 31), (2, 31), (3, 10), (50, 5)])
    def test_misspecified_level_matches_the_full_support(self, m, n, phi0):
        total, alpha = m * n, 0.05
        ks = np.arange(total + 1)
        probs = np.bincount(round_count(ks, n), weights=stats.binom.pmf(ks, total, phi0))
        half = stats.norm.ppf(1 - alpha / 2) * math.sqrt(total * phi0 * (1 - phi0))
        support = n * np.arange(probs.size)
        outside = np.abs(support - total * phi0) > half
        curve = true_significance(m, n, [phi0], alpha, "misspecified-u")
        assert curve.true_level[0] == pytest.approx(math.fsum(probs[outside]), abs=1e-14)

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

    @pytest.mark.parametrize("mode, tables", [("exact-y", 0), ("misspecified-u", 1),
                                              ("binned-u", 2)])
    def test_alpha_list_shares_each_table(self, monkeypatch, mode, tables):
        # binned-u tabulates to alpha/2 once alpha/2 < 1e-12, so 1e-13 needs a
        # table of its own; the other alphas share one per phi0.
        alphas = [1e-13, 0.01, 0.05, 0.1]
        built = []

        def counted(*args):
            built.append(args)
            return rounded_pmf(*args)

        monkeypatch.setattr(applications, "rounded_pmf", counted)
        levels = _significance_levels(500, 31, PHI0_GRID, alphas, mode)
        assert len(built) == tables * len(PHI0_GRID)
        for row, alpha in zip(levels, alphas):
            assert np.array_equal(row, true_significance(500, 31, PHI0_GRID, alpha, mode).true_level)


@pytest.mark.parametrize("phi0_grid, alphas", [([], [0.05]), (PHI0_GRID, []), ([], [])])
def test_significance_levels_refuse_empty_lists(phi0_grid, alphas):
    with pytest.raises(ValueError, match="non-empty"):
        _significance_levels(500, 31, phi0_grid, alphas, "exact-y")
    if alphas:
        with pytest.raises(ValueError, match="non-empty"):
            true_significance(500, 31, phi0_grid, alphas[0], "binned-u")


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

    @pytest.mark.parametrize("alpha", [0.05, 1e-13])
    @pytest.mark.parametrize("phi0", [0.02, 0.1, 0.5, 0.9, 0.98])
    @pytest.mark.parametrize("m, n", [(1, 31), (2, 31), (3, 10), (50, 5)])
    def test_cuts_match_the_full_support(self, m, n, phi0, alpha):
        # These include cuts on the lattice point just past either end of the
        # tabulated window (e.g. m=1, n=31, phi0=0.02 has its upper cut at 31).
        total = m * n
        ks = np.arange(total + 1)
        probs = np.bincount(round_count(ks, n), weights=stats.binom.pmf(ks, total, phi0))
        lower = np.nonzero(np.cumsum(probs) <= alpha / 2)[0]
        upper = np.nonzero(np.cumsum(probs[::-1])[::-1] <= alpha / 2)[0]
        res = binned_binomial_test(0, m, n, phi0, alpha)
        assert res.lower_cut == (n * int(lower[-1]) if lower.size else None)
        assert res.upper_cut == (n * int(upper[0]) if upper.size else None)
        level = (np.cumsum(probs)[lower[-1]] if lower.size else 0.0) + (
            np.cumsum(probs[::-1])[::-1][upper[0]] if upper.size else 0.0)
        assert res.true_level == pytest.approx(level, rel=1e-9, abs=1e-15)

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

