import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from roundedcounts import (
    HALF_EVEN,
    HALF_UP,
    Binomial,
    NearRootOfUnityError,
    NegativeBinomial,
    Poisson,
    RoundingScheme,
    asymptotic_mle_mean,
    round_count,
    rounded_moments_binomial,
    rounded_moments_poisson,
    rounded_moments_series,
    rounded_pgf,
    rounded_pmf,
    roots_of_unity,
    sample_u,
    support_block,
)
from roundedcounts.rounding import _mle_mean_branch


def brute_force_pmf(model, n, tie_rule, y_max):
    """Independent aggregation oracle: map every latent value through the
    rounding and accumulate scipy pmf mass."""
    ks = np.arange(y_max + 1)
    if model.kind == "poisson":
        ps = stats.poisson.pmf(ks, model.theta)
    elif model.kind == "binomial":
        ps = stats.binom.pmf(ks, model.trials, model.prob)
    else:
        ps = stats.nbinom.pmf(ks, model.size, model.prob)
    vs = round_count(ks, n, tie_rule)
    out = np.zeros(int(vs.max()) + 1)
    np.add.at(out, vs, ps)
    return out


class TestRounding:
    def test_half_up(self):
        assert round_count(5, 2, HALF_UP) == 3  # 2.5
        assert round_count(249, 100, HALF_UP) == 2
        assert round_count(0, 7, HALF_UP) == 0
        assert round_count(7, 3, HALF_UP) == 2

    def test_half_even(self):
        assert round_count(5, 2, HALF_EVEN) == 2  # 2.5
        assert round_count(7, 2, HALF_EVEN) == 4  # 3.5
        assert round_count(251, 100, HALF_EVEN) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            round_count(-1, 3)
        with pytest.raises(ValueError):
            round_count(np.array([2, -1]), 3)

    def test_round_count_exact_ties(self):
        # ties exist only for even n and are decided on integers
        assert round_count(1, 2, HALF_UP) == 1
        assert round_count(1, 2, HALF_EVEN) == 0
        assert round_count(3, 2, HALF_EVEN) == 2
        assert round_count(7, 3, HALF_UP) == 2
        got = round_count(np.arange(6), 2, HALF_EVEN)
        assert list(got) == [0, 0, 1, 2, 2, 2]

    def test_round_count_matches_fraction_oracle(self):
        # exact rationals, ties included: floor(y/n + 1/2) rounds half up,
        # and Fraction's own round() rounds half to even
        oracles = {HALF_UP: lambda q: math.floor(q + Fraction(1, 2)), HALF_EVEN: round}
        ys = np.arange(60)
        for tie, oracle in oracles.items():
            for n in (1, 2, 3, 4, 5, 8):
                expected = [oracle(Fraction(int(y), n)) for y in ys]
                assert [round_count(int(y), n, tie) for y in ys] == expected
                assert round_count(ys, n, tie).tolist() == expected


class TestBlocks:
    def test_block_examples(self):
        assert support_block(0, RoundingScheme(3)) == range(0, 2)
        assert support_block(3, RoundingScheme(3)) == range(2, 5)
        assert support_block(4, RoundingScheme(2)) == range(3, 5)
        # half-even at even n: even indices gain both tie values, odd ones lose them
        assert support_block(4, RoundingScheme(2, HALF_EVEN)) == range(3, 6)
        assert support_block(2, RoundingScheme(2, HALF_EVEN)) == range(2, 3)

    def test_block_rejects_off_lattice(self):
        with pytest.raises(ValueError):
            support_block(4, RoundingScheme(3))
        with pytest.raises(ValueError):
            support_block(-3, RoundingScheme(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 10])
    @pytest.mark.parametrize("tie", [HALF_UP, HALF_EVEN])
    def test_blocks_partition_the_support(self, n, tie):
        scheme = RoundingScheme(n, tie)
        covered = []
        for v in range(8):
            block = support_block(v * n, scheme)
            for y in block:
                assert round_count(y, n, tie) == v
            covered.extend(block)
        assert covered == list(range(len(covered)))

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_tie_rules_reassign_only_tie_values(self, n):
        # the two tie rules may disagree only on latent values sitting
        # exactly between two lattice points, i.e. odd multiples of n/2
        up = RoundingScheme(n, HALF_UP)
        even = RoundingScheme(n, HALF_EVEN)
        for v in range(8):
            moved = set(support_block(v * n, up)) ^ set(support_block(v * n, even))
            assert all(2 * (y % n) == n for y in moved)


class TestRootsTable:
    @pytest.mark.parametrize("n", range(1, 26))
    def test_powers_close_to_unity(self, n):
        table = roots_of_unity(n)
        assert np.max(np.abs(table.omega_pow**n - 1.0)) < 1e-12

    def test_coefficients(self):
        even = roots_of_unity(4)
        assert even.offset_r == 1.0
        assert np.allclose(even.coeff_a, [1, -1, 1, -1])
        odd = roots_of_unity(3)
        assert odd.offset_r == 0.5
        expected = [(-1.0) ** j * np.exp(1j * np.pi * j / 3) for j in range(3)]
        assert np.allclose(odd.coeff_a, expected)

    def test_cache_is_bounded(self):
        maxsize = roots_of_unity.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10_000


class TestRoundedPmf:
    def test_identity_at_n1(self):
        model = Poisson(2.0)
        table = rounded_pmf(model, RoundingScheme(1), 1e-13)
        ks = np.arange(len(table.probs))
        assert np.max(np.abs(table.probs - model.pmf(ks))) < 1e-15

    def test_poisson_known_values(self):
        table = rounded_pmf(Poisson(2.0), RoundingScheme(3))
        # blocks {0,1} and {2,3,4}: 3 e^{-2} and 4 e^{-2}
        assert table.prob(0) == pytest.approx(3 * np.exp(-2.0), abs=1e-13)
        assert table.prob(3) == pytest.approx(4 * np.exp(-2.0), abs=1e-13)
        assert table.prob(0) == pytest.approx(0.40600584970983794, abs=1e-13)
        assert table.prob(3) == pytest.approx(0.5413411329464508, abs=1e-13)

    def test_binomial_enumeration(self):
        table = rounded_pmf(Binomial(2, 0.5), RoundingScheme(2))
        assert table.prob(0) == pytest.approx(0.25, abs=1e-14)
        assert table.prob(2) == pytest.approx(0.75, abs=1e-14)

    @pytest.mark.parametrize("model", [Poisson(2.0), Poisson(7.3), Binomial(20, 0.35),
                                       NegativeBinomial(5, 0.4)], ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("tie", [HALF_UP, HALF_EVEN])
    def test_matches_brute_force_aggregation(self, model, n, tie):
        table = rounded_pmf(model, RoundingScheme(n, tie), 1e-13)
        oracle = brute_force_pmf(model, n, tie, model.support_bound(1e-13))
        m = min(len(oracle), len(table.probs))
        assert np.max(np.abs(table.probs[:m] - oracle[:m])) < 1e-13

    @pytest.mark.parametrize("n", range(1, 26))
    def test_normalization(self, n):
        for model in (Poisson(2.0), Poisson(13.0), Binomial(50, 0.35)):
            table = rounded_pmf(model, RoundingScheme(n))
            assert table.total() + table.truncation_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_tie_rules_agree_for_odd_n(self, n):
        up = rounded_pmf(Poisson(4.2), RoundingScheme(n, HALF_UP))
        even = rounded_pmf(Poisson(4.2), RoundingScheme(n, HALF_EVEN))
        assert np.array_equal(up.probs, even.probs)

    def test_tie_rules_differ_only_near_ties_for_even_n(self):
        up = rounded_pmf(Poisson(3.0), RoundingScheme(4, HALF_UP))
        even = rounded_pmf(Poisson(3.0), RoundingScheme(4, HALF_EVEN))
        assert not np.allclose(up.probs, even.probs)
        assert up.total() + up.truncation_mass == pytest.approx(1.0, abs=1e-12)
        assert even.total() + even.truncation_mass == pytest.approx(1.0, abs=1e-12)

    def test_sampled_frequencies_match(self):
        rng = np.random.default_rng(1234)
        model, scheme = Poisson(2.0), RoundingScheme(3)
        draws = 200_000
        u = sample_u(model, scheme, rng, size=draws)
        table = rounded_pmf(model, scheme)
        emp = np.bincount(u // 3, minlength=len(table.probs)) / draws
        sigma = np.sqrt(table.probs * (1 - table.probs) / draws)
        assert np.all(np.abs(emp[: len(table.probs)] - table.probs) < 5 * sigma + 1e-9)


class TestRoundedPgf:
    def test_identity_at_n1(self):
        model = Poisson(2.0)
        got = rounded_pgf(model, RoundingScheme(1), 0.7)
        assert got == pytest.approx(model.pgf(0.7), abs=1e-12)

    def test_n2_half_sum_form(self):
        # at n=2 the filter collapses to ((s+1)G(s) - (s-1)G(-s))/2
        model, s = Poisson(2.0), 0.5
        display = 0.5 * ((s + 1) * model.pgf(s) - (s - 1) * model.pgf(-s))
        got = rounded_pgf(model, RoundingScheme(2), s)
        assert got == pytest.approx(display, abs=1e-12)
        series = rounded_pmf(model, RoundingScheme(2), 1e-15).pgf(s)
        assert got == pytest.approx(series, abs=1e-10)

    def test_series_normalizes_at_one(self):
        table = rounded_pmf(Poisson(2.0), RoundingScheme(3), 1e-14)
        assert table.pgf(1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10])
    @pytest.mark.parametrize("model", [Poisson(0.5), Poisson(2.0), Poisson(7.3),
                                       Binomial(20, 0.35)], ids=repr)
    def test_matches_tabulated_series(self, n, model):
        scheme = RoundingScheme(n)
        table = rounded_pmf(model, scheme, 1e-15)
        rng = np.random.default_rng(42 + n)
        roots = scheme.table.omega_pow
        checked = 0
        while checked < 25:
            s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(s) > 1 or np.min(np.abs(s - roots)) < 1e-3 or abs(s) < 1e-3:
                continue
            assert abs(rounded_pgf(model, scheme, s) - table.pgf(s)) < 1e-8
            checked += 1

    def test_near_guard_evaluation_still_accurate(self):
        model, scheme = Poisson(2.0), RoundingScheme(4)
        table = rounded_pmf(model, scheme, 1e-15)
        s = scheme.table.omega_pow[1] * (1.0 - 2e-6)  # just outside the guard
        assert abs(rounded_pgf(model, scheme, s) - table.pgf(s)) < 1e-8

    def test_pole_guard_raises(self):
        model, scheme = Poisson(2.0), RoundingScheme(3)
        with pytest.raises(NearRootOfUnityError):
            rounded_pgf(model, scheme, 1.0)
        with pytest.raises(NearRootOfUnityError):
            rounded_pgf(model, scheme, scheme.table.omega_pow[1] * (1 - 1e-8))
        with pytest.raises(NearRootOfUnityError):
            rounded_pgf(model, scheme, 0.0)  # denominator power of s vanishes

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            rounded_pgf(Poisson(2.0), RoundingScheme(3), 1.2)

    def test_half_even_rejected_for_even_n(self):
        with pytest.raises(ValueError):
            rounded_pgf(Poisson(2.0), RoundingScheme(2, HALF_EVEN), 0.5)


class TestMoments:
    def test_n1_identity(self):
        report = rounded_moments_series(Poisson(5.0), RoundingScheme(1))
        assert report.mean == 5.0
        assert report.variance == 5.0
        assert report.imag_residual == 0.0

    def test_poisson_n2_mean_closed_form(self):
        report = rounded_moments_poisson(0.1, 2)
        assert report.mean == pytest.approx(0.1 + 0.5 - np.exp(-0.2) / 2, abs=1e-14)
        assert report.mean == pytest.approx(0.19063462346100907, abs=1e-14)

    def test_poisson_n2_variance_three_routes(self):
        # independent reduction of the alternating series at n=2:
        # theta + 1/4 + 2 theta e^{-2 theta} - e^{-4 theta}/4
        theta = 0.1
        reduction = theta + 0.25 + 2 * theta * np.exp(-2 * theta) - np.exp(-4 * theta) / 4
        series = rounded_moments_series(Poisson(theta), RoundingScheme(2))
        closed = rounded_moments_poisson(theta, 2)
        enum = rounded_pmf(Poisson(theta), RoundingScheme(2), 1e-15)
        assert series.variance == pytest.approx(reduction, abs=1e-12)
        assert closed.variance == pytest.approx(reduction, abs=1e-12)
        assert enum.variance() == pytest.approx(reduction, abs=1e-11)
        assert reduction == pytest.approx(0.34616613910668676, abs=1e-14)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 2.0, 7.3, 13.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25])
    def test_poisson_series_closed_enumeration_agree(self, theta, n):
        series = rounded_moments_series(Poisson(theta), RoundingScheme(n))
        closed = rounded_moments_poisson(theta, n)
        enum = rounded_pmf(Poisson(theta), RoundingScheme(n), 1e-15)
        assert closed.mean == pytest.approx(series.mean, abs=1e-10)
        assert closed.variance == pytest.approx(series.variance, abs=1e-10)
        assert enum.mean() == pytest.approx(series.mean, abs=1e-9)
        assert enum.variance() == pytest.approx(series.variance, abs=1e-9)
        assert series.imag_residual <= 1e-9
        assert closed.imag_residual <= 1e-9

    @pytest.mark.parametrize("prob", [0.0, 0.15, 0.37, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("n", [2, 5])
    def test_binomial_series_closed_enumeration_agree(self, prob, n):
        trials = 40
        series = rounded_moments_series(Binomial(trials, prob), RoundingScheme(n))
        closed = rounded_moments_binomial(trials, prob, n)
        enum = rounded_pmf(Binomial(trials, prob), RoundingScheme(n), 1e-15)
        assert closed.mean == pytest.approx(series.mean, abs=1e-10)
        assert closed.variance == pytest.approx(series.variance, abs=1e-10)
        assert enum.mean() == pytest.approx(series.mean, abs=1e-9)
        assert enum.variance() == pytest.approx(series.variance, abs=1e-9)

    def test_binomial_one_group_mean(self):
        # one measurement of two trials, grouped in pairs: the rounded total
        # is 0 with probability (1-p)^2 and 2 otherwise, so the mean is
        # 2 (1 - (1-p)^2) = 4p - 2p^2 (equal to 1 + 2p^2 only at p = 1/2)
        for prob in (0.0, 0.25, 0.5, 1.0):
            report = rounded_moments_binomial(2, prob, 2)
            assert report.mean == pytest.approx(4 * prob - 2 * prob**2, abs=1e-12)
        assert rounded_moments_binomial(2, 0.5, 2).mean == pytest.approx(1.5, abs=1e-14)

    def test_binomial_degenerate(self):
        report = rounded_moments_binomial(4, 0.0, 2)
        assert report.mean == pytest.approx(0.0, abs=1e-12)
        assert report.variance == pytest.approx(0.0, abs=1e-12)

    def test_poisson_rejects_fractional_groups(self):
        with pytest.raises(ValueError):
            rounded_moments_poisson(2.0, 2.5)

    def test_binomial_requires_whole_groups(self):
        with pytest.raises(ValueError):
            rounded_moments_binomial(7, 0.4, 2)

    @staticmethod
    def outcome(route, *args):
        """A report's fields as exact hex strings, or the error type raised."""
        try:
            report = route(*args)
        except (ValueError, ArithmeticError) as exc:
            return type(exc)
        return tuple(float(x).hex() for x in (report.mean, report.variance, report.imag_residual))

    def test_named_routes_are_the_series_bit_for_bit(self):
        raised = 0
        for theta in (0.1, 0.3, 2.0, 7.3, 158.0, 1000.0):
            for n in (1, 2, 3, 10, 100, 1000, 5000):
                want = self.outcome(rounded_moments_series, Poisson(theta), RoundingScheme(n))
                assert self.outcome(rounded_moments_poisson, theta, n) == want, (theta, n)
                raised += isinstance(want, type)
        for n in (1, 2, 5, 10, 50):
            for groups in (1, 4, 40, 2000):
                for prob in (0.0, 0.15, 0.5, 0.9, 1.0):
                    trials = n * groups
                    want = self.outcome(rounded_moments_series, Binomial(trials, prob),
                                        RoundingScheme(n))
                    got = self.outcome(rounded_moments_binomial, trials, prob, n)
                    assert got == want, (trials, prob, n)
                    raised += isinstance(want, type)
        # theta = 0.3 at n = 5000 among others: the series refuses a negative variance
        assert raised > 0

    def test_negative_binomial_series_matches_enumeration(self):
        model = NegativeBinomial(5, 0.4)
        series = rounded_moments_series(model, RoundingScheme(4))
        enum = rounded_pmf(model, RoundingScheme(4), 1e-15)
        assert enum.mean() == pytest.approx(series.mean, abs=1e-9)
        assert enum.variance() == pytest.approx(series.variance, abs=1e-9)

    def test_half_even_rejected_for_even_n(self):
        with pytest.raises(ValueError):
            rounded_moments_series(Poisson(2.0), RoundingScheme(2, HALF_EVEN))

    def test_large_rate_ratios(self):
        # lam=50, n=5: rounding is negligible for the mean, Sheppard-sized
        # for the variance
        report = rounded_moments_poisson(250.0, 5)
        assert abs(report.mean / 250.0 - 1.0) < 0.01
        assert abs(report.variance / 250.0 - 1.0) < 0.05

    def test_integer_rate_variance_collapses(self):
        # lam=3: Var(U) -> 0 in n, though not monotonically (lattice spacing
        # and the latent sd interact; the n=50 point sits on a hump)
        v10 = rounded_moments_poisson(30.0, 10).variance
        v200 = rounded_moments_poisson(600.0, 200).variance
        assert v200 < 2.5
        assert v200 < v10 / 10

    def test_half_rate_variance_quarter_square(self):
        report = rounded_moments_poisson(200.0, 400)
        assert report.variance / 400.0**2 == pytest.approx(0.25, rel=0.1)


class TestSampling:
    def test_identity_at_n1(self):
        model = Poisson(2.0)
        u = sample_u(model, RoundingScheme(1), np.random.default_rng(5), size=1000)
        y = model.sample(np.random.default_rng(5), size=1000)
        assert np.array_equal(u, y)

    def test_scalar_draw(self):
        u = sample_u(Poisson(2.0), RoundingScheme(3), np.random.default_rng(5))
        assert u % 3 == 0

    def test_binomial_zero_block(self):
        rng = np.random.default_rng(77)
        u = sample_u(Binomial(2, 0.5), RoundingScheme(2), rng, size=500_000)
        assert np.mean(u == 0) == pytest.approx(0.25, abs=0.005)

    def test_deterministic_given_stream(self):
        a = sample_u(Poisson(2.0), RoundingScheme(3), np.random.default_rng(9), size=100)
        b = sample_u(Poisson(2.0), RoundingScheme(3), np.random.default_rng(9), size=100)
        assert np.array_equal(a, b)


class TestAsymptoticMean:
    def test_small_rate_limit(self):
        assert asymptotic_mle_mean(0.3) == pytest.approx(1 / (2 * np.e), abs=1e-15)
        assert asymptotic_mle_mean(0.49) == asymptotic_mle_mean(0.01)

    def test_branch_value_at_two(self):
        expected = 1.5 * np.exp(1.5 * (5 / 3) * np.log(5 / 3) - 1.0)
        assert asymptotic_mle_mean(2.0) == pytest.approx(expected, abs=1e-12)
        assert asymptotic_mle_mean(2.0) == pytest.approx(1.9788763181515097, abs=1e-12)

    def test_half_integer_average(self):
        assert asymptotic_mle_mean(1.5) == pytest.approx(
            0.5 * (_mle_mean_branch(1) + _mle_mean_branch(2)), abs=1e-15)
        assert asymptotic_mle_mean(0.5) == pytest.approx(
            0.5 * (1 / (2 * np.e) + _mle_mean_branch(1)), abs=1e-15)

    def test_matches_exact_enumeration_at_moderate_groups(self):
        # oracle: exact E(estimate)/n at n=5000, lam=2
        from roundedcounts import Poisson, poisson_mle_closed
        from roundedcounts.estimation import expected_value_exact

        n = 5000
        value = expected_value_exact(lambda u: poisson_mle_closed(u, n).value,
                                     Poisson(2.0 * n), RoundingScheme(n), 1e-13) / n
        assert value == pytest.approx(asymptotic_mle_mean(2.0), abs=0.02)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotic_mle_mean(0.0)


def test_scheme_validation():
    with pytest.raises(ValueError):
        RoundingScheme(0)
    with pytest.raises(ValueError):
        RoundingScheme(3, "nearest")
