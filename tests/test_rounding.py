import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from roundedcounts import (
    HALF_EVEN,
    HALF_UP,
    Binomial,
    ExcessDeathsDesign,
    NearRootOfUnityError,
    NegativeBinomial,
    Poisson,
    RoundingScheme,
    asymptotic_mle_mean,
    excess_moments,
    round_count,
    rounded_logpmf,
    rounded_moments_binomial,
    rounded_moments_poisson,
    rounded_moments_series,
    rounded_pgf,
    rounded_pmf,
    roots_of_unity,
    sample_u,
    support_block,
)
from roundedcounts import rounding
from roundedcounts.rounding import (
    MAX_TABLE_ENTRIES,
    POLE_GUARD_RADIUS,
    ROOTS_CACHE_LIMIT,
    SERIES_RTOL,
    TAIL_EPS,
    MomentReport,
    NumericalInconsistencyError,
    _accepted,
    _FIRST_REACH,
    _PMF_CHUNK,
    _PMF_MAX_BLOCK,
    _PMF_MIN_ENTRIES,
    _block_logpmf,
    _mle_mean_branch,
    _moments_series,
    _pmf_is_cheaper,
    _table_is_cheaper,
    _table_over,
)


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


    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(1, 10**9), st.integers(0, 2**31), st.integers(-3, 3),
           st.sampled_from([HALF_UP, HALF_EVEN]))
    def test_python_int_path_equals_the_array_path(self, n, v, offset, tie):
        # y near v*n + n//2, so exact ties (even n, offset 0) and 0 are drawn
        y = max(0, v * n + n // 2 + offset) if v else max(0, offset)
        got = round_count(y, n, tie)
        assert type(got) is int
        assert got == int(round_count(np.array([y]), n, tie)[0]) == round_count(np.int64(y), n, tie)

    @settings(derandomize=True)
    @given(st.integers(max_value=-1), st.integers(1, 100))
    def test_negative_python_ints_rejected(self, y, n):
        with pytest.raises(ValueError):
            round_count(y, n)

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

    @pytest.mark.parametrize("tie", [HALF_UP, HALF_EVEN])
    def test_every_block_contains_its_lattice_point(self, tie):
        # so no block is empty, and rounded_logpmf always has a term to sum
        for n in range(1, 41):
            scheme = RoundingScheme(n, tie)
            for v in range(51):
                assert v * n in support_block(v * n, scheme), (n, v)

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

    def test_cache_holds_at_most_its_stated_size(self):
        # Twelve distinct n, each over a quarter of the limit, with the series
        # factors read: only the last three tables fit, 96 bytes per root.
        # A cache of 128 tables would hold all twelve, 75 MB.
        first = ROOTS_CACHE_LIMIT // 4 + 1
        tracemalloc.start()
        try:
            for n in range(first, first + 12):
                assert roots_of_unity(n).series_factors[1].shape == (n - 1,)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * 96 * first < held < 96 * ROOTS_CACHE_LIMIT  # 24 MiB
        assert roots_of_unity(first + 11) is roots_of_unity(first + 11)
        assert roots_of_unity(ROOTS_CACHE_LIMIT + 1) is not roots_of_unity(ROOTS_CACHE_LIMIT + 1)

    @pytest.mark.parametrize("call", [
        roots_of_unity,
        lambda n: rounded_moments_series(Poisson(2.0), RoundingScheme(n)),
        lambda n: rounded_moments_poisson(2.0, n),
        lambda n: rounded_moments_binomial(n, 0.5, n),
        lambda n: rounded_pgf(Poisson(2.0), RoundingScheme(n), 0.5),
        lambda n: excess_moments(ExcessDeathsDesign(7, n, 2.0, 0.0)),
    ], ids=["roots", "series", "poisson", "binomial", "pgf", "excess"])
    def test_group_count_over_the_limit_is_refused_before_allocating(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"over the limit of {MAX_TABLE_ENTRIES}"):
                call(MAX_TABLE_ENTRIES + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The table would be two complex arrays of 2**22 entries, 134 MB.
        assert peak < 1_000_000


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
        oracle = brute_force_pmf(model, n, tie, model.support_window(1e-13)[1])[table.first:]
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


def mp_block_logprob(model, lo, hi):
    """log P(lo <= Y <= hi) at 40 digits: the latent pmf summed over the block."""
    with mp.workdps(40):
        def logpmf(k):
            if model.kind == "poisson":
                theta = mp.mpf(model.theta)
                return k * mp.log(theta) - theta - mp.loggamma(k + 1)
            p = mp.mpf(model.prob)
            if model.kind == "binomial":
                trials = model.trials
                return (mp.loggamma(trials + 1) - mp.loggamma(k + 1) - mp.loggamma(trials - k + 1)
                        + (k * mp.log(p) if k else 0)
                        + ((trials - k) * mp.log1p(-p) if trials > k else 0))
            size = mp.mpf(model.size)
            return (mp.loggamma(k + size) - mp.loggamma(size) - mp.loggamma(k + 1)
                    + size * mp.log(p) + (k * mp.log1p(-p) if k else 0))

        top = model.upper_support()
        terms = [logpmf(k) for k in range(lo, hi + 1 if top is None else min(hi, top) + 1)]
        if not terms:
            return -math.inf
        peak = max(terms)
        return peak + mp.log(mp.fsum(mp.exp(t - peak) for t in terms))


@st.composite
def blocks_across_the_support(draw):
    """A model of one of the three families, a scheme and the lattice point u
    of a latent value from 40 sd below the mean to 40 sd above it (up to two
    blocks past the binomial trials)."""
    family = draw(st.sampled_from(["poisson", "binomial", "negbinomial"]))
    if family == "poisson":
        model = Poisson(10.0 ** draw(st.floats(-3.0, 9.0)))
    elif family == "binomial":
        model = Binomial(int(10.0 ** draw(st.floats(0.0, 9.0))), draw(st.floats(0.0, 1.0)))
    else:
        model = NegativeBinomial(10.0 ** draw(st.floats(math.log10(0.05), math.log10(200.0))),
                                 10.0 ** draw(st.floats(-4.0, 0.0)))
    scheme = RoundingScheme(draw(st.integers(1, 60)), draw(st.sampled_from([HALF_UP, HALF_EVEN])))
    z = draw(st.floats(-40.0, 40.0))
    y = max(0, int(model.mean() + z * math.sqrt(model.variance())))
    if model.upper_support() is not None:
        y = min(y, model.upper_support() + 2 * scheme.n)
    return model, scheme, scheme.n * round_count(y, scheme.n, scheme.tie_rule)


def mp_poisson_block_logprob(theta, lo, hi):
    """log P(lo <= Y <= hi) for a Poisson Y at 40 digits, 0 < lo, from the
    regularized incomplete gamma function on the block's side of the mean:
    P(Y <= k) = Q(k + 1, theta) below it and P(Y >= k) = P(k, theta) above."""
    with mp.workdps(40):
        t = mp.mpf(theta)
        if lo > theta:
            p = mp.gammainc(lo, 0, t, regularized=True) - mp.gammainc(hi + 1, 0, t, regularized=True)
        else:
            p = (mp.gammainc(hi + 1, t, mp.inf, regularized=True)
                 - mp.gammainc(lo, t, mp.inf, regularized=True))
        return mp.log(p)


class TestRoundedLogpmf:
    # The error bound per family, which the 400 examples below meet: their
    # worst errors are 5.3e-13 (Poisson), 4.4e-10 (binomial) and 1.6e-12
    # (negative binomial).  It does not bound the tail route, where a block
    # carries the tails' relative error times the ratio of the larger tail
    # to it, up to TAIL_RATIO_LIMIT: other draws reach 2.6e-11 at
    # Poisson(1e7), n = 1, u = 10_018_973 and 8.3e-10 at Poisson(1e9), n = 1,
    # u = 1_000_284_604, and 1.3e-9 at Binomial(1.6e8, 0.95), n = 1 (the
    # incomplete beta's 1.3e-12 relative error times a tail 1,041 times the
    # block).
    FLOOR = {"poisson": 2e-11, "binomial": 2e-9, "negbinomial": 1e-10}

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(blocks_across_the_support())
    def test_matches_a_40_digit_block_sum(self, case):
        model, scheme, u = case
        block = support_block(u, scheme)
        ref = mp_block_logprob(model, block.start, block.stop - 1)
        got = rounded_logpmf(model, scheme, u)
        if ref == -math.inf:
            assert got == -math.inf
            return
        assert abs(got - ref) <= self.FLOOR[model.kind]

    # The log-gamma pmf was off by 4.7e-7, 1.5e-8, 1.4e-10, 1.5e-6, 4.4e-8
    # and 3.8e-9 at these blocks, and by 8e-5, 1.1e-2, 1.8e-1 and 1.0e-2 at
    # the four after them, which the anchored pmf sum serves (the block is
    # under 1e-6 of the larger tail); there 1.4e-11 is within 1e-12 of the
    # log-likelihood, about -15.
    @pytest.mark.parametrize("model, n, u, bound", [
        (Poisson(1e12), 1, 10**12, 1.4e-11),
        (Poisson(1e13), 1, 10**13, 1.4e-11),
        (Poisson(1e14), 10, 10**14, 1.4e-11),
        (Binomial(10**13, 0.5), 1, 5 * 10**12, 1.4e-11),
        (Poisson(1e9), 1, 10**9, 2e-11),
        (Poisson(1e7), 3, 9_999_999, 3e-13),
        (Poisson(1e5), 7, 100_051, 1e-14),
        (Binomial(10**9, 0.3), 1, 3 * 10**8, 1e-9),
        (Binomial(29_973_776, 0.5682118210604725), 31, 17_030_997, 6e-11),
        (Binomial(2_960_452, 1.2291595683208096e-4), 1, 365, 5e-14),
        (Poisson(2.5), 3, 0, 1e-13),
        (Poisson(2.5), 3, 3, 1e-13),
        (Poisson(2.5), 3, 9, 1e-13),
        (Binomial(200, 0.2), 5, 40, 1e-13),
        (Binomial(200, 0.2), 5, 60, 1e-13),
        (Binomial(200, 0.2), 5, 200, 1e-13),
    ], ids=repr)
    def test_large_parameters_within_their_bounds(self, model, n, u, bound):
        block = support_block(u, RoundingScheme(n))
        ref = mp_block_logprob(model, block.start, block.stop - 1)
        assert abs(rounded_logpmf(model, RoundingScheme(n), u) - ref) < bound

    @pytest.mark.parametrize("model, n, u", [
        (Poisson(1.0), 3, 600),  # the tails underflow
        (Binomial(10, 0.3), 4, 16),  # the block 14..17 lies past the trials
        (Binomial(10, 1.0), 1, 11),  # sf(10) is 0 here, where betainc(11, 0, 1) is 1
        # P = 1.0e-291, below TAIL_ROUTE_MIN_PROB: betainc gives 8.1e-292 for
        # the tail above 2823, 22 % low, and 0.0 at k = 2799, 2802, ..., 2820.
        (Binomial(2836, 0.7728568951795121), 16, 2832),
    ], ids=repr)
    def test_far_tails_match_a_40_digit_sum(self, model, n, u):
        block = support_block(u, RoundingScheme(n))
        got = rounded_logpmf(model, RoundingScheme(n), u)
        ref = mp_block_logprob(model, block.start, block.stop - 1)
        assert got == ref == -math.inf or abs(got - ref) < 1e-11

    def test_far_tail_sum_holds_one_chunk_at_a_time(self):
        # The block of u = 10**6 holds 10**6 latent points, about 70 MiB as
        # one array of log-pmf values and its temporaries.
        model, scheme = Poisson(1.0), RoundingScheme(10**6)
        tracemalloc.start()
        try:
            got = rounded_logpmf(model, scheme, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        block = support_block(10**6, scheme)
        ref = mp_poisson_block_logprob(1.0, block.start, block.stop - 1)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    # Blocks 40 sd below a mean of 1e9, where the log-pmf climbs by about 20
    # over a chunk, summed down from their top: the first call's points
    # alone and one more; one short of a chunk, exactly one and one over;
    # the first call and a whole piece, and one more; and two chunks and a
    # bit, where the sum stops about 30,000 points down.  The last piece is
    # cut at the block's end and no point is summed twice.
    @pytest.mark.parametrize("length", [_FIRST_REACH + 1, _FIRST_REACH + 2,
                                        _PMF_CHUNK - 1, _PMF_CHUNK, _PMF_CHUNK + 1,
                                        _FIRST_REACH + 1 + _PMF_CHUNK,
                                        _FIRST_REACH + 2 + _PMF_CHUNK, 2 * _PMF_CHUNK + 3])
    def test_far_tail_chunks_cover_the_block_once(self, length):
        model, lo = Poisson(1e9), 10**9 - 40 * 31_623
        got = _block_logpmf(model, lo, lo + length - 1)
        ref = mp_poisson_block_logprob(1e9, lo, lo + length - 1)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_slowly_decaying_far_block_stops_before_its_end(self):
        # Far above its mean of 500 the pmf of NegativeBinomial(0.05, 1e-4)
        # falls by about 1e-4 per point, and P = 1e-243, below
        # TAIL_ROUTE_MIN_PROB: the sum stops after about 410,000 of the
        # block's 10**6 points.
        model, scheme, u = NegativeBinomial(0.05, 1e-4), RoundingScheme(10**6), 6 * 10**6
        block = support_block(u, scheme)
        lo, hi = block.start, block.stop - 1
        assert 0 < model.logpmf(lo) - model.logpmf(lo + 1) < 1e-3
        summed = []
        model.logpmf = lambda k, logpmf=model.logpmf: summed.append(len(k)) or logpmf(k)
        got = rounded_logpmf(model, scheme, u)
        assert sum(summed) < hi - lo + 1
        # P(Y >= k) = I_{1-p}(k, r), the regularized incomplete beta function.
        with mp.workdps(40):
            q, r = 1 - mp.mpf(model.prob), mp.mpf(model.size)
            ref = mp.log(mp.betainc(lo, r, 0, q, regularized=True)
                         - mp.betainc(hi + 1, r, 0, q, regularized=True))
        assert abs(got - ref) < 1e-12

    @pytest.mark.parametrize("scheme", [RoundingScheme(1), RoundingScheme(7, HALF_EVEN)],
                             ids=repr)
    def test_blocks_at_the_int64_limit_are_refused(self, scheme):
        u = scheme.n * (2**63 // scheme.n + 1)
        for call in (lambda: support_block(u, scheme),
                     lambda: rounded_logpmf(Poisson(1.0), scheme, u)):
            with pytest.raises(ValueError, match="int64 limit of 9223372036854775807"):
                call()

    def test_a_block_below_the_int64_limit_answers(self):
        assert support_block(10**18, RoundingScheme(1)) == range(10**18, 10**18 + 1)
        assert rounded_logpmf(Poisson(1.0), RoundingScheme(1), 10**18) == -4.0446531673892820e19


# betainc's negative binomial cdf is 1.13e-10 relative off at the mean of
# NegativeBinomial(5, 1e-6) (ROADMAP open item 4).  Its table at n = 100
# takes the tail route (392,255 entries) and carries that error: its entry
# at the mean is 3.06e-9 off a 40-digit sum in log, and the log-likelihood
# there 3.09e-9.  At n = 10 the table takes the pmf route and is 9e-16 off.
@pytest.mark.xfail(strict=True, reason="betainc's negative binomial cdf error reaches the "
                                       "tail-route table and the log-likelihood")
def test_negative_binomial_cdf_error_at_a_large_mean():
    model, scheme = NegativeBinomial(5.0, 1e-6), RoundingScheme(100)
    u = scheme.n * round_count(int(model.mean()), scheme.n)
    block = support_block(u, scheme)
    ref = mp_block_logprob(model, block.start, block.stop - 1)
    table = rounded_pmf(model, scheme)
    assert table.route == "tails"
    assert abs(math.log(table.prob(u)) - ref) < 1e-12
    assert abs(rounded_logpmf(model, scheme, u) - ref) < 1e-12


def assert_entries_match_40_digits(model, scheme, table):
    """The table's two ends, quartiles and mode within 1e-12 relative of a
    40-digit block sum, and its total plus truncation mass within 1e-12 of 1."""
    size = len(table.probs)
    for i in {0, size // 4, size // 2, 3 * size // 4, size - 1, int(np.argmax(table.probs))}:
        block = support_block((table.first + i) * scheme.n, scheme)
        ref = mp_block_logprob(model, block.start, block.stop - 1)
        assert abs(math.log(table.probs[i]) - ref) < 1e-12, (i, table.probs[i])
    assert abs(math.fsum(table.probs) + table.truncation_mass - 1.0) < 1e-12


@st.composite
def pmf_route_schemes(draw):
    """A model and a scheme whose table takes the pmf route: a Poisson mean
    from 1e3 to 1e9, a binomial of 1e5 to 1e9 trials with p in [0.01, 0.99]
    or a negative binomial with mean 1e2 to 1e7 and sd at most 3e4 (size at
    least 0.5); n from 1 to 60, lowered to the largest n at which the
    table takes the pmf route.  Every latent window is under 1e6 points."""
    family = draw(st.sampled_from(["poisson", "binomial", "negbinomial"]))
    if family == "poisson":
        model = Poisson(10.0 ** draw(st.floats(3.0, 9.0)))
    elif family == "binomial":
        model = Binomial(int(10.0 ** draw(st.floats(5.0, 9.0))), draw(st.floats(0.01, 0.99)))
    else:
        mean = 10.0 ** draw(st.floats(2.0, 7.0))
        least = max(0.5, mean * mean / 9e8)  # sd**2 = mean*(1 + mean/size)
        size = least * 10.0 ** draw(st.floats(0.0, 3.0))
        model = NegativeBinomial(size, size / (size + mean))
    tie = draw(st.sampled_from([HALF_UP, HALF_EVEN]))
    y_lo, y_hi = model.support_window(TAIL_EPS)
    for n in range(draw(st.integers(1, 60)), 0, -1):
        if _pmf_is_cheaper(model, n, round_count(y_hi, n, tie) - round_count(y_lo, n, tie) + 1):
            break
    return model, RoundingScheme(n, tie)


class TestPmfRoute:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(pmf_route_schemes())
    def test_entries_match_a_40_digit_sum(self, case):
        model, scheme = case
        table = rounded_pmf(model, scheme)
        assert table.route == "pmf"
        assert_entries_match_40_digits(model, scheme, table)

    # The tails' differences were 5.4e-12, 4.6e-11, 1.6e-11 and 4.3e-14 off
    # at the entries checked.
    @pytest.mark.parametrize("model, scheme", [
        (Poisson(9_855_443.42), RoundingScheme(3, HALF_EVEN)),
        (Binomial(29_973_776, 0.5682118210604725), RoundingScheme(31)),
        (NegativeBinomial(50.0, 1e-4), RoundingScheme(10)),
        (Poisson(46_290), RoundingScheme(7)),
    ], ids=repr)
    def test_large_tables_match_a_40_digit_sum(self, model, scheme):
        table = rounded_pmf(model, scheme)
        assert table.route == "pmf"
        assert_entries_match_40_digits(model, scheme, table)

    # The pmf sums take blocks of at most 12 (Poisson), 100 (binomial) and
    # 40 (negative binomial) latent points in tables of at least 100
    # entries.  The negative binomial pair at n = 1 holds 90 and 109
    # entries; the binomial table at n = 31, 106.  The last four tables are
    # of the kind that the Monte Carlo cells, the fits and the commands
    # build in the benchmark (up to 87 entries), too short to repay the pmf
    # route's fixed cost.
    @pytest.mark.parametrize("model, n, route", [
        (Poisson(46_290), 7, "pmf"),
        (Poisson(46_290), 31, "tails"),
        (Poisson(2_835_502.7), 31, "tails"),
        (Binomial(299_002, 0.23233916928100928), 31, "pmf"),
        (NegativeBinomial(5.0, 0.3), 1, "pmf"),
        (NegativeBinomial(5.0, 0.35), 1, "tails"),
        (Poisson(30), 1, "tails"),
        (Poisson(800), 200, "tails"),
        (NegativeBinomial(2.0, 0.3), 3, "tails"),
        (Binomial(250, 0.5), 10, "tails"),
    ], ids=repr)
    def test_tables_take_their_cheaper_route(self, model, n, route):
        assert rounded_pmf(model, RoundingScheme(n)).route == route

    @pytest.mark.parametrize("model", [Poisson(1e6), Binomial(10**7, 0.4),
                                       NegativeBinomial(50.0, 1e-3)], ids=repr)
    def test_rule_turns_at_the_familys_block_limit_and_the_least_entries(self, model):
        limit = _PMF_MAX_BLOCK[model.kind]
        assert _pmf_is_cheaper(model, limit, _PMF_MIN_ENTRIES)
        assert not _pmf_is_cheaper(model, limit + 1, _PMF_MIN_ENTRIES)
        assert not _pmf_is_cheaper(model, limit, _PMF_MIN_ENTRIES - 1)
        assert _pmf_is_cheaper(model, 1, 10**6)

    def test_long_blocks_keep_the_tails_bit_for_bit(self):
        # 45 entries of 1e8 latent points each, about 4.4e9 points.
        table = rounded_pmf(Poisson(1e17), RoundingScheme(10**8))
        assert table.route == "tails"
        assert (len(table.probs), table.first) == (45, 999_999_978)
        assert hashlib.sha256(table.probs.tobytes()).hexdigest() == (
            "f52a3d88786150d1d2cdbd0cabc0e277bc9abd5428ab140bbc690befac10c6f9")
        assert (table.mass_below, table.mass_above) == (5.590582280638015e-13,
                                                          5.590584518055461e-13)

    def test_pmf_route_peaks_below_the_tails(self, monkeypatch):
        model, scheme = Poisson(1e10), RoundingScheme(3)
        window = model.support_window(TAIL_EPS)
        assert window[1] - window[0] > 10**6
        peaks = {}
        for route in ("pmf", "tails"):
            tracemalloc.start()
            try:
                table = _table_over(model, scheme, window)
                peaks[route] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert table.route == route
            monkeypatch.setattr(rounding, "_pmf_is_cheaper", lambda *args: False)
        assert peaks["pmf"] < peaks["tails"]


def latent_pmf_by_recurrence(model, top):
    """P(Y = k) for k = 0..top from the ratios P(Y = k+1)/P(Y = k), anchored
    at the mode and normalized to sum 1.  Independent of the log-gamma pmf,
    whose relative error reaches 3e-10 at a Poisson mean of 1e5, and of the
    special-function tails."""
    k = np.arange(top, dtype=float)
    if model.kind == "poisson":
        ratio = model.theta / (k + 1.0)
    elif model.kind == "binomial":
        ratio = (model.trials - k) / (k + 1.0) * model.prob / (1.0 - model.prob)
    else:
        ratio = (k + model.size) / (k + 1.0) * (1.0 - model.prob)
    mode = int(np.argmax(ratio < 1.0)) if np.any(ratio < 1.0) else top
    up = np.cumprod(ratio[mode:])
    down = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    ps = np.concatenate((down, [1.0], up))
    return ps / math.fsum(ps)


@st.composite
def windowed_tables(draw):
    """A latent model, a scheme and a tail_eps for rounded_pmf."""
    kind = draw(st.sampled_from(["poisson", "binomial", "negbinomial"]))
    if kind == "poisson":
        model = Poisson(10.0 ** draw(st.floats(-2.0, 5.0)))
    elif kind == "binomial":
        model = Binomial(draw(st.integers(1, 100_000)), draw(st.floats(0.01, 0.99)))
    else:
        model = NegativeBinomial(draw(st.floats(0.2, 50.0)), draw(st.floats(0.02, 0.98)))
    scheme = RoundingScheme(draw(st.integers(1, 31)), draw(st.sampled_from([HALF_UP, HALF_EVEN])))
    return model, scheme, draw(st.sampled_from([1e-3, 1e-8, 1e-12]))


class TestWindow:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(windowed_tables())
    def test_window_matches_block_sums_from_zero(self, case):
        model, scheme, eps = case
        table = rounded_pmf(model, scheme, eps)
        # The reference runs to where less than 1e-25 is left above it.
        top = model.support_window(1e-25)[1] + scheme.n
        ps = latent_pmf_by_recurrence(model, top)
        blocks = np.bincount(round_count(np.arange(top + 1), scheme.n, scheme.tie_rule), weights=ps)
        last = table.first + len(table.probs)
        assert last <= len(blocks)
        assert np.max(np.abs(table.probs - blocks[table.first:last])) < 1e-13
        outside = math.fsum(blocks[:table.first]) + math.fsum(blocks[last:])
        # At most the truncation mass, and in fact equal to it
        assert outside == pytest.approx(table.truncation_mass, rel=1e-9, abs=1e-300)
        assert table.mass_below < eps and table.mass_above < eps
        if model.cdf(0) >= eps:
            assert table.first == 0

    def test_accessors_use_the_window(self):
        model, scheme = Poisson(400.0), RoundingScheme(7)
        table = rounded_pmf(model, scheme, 1e-12)
        assert table.first > 0
        full = brute_force_pmf(model, 7, HALF_UP, model.support_window(1e-12)[1])
        assert table.support[0] == 7 * table.first
        assert [u for u, _ in table.items()] == list(table.support)
        assert table.prob(7 * table.first) == table.probs[0]
        assert table.prob(7 * (table.first - 1)) == 0.0
        assert table.mean() == pytest.approx(np.dot(7.0 * np.arange(len(full)), full), rel=1e-12)
        s = 0.3 + 0.4j
        series = np.sum(full * s ** (7 * np.arange(len(full))))
        assert abs(table.pgf(s) - series) < 1e-14
        assert table.truncation_mass == table.mass_below + table.mass_above

    def test_large_mean_is_served_from_a_window(self):
        # The window's upper end 1000222458 is the first k with P(Y > k) < 1e-12
        # by a 40-digit sum: 1.0001e-12 at k - 1 and 9.9988e-13 at k.
        table = rounded_pmf(Poisson(1e9), RoundingScheme(3))
        assert len(table.probs) == 148_301
        assert table.total() + table.truncation_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", [Poisson(50.0), Binomial(40, 0.5), NegativeBinomial(3.0, 0.4)],
                             ids=repr)
    def test_crossing_quantiles_are_refused(self, model):
        # Above 0.5 the lower tail_eps-quantile lies above the upper one.
        lo, hi = model.support_window(0.6)
        assert lo > hi
        with pytest.raises(ValueError, match="tail_eps"):
            rounded_pmf(model, RoundingScheme(1), 0.6)
        table = rounded_pmf(model, RoundingScheme(1), 0.5)
        assert len(table.probs) == 1

    @pytest.mark.parametrize("theta, n", [(1e19, 10**6), (5e19, 10**7), (1e3, 2**63)])
    def test_block_edges_beyond_int64_are_refused(self, theta, n):
        # Here the lattice points v*n would wrap around in int64 and give an
        # all-zero table with mass_above 1.
        with pytest.raises(ValueError, match="int64"):
            rounded_pmf(Poisson(theta), RoundingScheme(n))

    def test_oversized_table_is_refused(self):
        with pytest.raises(ValueError, match="entries"):
            rounded_pmf(Poisson(1e14), RoundingScheme(1))
        width = 2 * MAX_TABLE_ENTRIES
        with pytest.raises(ValueError, match=str(MAX_TABLE_ENTRIES)):
            rounded_pmf(Poisson(float(width) ** 2 / 100.0), RoundingScheme(1))


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


def rounded_pgf_as_written(model, scheme, s):
    """``rounded_pgf`` as it was written for one point: Python complex
    arithmetic outside the sum over the roots."""
    if scheme.tie_rule == HALF_EVEN and scheme.n % 2 == 0:
        raise ValueError("the generating-function formula is only available for the "
                         "round-half-up rule")
    n = scheme.n
    s = complex(s)
    if abs(s) > 1.0 + 1e-9:
        raise ValueError(f"|s| must be <= 1, got {abs(s)}")
    table = scheme.table
    if np.min(np.abs(s - table.omega_pow)) <= POLE_GUARD_RADIUS:
        raise NearRootOfUnityError(
            "s lies within the guard radius of a root of unity; "
            "evaluate the tabulated series from rounded_pmf instead")
    exponent = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2
    if exponent > 0 and abs(s) <= POLE_GUARD_RADIUS:
        raise NearRootOfUnityError(
            "s lies within the guard radius of 0 where the denominator power "
            "vanishes; evaluate the tabulated series from rounded_pmf instead")
    terms = table.coeff_a * model.pgf(s / table.omega_pow) / (s - table.omega_pow)
    prefactor = (s**n - 1.0) / (n * s**exponent)
    # The forward error bound: each term's rounding, the root's error
    # (1 + 4*pi*j/n eps) over |s - omega| and the latent pgf's mean.
    root_error = 1.0 + 4.0 * np.pi * np.arange(n) / n
    weights = 1.0 + model.mean() + root_error / np.abs(s - table.omega_pow)
    bound = abs(prefactor) * np.finfo(float).eps * float(np.sum(np.abs(terms) * weights))
    if not bound <= SERIES_RTOL:
        raise NumericalInconsistencyError(f"the closed form's error bound at s is {bound:.3e}")
    return complex(prefactor * np.sum(terms))


def series_pgf_as_written(table, s):
    """``RoundedPmf.pgf`` as it was written for one point."""
    z = complex(s) ** table.n
    powers = z ** np.arange(table.first, table.first + len(table.probs))
    return complex(np.dot(table.probs, powers))


def value_or_error(route, *args):
    """The result, or the type and message of the error raised; a bound's
    message is cut before its figure, which the two forms round apart."""
    try:
        return route(*args)
    except NumericalInconsistencyError as exc:
        return type(exc), str(exc).split(" is ")[0]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def disk_points(seed, n, count):
    """``count`` points of the unit disk at least 1e-3 from 0 and from every
    n-th root of unity, where both forms are accurate."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1.0, 1.0, size=(4 * count + 16, 2)).view(complex)[:, 0]
    roots = roots_of_unity(n).omega_pow
    keep = ((np.abs(s) <= 1.0) & (np.abs(s) >= 1e-3)
            & (np.abs(s[:, None] - roots).min(axis=1) >= 1e-3))
    return s[keep][:count]


def near_root_points(seed, n, count):
    """``count`` points just inside the unit circle near an n-th root of
    unity, where s**n - 1 cancels and any rounding in s**n is magnified."""
    rng = np.random.default_rng(seed)
    roots = roots_of_unity(n).omega_pow
    near = (roots[rng.integers(0, n, 2 * count)] * rng.uniform(0.95, 0.998, 2 * count)
            * np.exp(1j * rng.uniform(-0.02, 0.02, 2 * count)))
    return near[np.abs(near[:, None] - roots).min(axis=1) >= 1e-3][:count]


PGF_MODELS = [Poisson(0.4), Poisson(2.0), Poisson(9.7), Binomial(20, 0.35), Binomial(93, 0.8),
              NegativeBinomial(3.0, 0.4), NegativeBinomial(0.7, 0.9)]


class TestPgfArrays:
    """``rounded_pgf`` and ``RoundedPmf.pgf`` over arrays of s."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_shape_is_preserved_and_a_scalar_gives_complex(self, n):
        model, scheme = Poisson(2.0), RoundingScheme(n)
        table = rounded_pmf(model, scheme, 1e-14)
        points = disk_points(n, n, 6)
        for form in (lambda s: rounded_pgf(model, scheme, s), table.pgf):
            for s in (0.3 + 0.2j, np.complex128(0.3 + 0.2j), 0.5):
                assert type(form(s)) is complex
            assert type(form(np.asarray(0.3 + 0.2j))) is complex
            assert form(np.asarray(0.3 + 0.2j)) == form(0.3 + 0.2j)
            for shape in ((6,), (2, 3), (3, 1, 2)):
                got = form(points.reshape(shape))
                assert isinstance(got, np.ndarray) and got.shape == shape
                assert got.dtype == complex
            assert form(points[:0]).shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 31, 99, 100, 101, 257])
    def test_scalar_matches_its_written_form(self, n):
        # Both sides raise s to integer powers by repeated squaring below
        # n = 100; from there numpy takes the log route, whose error grows with n.
        bound = 4 * np.finfo(float).eps * (n if n >= 100 else 1)
        scheme = RoundingScheme(n)
        points = [complex(s) for s in np.concatenate([disk_points(100 + n, n, 25),
                                                      near_root_points(200 + n, n, 25)])]
        points += [1.0, 0.0, 1e-7, 1.2, -1.0, 0.5, 1j, 1.0 + 1e-10, 0.9999999, 0.01, 0.2 - 0.1j,
                   complex(scheme.table.omega_pow[-1] * (1 - 1e-8))]
        raised, inexact = 0, 0
        for model in PGF_MODELS:
            table = rounded_pmf(model, scheme, 1e-14)
            for s in points:
                for got, want in [(value_or_error(rounded_pgf, model, scheme, s),
                                   value_or_error(rounded_pgf_as_written, model, scheme, s)),
                                  (table.pgf(s), series_pgf_as_written(table, s))]:
                    if type(want) is tuple:  # the same error type and message
                        assert got == want, (model, n, s)
                        raised += 1
                        inexact += want[0] is NumericalInconsistencyError
                    else:
                        assert type(got) is complex, (model, n, s)
                        assert abs(got - want) <= bound * abs(want), (model, n, s)
        even = RoundingScheme(2 * n, HALF_EVEN)
        assert (value_or_error(rounded_pgf, Poisson(2.0), even, 0.5)
                == value_or_error(rounded_pgf_as_written, Poisson(2.0), even, 0.5))
        assert raised > 0
        # At large n the prefactor's 1/s**e makes some points too inexact.
        assert (inexact > 0) == (n >= 8)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 31])
    @pytest.mark.parametrize("model", PGF_MODELS, ids=repr)
    def test_each_element_is_its_scalar_call(self, model, n):
        scheme = RoundingScheme(n)
        table = rounded_pmf(model, scheme, 1e-14)
        points = np.concatenate([disk_points(7 * n, n, 200), near_root_points(n, n, 200)])
        closed = [value_or_error(rounded_pgf, model, scheme, complex(s)) for s in points]
        # The points the closed form refuses as inexact (none at n <= 3) are
        # left out; an array holding one raises, naming the first.
        refused = np.array([type(value) is tuple for value in closed])
        assert not (n <= 3 and refused.any())
        if refused.any():
            first = int(np.argmax(refused))
            with pytest.raises(NumericalInconsistencyError, match=rf"at s\[{first}\] is"):
                rounded_pgf(model, scheme, points)
        points = points[~refused]
        points = points[:len(points) - len(points) % 20]
        eps = np.finfo(float).eps
        for form in (lambda s: rounded_pgf(model, scheme, s), table.pgf):
            got = form(points)
            want = np.array([form(complex(s)) for s in points])
            assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want)), (model, n)
            assert np.array_equal(form(points.reshape(20, -1)).ravel(), got)

    @pytest.mark.parametrize("n, bad, kind", [
        (3, 1.0, NearRootOfUnityError),
        (8, np.exp(2j * np.pi * 3 / 8) * (1 - 1e-8), NearRootOfUnityError),
        (3, 1e-7 + 0j, NearRootOfUnityError),
        (4, 0.0, NearRootOfUnityError),
        (3, 1.2, ValueError),
        (5, 0.8 + 0.7j, ValueError),
        (1001, 0.1, ZeroDivisionError),
    ])
    def test_one_bad_point_raises_as_its_scalar_call(self, n, bad, kind):
        model, scheme = Poisson(2.0), RoundingScheme(n)
        with pytest.raises(kind) as scalar:
            rounded_pgf(model, scheme, bad)
        assert type(scalar.value) is kind
        points = 0.9 * np.exp(1j * np.linspace(0.1, 6.0, 12))  # no check refuses these
        points[5] = points[9] = bad
        with pytest.raises(kind, match=r"s\[1, 1\]") as array:  # the first of the two
            rounded_pgf(model, scheme, points.reshape(3, 4))
        assert type(array.value) is kind

    def test_near_zero_is_allowed_where_the_exponent_is_zero(self):
        model = Poisson(2.0)
        for n in (1, 2):
            got = rounded_pgf(model, RoundingScheme(n), np.array([0.0, 0.5]))
            assert got[0] == pytest.approx(rounded_pmf(model, RoundingScheme(n)).prob(0), abs=1e-14)

    def test_half_even_array_is_refused_at_even_n(self):
        with pytest.raises(ValueError, match="round-half-up"):
            rounded_pgf(Poisson(2.0), RoundingScheme(2, HALF_EVEN), np.array([0.5, 0.1j]))

    def test_oversized_calls_are_refused_before_allocation(self):
        model, scheme = Poisson(2.0), RoundingScheme(1000)
        # Near the circle, where the closed form is accurate at n = 1000.
        points = np.full(MAX_TABLE_ENTRIES // 1000 + 1, 0.999 + 0j)
        table = rounded_pmf(Poisson(1e6), RoundingScheme(1), 1e-14)
        series_points = np.full(MAX_TABLE_ENTRIES // len(table.probs) + 1, 0.5 + 0j)
        scheme.table  # built before tracing, as the cache holds it
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"over the limit of {MAX_TABLE_ENTRIES}"):
                rounded_pgf(model, scheme, points)
            with pytest.raises(ValueError, match=f"over the limit of {MAX_TABLE_ENTRIES}"):
                table.pgf(series_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # One point fewer is evaluated.
        assert rounded_pgf(model, scheme, points[1:2]).shape == (1,)
        assert table.pgf(series_points[:-1][:3]).shape == (3,)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(PGF_MODELS), st.integers(2, 12), st.integers(0, 2**32 - 1),
           st.integers(1, 40))
    def test_array_forms_agree_property(self, model, n, seed, count):
        scheme = RoundingScheme(n)
        table = rounded_pmf(model, scheme, 1e-15)
        points = disk_points(seed, n, count)
        # Leave out the points whose error bound the closed form refuses.
        points = points[[type(value_or_error(rounded_pgf, model, scheme, s)) is not tuple
                         for s in points]]
        assert np.all(np.abs(rounded_pgf(model, scheme, points) - table.pgf(points)) < 1e-9)


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
        """A report's fields as exact hex strings (and its route), or the error type raised."""
        try:
            report = route(*args)
        except (ValueError, ArithmeticError) as exc:
            return type(exc)
        return tuple(float(x).hex() for x in (report.mean, report.variance, report.imag_residual,
                                              report.error_bound)) + (report.route,)

    def test_named_routes_are_the_series_bit_for_bit(self):
        refused = 0
        for theta in (0.1, 0.3, 2.0, 7.3, 158.0, 1000.0):
            for n in (1, 2, 3, 10, 100, 1000, 5000):
                want = self.outcome(rounded_moments_series, Poisson(theta), RoundingScheme(n))
                assert self.outcome(rounded_moments_poisson, theta, n) == want, (theta, n)
                raw = _moments_series(Poisson(theta), RoundingScheme(n))
                refused += raw.error_bound > SERIES_RTOL
        for n in (1, 2, 5, 10, 50):
            for groups in (1, 4, 40, 2000):
                for prob in (0.0, 0.15, 0.5, 0.9, 1.0):
                    trials = n * groups
                    want = self.outcome(rounded_moments_series, Binomial(trials, prob),
                                        RoundingScheme(n))
                    got = self.outcome(rounded_moments_binomial, trials, prob, n)
                    assert got == want, (trials, prob, n)
        # theta = 0.3 at n = 5000 among others: the raw series is over its bound
        assert refused > 0

    @staticmethod
    def pgf_derivative_as_written(model, s):
        """Each family's derivative at a complex array s, evaluated on its own."""
        if isinstance(model, Poisson):
            return model.theta * np.exp(model.theta * (s - 1.0))
        if isinstance(model, Binomial):
            z = 1.0 - model.prob + model.prob * s
            power = np.ones_like(z) if model.trials == 1 else np.zeros_like(z)
            if model.trials > 1:
                nz = z != 0
                power[nz] = np.exp((model.trials - 1) * np.log(z[nz]))
            return model.trials * model.prob * power
        q = 1.0 - model.prob
        return model.size * q / (1.0 - q * s) * model.pgf(s)

    def two_evaluation_series(self, model, n):
        """The moment series as it was first written: pgf, then the derivative,
        and the factors in the roots rebuilt on each call; nothing refused."""
        table = roots_of_unity(n)
        recip = np.conj(table.omega_pow[1:])
        gv = np.asarray(model.pgf(recip), dtype=complex)
        gdv = np.asarray(self.pgf_derivative_as_written(model, recip), dtype=complex)
        ey, vy, r = model.mean(), model.variance(), table.offset_r
        omega = table.omega_pow[1:]
        coeff = table.coeff_a[1:]
        one_minus = 1.0 - omega
        s1 = np.sum(coeff * gv / one_minus)
        s2 = np.sum(coeff * (gdv / (omega * one_minus) - gv / one_minus**2))
        mean_c = ey + 0.5 * (2.0 * r - 1.0) + s1
        var_c = vy + (n * n - 1.0) / 12.0 - (2.0 * ey - 1.0) * s1 - s1 * s1 + 2.0 * s2
        residual = max(abs(mean_c.imag), abs(var_c.imag)) if n > 1 else 0.0
        return float(np.real(mean_c)), float(np.real(var_c)), float(residual)

    @staticmethod
    def bytes_or_error(route, model, n):
        """The bytes of (mean, variance, imag_residual), or the error raised."""
        try:
            return np.array(route(model, n)).tobytes()
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    @staticmethod
    def series_fields(model, n):
        report = _moments_series(model, RoundingScheme(n))
        return report.mean, report.variance, report.imag_residual

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 5000])
    def test_series_is_bitwise_its_two_evaluation_form(self, n):
        # The Poisson means span the large-spread benchmark's moment points
        # (0.1 to 988 at n up to 5000, where the series is often over its bound).
        models = [Poisson(theta) for theta in (0.1, 0.3, 0.5, 1.0, 2.0, 7.3, 31.4, 158.0,
                                               500.0, 988.0, 1e4)]
        models += [Binomial(n * groups, prob) for groups in (1, 3, 40, 2000)
                   for prob in (0.0, 0.01, 0.37, 1.0)]
        models += [NegativeBinomial(size, prob) for size in (0.3, 5.0, 200.0)
                   for prob in (0.05, 0.6, 1.0)]
        recip = np.conj(roots_of_unity(n).omega_pow[1:])
        refused = 0
        for model in models:
            assert (model.pgf_derivative(recip).tobytes()
                    == self.pgf_derivative_as_written(model, recip).tobytes()), model
            want = self.bytes_or_error(self.two_evaluation_series, model, n)
            assert self.bytes_or_error(self.series_fields, model, n) == want, (model, n)
            refused += _moments_series(model, RoundingScheme(n)).error_bound > SERIES_RTOL
        if n >= 1000:
            assert refused > 0

    @pytest.mark.parametrize("model", [Poisson(1e5), Binomial(10**8, 0.3)],
                             ids=["poisson", "binomial"])
    def test_table_variance_keeps_precision_at_large_means(self, model):
        # E[U**2] - E[U]**2 cancels here: 1.9e-9 and 1.5e-5 relative off.
        table = rounded_pmf(model, RoundingScheme(1), 1e-14)
        assert table.variance() == pytest.approx(model.variance(), rel=1e-10)

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


def lattice_moments_mpmath(model, n: int) -> tuple[float, float]:
    """E(U) and Var(U) by a 30-digit sum over the latent pmf, built by its
    recurrence from P(Y = 0) until the terms past the mean fall below 1e-45
    (or the support ends), with U = n*[Y/n] rounded half up on integers."""
    with mp.workdps(30):
        if isinstance(model, Poisson):
            theta = mp.mpf(model.theta)
            p, step, top = mp.exp(-theta), (lambda k: theta / (k + 1)), None
        elif isinstance(model, Binomial):
            trials, prob = model.trials, mp.mpf(model.prob)
            if model.prob in (0.0, 1.0):
                y = 0 if model.prob == 0.0 else trials
                u = n * round_count(y, n)
                return float(u), 0.0
            p, top = (1 - prob) ** trials, trials
            step = lambda k: (trials - k) * prob / ((k + 1) * (1 - prob))  # noqa: E731
        else:
            size, prob = mp.mpf(model.size), mp.mpf(model.prob)
            p, step, top = prob ** size, (lambda k: (k + size) * (1 - prob) / (k + 1)), None
        mass, k, mean = {}, 0, model.mean()
        while True:
            v = round_count(k, n)
            mass[v] = mass.get(v, 0) + p
            if (top is not None and k == top) or (k > mean and p < mp.mpf("1e-45")):
                break
            p, k = p * step(k), k + 1
        first = mp.fsum(v * n * q for v, q in mass.items())
        second = mp.fsum((v * n - first) ** 2 * q for v, q in mass.items())
        return float(first), float(second)


def relative_error(value: float, ref: float) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


class TestRoutedMoments:
    """The moments by the cheaper exact route, and the series' error bound."""

    @staticmethod
    def check(model, n):
        """The routed moments within ``SERIES_RTOL`` of the 30-digit sum, and
        the raw series' error within its bound."""
        ref_mean, ref_var = lattice_moments_mpmath(model, n)
        routed = rounded_moments_series(model, RoundingScheme(n))
        assert relative_error(routed.mean, ref_mean) <= SERIES_RTOL, (model, n, routed)
        assert relative_error(routed.variance, ref_var) <= SERIES_RTOL, (model, n, routed)
        assert routed.variance >= 0.0
        if routed.route == "series":
            assert routed.error_bound <= SERIES_RTOL
        else:
            assert routed.route == "table" and math.isnan(routed.error_bound)
        raw = _moments_series(model, RoundingScheme(n))
        actual = max(abs(raw.mean - ref_mean) / max(1.0, abs(raw.mean)),
                     abs(raw.variance - ref_var) / max(1.0, abs(raw.variance)))
        assert actual <= raw.error_bound, (model, n, actual, raw.error_bound)
        return routed, raw

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(-2.0, 4.0), st.floats(0.0, math.log10(5000.0)))
    def test_poisson_routes_match_mpmath_property(self, log_theta, log_n):
        self.check(Poisson(10.0**log_theta), int(round(10.0**log_n)))

    @pytest.mark.parametrize("model, n", [
        (Binomial(40, 0.37), 5), (Binomial(500, 0.5), 20), (Binomial(20000, 0.5), 100),
        (Binomial(600, 0.9), 300), (Binomial(3000, 0.01), 2000),
        (NegativeBinomial(2.0, 0.6), 50), (NegativeBinomial(0.3, 0.05), 100),
        (NegativeBinomial(0.5, 0.01), 500), (NegativeBinomial(200.0, 0.6), 7),
        (NegativeBinomial(5.0, 0.05), 1000),
    ], ids=repr)
    def test_binomial_and_negative_binomial_routes_match_mpmath(self, model, n):
        self.check(model, n)

    @pytest.mark.parametrize("model, n", [(Binomial(3000, 0.01), 2000), (Poisson(5.0), 500)],
                             ids=repr)
    def test_degenerate_totals_are_exactly_zero(self, model, n):
        # The series gave a variance of 7.83e-8 and a mean of -6.2e-15 with a
        # variance of 5.46e-10; U is 0 up to probabilities far below 1e-100.
        report = rounded_moments_series(model, RoundingScheme(n))
        assert (report.mean, report.variance) == (0.0, 0.0)

    def test_negative_binomial_mean_at_large_n(self):
        # The series' mean was 2.8e-8 relative off.
        routed, raw = self.check(NegativeBinomial(5.0, 0.05), 1000)
        ref_mean, _ = lattice_moments_mpmath(NegativeBinomial(5.0, 0.05), 1000)
        assert abs(raw.mean - ref_mean) > 1e-8 * ref_mean
        assert routed.route == "table"

    @pytest.mark.parametrize("design", [ExcessDeathsDesign(365, 365, 3.0, 1.0),
                                        ExcessDeathsDesign(1000, 500, 40.0, 0.0),
                                        ExcessDeathsDesign(100, 100, 0.097, 0.0)], ids=repr)
    def test_excess_designs_match_the_table(self, design):
        # The series gave a variance of 1.09e-9 at the first design and
        # raised "negative variance" at the other two.
        moments = excess_moments(design)
        ratio = design.n2 / design.n1
        post = rounded_pmf(Poisson(design.theta + design.beta), RoundingScheme(design.n2), 1e-15)
        pre = rounded_pmf(Poisson(design.theta), RoundingScheme(design.n1), 1e-15)
        assert moments.mean_rounded == pytest.approx(post.mean() - ratio * pre.mean(), abs=1e-12)
        assert moments.var_rounded == pytest.approx(
            post.variance() + ratio**2 * pre.variance(), abs=1e-12)
        if design.beta == 0.0:
            assert moments.var_rounded == 0.0

    @pytest.mark.parametrize("theta", [0.1, 0.63, 3.98, 25.1, 158.0, 1000.0])
    def test_large_group_counts_take_the_table(self, theta):
        # The large-spread benchmark's moment points at n = 5000, where the
        # series costs 5000 roots and is often over its bound.
        routed, raw = self.check(Poisson(theta), 5000)
        assert routed.route == "table"
        assert routed.imag_residual == 0.0

    def test_small_group_counts_take_the_series(self):
        for theta in (0.1, 2.0, 30.0, 1e4):
            for n in (1, 2, 3, 10, 50):
                report = rounded_moments_series(Poisson(theta), RoundingScheme(n))
                assert report.route == "series", (theta, n)
                assert report.mean == _moments_series(Poisson(theta), RoundingScheme(n)).mean

    def test_series_over_its_bound_falls_back_to_the_table(self):
        # n = 365 is below the cost switch, but the series is over its bound.
        raw = _moments_series(Poisson(3.0), RoundingScheme(365))
        assert raw.error_bound > SERIES_RTOL
        routed = rounded_moments_series(Poisson(3.0), RoundingScheme(365))
        assert routed.route == "table" and (routed.mean, routed.variance) == (0.0, 0.0)

    def test_a_negative_variance_within_the_bound_becomes_zero(self):
        raw = _moments_series(Poisson(0.097), RoundingScheme(100))
        assert raw.variance < 0.0 and raw.error_bound <= SERIES_RTOL
        report = rounded_moments_series(Poisson(0.097), RoundingScheme(100))
        assert report.route == "series" and report.variance == 0.0
        assert report.mean == raw.mean

    def test_acceptance_refuses_beyond_the_bound(self):
        accepted = _accepted(MomentReport(1.0, -1e-10, 0.0, "series", 2e-10))
        assert accepted.variance == 0.0 and accepted.mean == 1.0
        assert _accepted(MomentReport(1.0, -1e-9, 0.0, "series", 2e-10)) is None
        assert _accepted(MomentReport(1.0, 2.0, 0.0, "series", 2e-9)) is None
        assert _accepted(MomentReport(1.0, 2.0, 0.0, "series", math.nan)) is None

    def test_report_defaults_are_a_table(self):
        report = MomentReport(1.0, 2.0, 0.0)
        assert report.route == "table" and math.isnan(report.error_bound)

    # The table wins from n = fixed + per_entry * (its estimated entries):
    # 448 + 8 * 2.04 for Poisson(1), 448 + 8 * 28.6 for Poisson(1e6), 32 + 5 *
    # 6.19 and 32 + 5 * 39.8 for the binomials, 416 + 6 * 10.3 and 416 + 6 *
    # 117.2 for the negative binomials, the estimate falling as n grows.
    @pytest.mark.parametrize("model, switch", [
        (Poisson(1.0), 465), (Poisson(1e6), 678), (Binomial(1000, 0.5), 64),
        (Binomial(10**6, 0.5), 232), (NegativeBinomial(5.0, 0.01), 478),
        (NegativeBinomial(50.0, 0.001), 1120)], ids=repr)
    def test_route_switches_at_the_tables_cost_in_roots(self, model, switch):
        for n, table in ((switch - 1, False), (switch, True)):
            assert _table_is_cheaper(model, n, TAIL_EPS / n**2) == table, n

    def test_a_long_table_keeps_the_series(self):
        # An estimated 184, 93 and 93 entries at n = 1000: the binomial table's
        # entries cost fewer roots.
        tail_eps = TAIL_EPS / 1e6
        assert not _table_is_cheaper(Poisson(1e8), 1000, tail_eps)
        assert not _table_is_cheaper(Poisson(2.5e7), 1000, tail_eps)
        assert _table_is_cheaper(Binomial(10**8, 0.5), 1000, tail_eps)


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
