import io

import numpy as np
import pytest
from scipy import stats

from roundedcounts import (
    HALF_EVEN,
    HALF_UP,
    Binomial,
    ExperimentConfig,
    NegativeBinomial,
    Poisson,
    ResultTable,
    RoundingScheme,
    binned_binomial_test,
    monte_carlo_mse,
    mse_ratio_curve,
    poisson_mle_closed,
    round_count,
    rounded_pmf,
    run_mse_experiment,
    sample_tally,
    sample_u,
    true_significance,
)
from roundedcounts import sampling, tableio


class TestSampleCount:
    def test_poisson_matches_pmf(self):
        draws = Poisson(8.0).sample(np.random.default_rng(5), size=102_400)
        ks = np.arange(0, 30)
        emp = np.bincount(draws, minlength=30)[:30] / len(draws)
        ref = stats.poisson.pmf(ks, 8.0)
        sigma = np.sqrt(ref * (1 - ref) / len(draws))
        assert np.all(np.abs(emp - ref) < 5 * sigma + 1e-9)

    def test_large_rate_path(self):
        draws = Poisson(120.0).sample(np.random.default_rng(6), size=20_480)
        assert abs(draws.mean() - 120.0) < 5 * np.sqrt(120.0 / len(draws))
        assert abs(draws.var() / 120.0 - 1.0) < 0.05

    def test_other_families(self):
        b = Binomial(10, 0.4).sample(np.random.default_rng(1), size=4096)
        assert b.min() >= 0 and b.max() <= 10
        nb = NegativeBinomial(5, 0.6).sample(np.random.default_rng(2), size=4096)
        assert nb.min() >= 0


def pooled_bins(expected, min_expected=10.0):
    """Group consecutive entries of ``expected`` so that every group holds at
    least ``min_expected``; the last group takes any remainder.  Returns the
    index where each group starts."""
    starts, acc = [0], 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= min_expected and i + 1 < len(expected):
            starts.append(i + 1)
            acc = 0.0
    if len(starts) > 1 and expected[starts[-1]:].sum() < min_expected:
        starts.pop()
    return np.array(starts)


def tally_on(us, counts, grid):
    """The counts of a tally laid out on the sorted lattice points ``grid``."""
    out = np.zeros(len(grid), dtype=np.int64)
    out[np.searchsorted(grid, us)] = counts
    return out


# The tally drawn from the table against the rounded latent draws of sample_u:
# every family, both tie rules (ties need even n) and a Poisson mean above 3e5.
_GOF_CASES = [
    (Poisson(7.3), 3, HALF_UP),
    (Poisson(7.3), 4, HALF_EVEN),
    (Binomial(60, 0.3), 4, HALF_UP),
    (Binomial(60, 0.3), 4, HALF_EVEN),
    (NegativeBinomial(3.0, 0.2), 6, HALF_UP),
    (NegativeBinomial(3.0, 0.2), 6, HALF_EVEN),
    (Poisson(4.0e5), 50, HALF_UP),
    (Poisson(4.0e5), 50, HALF_EVEN),
]


class TestSampleTally:
    @pytest.mark.parametrize("case", range(len(_GOF_CASES)))
    def test_table_tally_matches_latent_draws(self, case):
        model, n, tie_rule = _GOF_CASES[case]
        scheme, reps = RoundingScheme(n, tie_rule), 40_000
        table = rounded_pmf(model, scheme)
        us, counts = sampling._table_tally(model, scheme, table, reps,
                                           np.random.default_rng(100 + case))
        drawn_us, drawn_counts = np.unique(
            sample_u(model, scheme, np.random.default_rng(200 + case), size=reps),
            return_counts=True)
        assert counts.sum() == reps and np.all(counts > 0) and np.all(np.diff(us) > 0)
        grid = np.union1d(us, drawn_us)
        both = np.stack([tally_on(us, counts, grid), tally_on(drawn_us, drawn_counts, grid)])
        starts = pooled_bins(both.sum(axis=0) / 2.0)
        assert len(starts) >= 5
        pooled = np.add.reduceat(both, starts, axis=1)
        _, p_value, _, _ = stats.chi2_contingency(pooled)
        assert p_value > 1e-4, (model, n, tie_rule, p_value)

    @pytest.mark.parametrize("model, n, tie_rule", [
        (Poisson(30.0), 3, HALF_UP),
        (Binomial(40, 0.5), 2, HALF_EVEN),
        (Binomial(13, 0.7), 2, HALF_UP),
        (NegativeBinomial(2.0, 0.3), 4, HALF_EVEN),
    ])
    def test_outer_bins_follow_the_latent_tails(self, model, n, tie_rule):
        # At tail_eps = 0.05 each outer bin holds up to 5 % of the mass, so
        # many draws take the tail inversion; their totals must follow
        # P(U = u) beyond the table, read off a table that covers the tails.
        scheme, reps = RoundingScheme(n, tie_rule), 40_000
        wide, full = rounded_pmf(model, scheme, 0.05), rounded_pmf(model, scheme, 1e-15)
        assert wide.mass_below > 1e-3 or wide.mass_above > 1e-3
        us, counts = sampling._table_tally(model, scheme, wide, reps, np.random.default_rng(7))
        first, last = wide.support[0], wide.support[-1]
        for drawn_side, beyond, mass in ((us < first, full.support < first, wide.mass_below),
                                         (us > last, full.support > last, wide.mass_above)):
            drawn = int(counts[drawn_side].sum())
            # The outer bin's count is binomial(reps, mass).
            assert abs(drawn - reps * mass) <= 5 * np.sqrt(reps * mass * (1 - mass))
            if drawn < 50:
                continue
            grid = full.support[beyond]
            assert np.isin(us[drawn_side], grid).all()
            observed = tally_on(us[drawn_side], counts[drawn_side], grid)
            expected = drawn * np.array([full.prob(u) for u in grid.tolist()]) / mass
            starts = pooled_bins(expected)
            if len(starts) > 1:  # else every draw lands on the one total beyond the table
                obs, exp = np.add.reduceat(observed, starts), np.add.reduceat(expected, starts)
                assert stats.chisquare(obs, exp * drawn / exp.sum()).pvalue > 1e-4

    @pytest.mark.parametrize("model, n, tie_rule", [
        (Poisson(7.3), 1, HALF_UP),
        (Binomial(60, 0.3), 4, HALF_EVEN),
        (NegativeBinomial(3.0, 0.2), 6, HALF_UP),
    ])
    def test_tally_draws_from_the_table_only_up_to_reps_entries(self, model, n, tie_rule):
        scheme = RoundingScheme(n, tie_rule)
        table = rounded_pmf(model, scheme)
        entries = len(table.probs)
        for reps in (entries, 10 * entries):
            drawn = sample_tally(model, scheme, reps, np.random.default_rng(reps))
            ref = sampling._table_tally(model, scheme, table, reps, np.random.default_rng(reps))
            assert [a.tolist() for a in drawn] == [a.tolist() for a in ref]
        for reps in (1, entries - 1):
            drawn = sample_tally(model, scheme, reps, np.random.default_rng(reps))
            ref = np.unique(sample_u(model, scheme, np.random.default_rng(reps), size=reps),
                            return_counts=True)
            assert [a.tolist() for a in drawn] == [a.tolist() for a in ref]

    def test_tally_over_a_large_table_builds_none(self, monkeypatch):
        # Poisson(1e8) at n = 1 has a table of about 1.4e5 entries; 400
        # latent draws cost far less than the table.
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(sampling, "_table_over", refuse)
        us, counts = sample_tally(Poisson(1e8), RoundingScheme(1), 400, np.random.default_rng(3))
        assert counts.sum() == 400 and np.all(np.diff(us) > 0)
        assert abs(np.repeat(us, counts).mean() - 1e8) < 5 * np.sqrt(1e8 / 400)

    def test_table_bins_below_the_top_one_may_exceed_one(self):
        # numpy's multinomial refuses bins before the last that sum past
        # 1 + 1e-12.  The binomial tails can take a table there: this one
        # sums to 1 + 2.8e-12 without its upper bin.  The rest are random
        # models of all three families, up to 1e8 binomial trials.
        rng = np.random.default_rng(2024)
        cases = [(Binomial(81286789, 0.0025139240152138274), RoundingScheme(10, HALF_EVEN))]
        for i in range(60):
            model = (Poisson(float(10 ** rng.uniform(-2, 9))),
                     Binomial(int(10 ** rng.uniform(0, 8)), float(rng.uniform(0.001, 0.999))),
                     NegativeBinomial(float(10 ** rng.uniform(-1, 4)),
                                      float(rng.uniform(0.01, 0.99))))[i % 3]
            cases.append((model, RoundingScheme(int(rng.choice([1, 2, 3, 10, 100, 1000])),
                                                (HALF_UP, HALF_EVEN)[int(rng.integers(2))])))
        for model, scheme in cases:
            table = rounded_pmf(model, scheme)
            us, counts = sampling._table_tally(model, scheme, table, 1000, rng)
            assert counts.sum() == 1000, (model, scheme)

    @pytest.mark.parametrize("upper", [False, True])
    def test_tail_draw_ends_at_both_ends_of_its_uniform(self, upper):
        # rng.random() = 0 gives w = mass, the first latent value beyond the
        # table; the largest double below 1 gives w = mass * 2**-53, far
        # out, and the search still stops.
        class FixedRng:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        model = Poisson(30.0)
        for n in (3, 1):
            scheme = RoundingScheme(n)
            table = rounded_pmf(model, scheme, 0.05)
            first = sampling._tail_draw(model, scheme, table, upper, FixedRng(0.0))
            far = sampling._tail_draw(model, scheme, table, upper, FixedRng(1.0 - 2.0**-53))
            step = n if upper else -n
            assert first == (table.support[-1] if upper else table.support[0]) + step
            assert (far - first) * step > 0
        # At n = 1, the last case, the totals are the latent counts themselves.
        w = (table.mass_above if upper else table.mass_below) * 2.0**-53
        if upper:
            assert model.sf(far) < w <= model.sf(far - 1)
        else:
            assert model.cdf(far - 1) < w <= model.cdf(far)


class TestExperiment:
    def config(self, **kw):
        base = dict(seed=99, family="poisson", param_grid=(1.0, 2.5), n_list=(1, 3),
                    reps=400, estimators=("u", "closed-mle"))
        base.update(kw)
        return ExperimentConfig(**base)

    def test_bitwise_reproducible_serialization(self):
        out1, out2 = io.StringIO(), io.StringIO()
        run_mse_experiment(self.config()).to_csv(out1, {"seed": 99})
        run_mse_experiment(self.config()).to_csv(out2, {"seed": 99})
        assert out1.getvalue() == out2.getvalue()

    def test_rows_cover_grid(self):
        table = run_mse_experiment(self.config())
        assert len(table.rows) == 2 * 2 * 2
        assert {(r.param, r.n) for r in table.rows} == {(1.0, 1), (1.0, 3), (2.5, 1), (2.5, 3)}
        for row in table.rows:
            assert row.mse >= 0.0
            assert row.mc_standard_error >= 0.0
            assert row.error is None

    def test_single_replicate_single_cell(self):
        config = self.config(param_grid=(4.0,), n_list=(1,), reps=1, estimators=("u",))
        table = run_mse_experiment(config)
        model, scheme = Poisson(4.0), RoundingScheme(1)
        rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0, 0)))
        us, counts = sample_tally(model, scheme, 1, rng)
        assert counts.tolist() == [1]
        assert table.rows[0].mse == (us[0] - 4.0) ** 2

    def test_cell_rows_do_not_depend_on_cell_order(self):
        config = self.config()
        table = run_mse_experiment(config)
        for j, param in reversed(list(enumerate(config.param_grid))):
            for i, n in reversed(list(enumerate(config.n_list))):
                alone = monte_carlo_mse(config.model_for(param, n), RoundingScheme(n),
                                        config.estimators, config.reps, config.seed,
                                        stream_key=(j, i))
                rows = [r for r in table.rows if (r.param, r.n) == (param, n)]
                assert [(r.estimator, r.mse, r.mc_standard_error, r.failures) for r in rows] == [
                    (a.estimator, a.mse, a.mc_standard_error, a.failures) for a in alone]

    def test_stream_keys_give_distinct_draws(self):
        model, scheme = Poisson(40.0), RoundingScheme(2)

        def cell(key):
            res = monte_carlo_mse(model, scheme, ["u"], 400, seed=9, stream_key=key)[0]
            return res.mse, res.mc_standard_error

        assert cell((2, 5)) == cell((2, 5)) != cell((5, 2))
        assert cell(7) == cell((7,))
        assert len({cell((j,)) for j in range(100)}) == 100

    def test_mse_close_to_exact(self):
        from roundedcounts import RoundingScheme, exact_mse

        config = self.config(param_grid=(1.0,), n_list=(2,), reps=50_000, estimators=("u",))
        row = run_mse_experiment(config).rows[0]
        exact = exact_mse(float, Poisson(2.0), RoundingScheme(2), 2.0)
        assert abs(row.mse - exact) < 4 * row.mc_standard_error

    def test_csv_round_trip(self):
        table = run_mse_experiment(self.config())
        buf = io.StringIO()
        table.to_csv(buf, {"seed": 99})
        parsed = ResultTable.from_csv(io.StringIO(buf.getvalue()))
        assert parsed.rows == table.rows

    def test_binomial_family(self):
        config = self.config(family="binomial", param_grid=(0.4,), n_list=(2,),
                             reps=200, estimators=("u", "numeric-mle"),
                             trials_per_measurement=5)
        table = run_mse_experiment(config)
        assert all(row.error is None for row in table.rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.config(reps=0)
        with pytest.raises(ValueError):
            self.config(family="binomial")  # missing trials_per_measurement
        with pytest.raises(ValueError):
            self.config(param_grid=())
        with pytest.raises(ValueError):
            self.config(family="lognormal")


def _table_with_other_columns():
    buf = io.StringIO()
    tableio.write_csv(buf, {}, ["family", "mse"], [["poisson", 1.0]])
    return ResultTable.from_csv(io.StringIO(buf.getvalue()))


@pytest.mark.parametrize("call, match", [
    (lambda: round_count(5, 2, "bogus"), "tie_rule"),
    (lambda: monte_carlo_mse(Poisson(1.0), RoundingScheme(2), ["u"], 0, seed=1), "reps"),
    (lambda: monte_carlo_mse(Poisson(1.0), RoundingScheme(2), ["u"], 2.5, seed=1), "reps"),
    (lambda: ExperimentConfig(seed=1, param_grid=(1.0,), n_list=(2,), reps=2.5), "reps"),
    (lambda: binned_binomial_test(30, 100, 3, 0.0, 0.05), "phi0"),
    (lambda: binned_binomial_test(30, 100, 3, 1.0, 0.05), "phi0"),
    (_table_with_other_columns, "unexpected columns"),
], ids=["round_count-tie-rule", "monte-carlo-zero-reps", "monte-carlo-fractional-reps",
         "experiment-fractional-reps", "binned-test-phi0-0",
        "binned-test-phi0-1", "result-table-columns"])
def test_library_refuses_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# Each count is given as a float; ``count(2.5)`` must be refused, while
# ``count(2.0)`` must give what ``count(2)`` gives (floats compared with ==).
_COUNT_CALLS = {
    "true-significance-n": lambda c: true_significance(500, c(31), [0.2, 0.5], 0.05,
                                                       "misspecified-u").true_level.tolist(),
    "true-significance-m": lambda c: true_significance(c(500), 31, [0.2, 0.5], 0.05,
                                                       "binned-u").true_level.tolist(),
    "binned-test-m": lambda c: binned_binomial_test(0, c(40), 1, 0.3, 0.05),
    "binned-test-n": lambda c: binned_binomial_test(0, 40, c(2), 0.3, 0.05),
    "poisson-mle-closed": lambda c: poisson_mle_closed(4, c(2)),
    "mse-ratio-curve": lambda c: mse_ratio_curve("poisson", [2.0], [c(2)]).psi.tolist(),
    "experiment-config": lambda c: run_mse_experiment(ExperimentConfig(
        seed=3, param_grid=(1.0,), n_list=(c(2),), reps=50)).to_rows(),
    "experiment-config-reps": lambda c: run_mse_experiment(ExperimentConfig(
        seed=3, param_grid=(1.0,), n_list=(2,), reps=c(50))).to_rows(),
    "monte-carlo-reps": lambda c: [
        (r.mse, r.mc_standard_error, r.reps)
        for r in monte_carlo_mse(Poisson(2.0), RoundingScheme(2), ["u"], c(50), seed=3)],
}


@pytest.mark.parametrize("name", list(_COUNT_CALLS))
def test_non_integer_counts_are_refused(name):
    call = _COUNT_CALLS[name]
    with pytest.raises(ValueError, match="must be a positive integer, got [0-9.]*5"):
        call(lambda count: count + 0.5)
    assert call(float) == call(int)
