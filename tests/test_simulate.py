import io

import numpy as np
import pytest
from scipy import stats

from roundedcounts import (
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
    rng_substream,
    round_count,
    run_mse_experiment,
    sample_u,
    true_significance,
)
from roundedcounts import tableio
from roundedcounts.estimation import MC_BLOCK


def block_sample(model, seed, blocks, key=()):
    """Latent counts drawn MC_BLOCK at a time, block b from (seed, key + (b,))."""
    return np.concatenate([model.sample(rng_substream(seed, key + (b,)), size=MC_BLOCK)
                           for b in range(blocks)])


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = rng_substream(123, 7).random(10)
        b = rng_substream(123, 7).random(10)
        assert np.array_equal(a, b)

    def test_tuple_keys(self):
        a = rng_substream(123, (2, 5)).random(4)
        b = rng_substream(123, (2, 5)).random(4)
        assert np.array_equal(a, b)
        c = rng_substream(123, (5, 2)).random(4)
        assert not np.array_equal(a, c)

    def test_distinct_streams_across_indices(self):
        firsts = {rng_substream(9, i).integers(0, 2**63) for i in range(10_000)}
        assert len(firsts) == 10_000

    def test_order_independent_assembly(self):
        def block(b):
            return Poisson(4.0).sample(rng_substream(44, (int(b),)), size=MC_BLOCK)

        idx = np.arange(20)
        in_order = [block(b) for b in idx]
        rng = np.random.default_rng(0)
        shuffled = idx.copy()
        rng.shuffle(shuffled)
        out_of_order = {int(b): block(b) for b in shuffled}
        assert all(np.array_equal(in_order[b], out_of_order[b]) for b in idx)


class TestSampleCount:
    def test_poisson_matches_pmf(self):
        draws = block_sample(Poisson(8.0), 5, 25)
        ks = np.arange(0, 30)
        emp = np.bincount(draws, minlength=30)[:30] / len(draws)
        ref = stats.poisson.pmf(ks, 8.0)
        sigma = np.sqrt(ref * (1 - ref) / len(draws))
        assert np.all(np.abs(emp - ref) < 5 * sigma + 1e-9)

    def test_large_rate_path(self):
        draws = block_sample(Poisson(120.0), 6, 5)
        assert abs(draws.mean() - 120.0) < 5 * np.sqrt(120.0 / len(draws))
        assert abs(draws.var() / 120.0 - 1.0) < 0.05

    def test_other_families(self):
        b = block_sample(Binomial(10, 0.4), 1, 1, key=(0,))
        assert b.min() >= 0 and b.max() <= 10
        nb = block_sample(NegativeBinomial(5, 0.6), 1, 1, key=(1,))
        assert nb.min() >= 0


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
        u = sample_u(Poisson(4.0), RoundingScheme(1), rng_substream(99, (0, 0, 0)), size=1)[0]
        assert table.rows[0].mse == (u - 4.0) ** 2

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
    (lambda: binned_binomial_test(30, 100, 3, 0.0, 0.05), "phi0"),
    (lambda: binned_binomial_test(30, 100, 3, 1.0, 0.05), "phi0"),
    (_table_with_other_columns, "unexpected columns"),
], ids=["round_count-tie-rule", "monte-carlo-zero-reps", "binned-test-phi0-0",
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
}


@pytest.mark.parametrize("name", list(_COUNT_CALLS))
def test_non_integer_counts_are_refused(name):
    call = _COUNT_CALLS[name]
    with pytest.raises(ValueError, match="must be a positive integer, got [0-9.]*5"):
        call(lambda count: count + 0.5)
    assert call(float) == call(int)
