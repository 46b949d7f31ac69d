"""Inference for non-negative counts observed through a rounded average.

A count total Y over n measurements that is only reported as the
integer-rounded average [Y/n] can be partially recovered as
U = n*[Y/n], which lives on the lattice {0, n, 2n, ...}.  This package
provides the exact distribution of U, its moments, likelihood-based
parameter estimation from a single rounded observation, significance
analysis for tests that ignore or respect the rounding, excess-count
contrasts between two rounded periods, and a reproducible Monte Carlo
engine plus a CLI for regenerating all reference tables.
"""

from .applications import (
    BinnedTestResult,
    ExcessDeathsDesign,
    ExcessMoments,
    SignificanceCurve,
    binned_binomial_test,
    excess_moments,
    excess_point_estimates,
    true_significance,
)
from .distributions import Binomial, CountDistribution, NegativeBinomial, Poisson
from .estimation import (
    Estimate,
    MonteCarloResult,
    MseRatioCurve,
    NoMaximumError,
    exact_mse,
    expected_value_exact,
    monte_carlo_mse,
    mse_ratio_curve,
    numeric_mle,
    poisson_mle_closed,
)
from .rounding import (
    HALF_EVEN,
    HALF_UP,
    MomentReport,
    NearRootOfUnityError,
    NumericalInconsistencyError,
    RoundedPmf,
    RootsOfUnityTable,
    RoundingScheme,
    asymptotic_mle_mean,
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
from .sampling import sample_tally
from .simulate import ExperimentConfig, ResultRow, ResultTable, run_mse_experiment

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "BinnedTestResult",
    "CountDistribution",
    "Estimate",
    "ExcessDeathsDesign",
    "ExcessMoments",
    "ExperimentConfig",
    "HALF_EVEN",
    "HALF_UP",
    "MomentReport",
    "MonteCarloResult",
    "MseRatioCurve",
    "NearRootOfUnityError",
    "NegativeBinomial",
    "NoMaximumError",
    "NumericalInconsistencyError",
    "Poisson",
    "ResultRow",
    "ResultTable",
    "RoundedPmf",
    "RootsOfUnityTable",
    "RoundingScheme",
    "SignificanceCurve",
    "asymptotic_mle_mean",
    "binned_binomial_test",
    "exact_mse",
    "excess_moments",
    "excess_point_estimates",
    "expected_value_exact",
    "monte_carlo_mse",
    "mse_ratio_curve",
    "numeric_mle",
    "poisson_mle_closed",
    "round_count",
    "rounded_logpmf",
    "rounded_moments_binomial",
    "rounded_moments_poisson",
    "rounded_moments_series",
    "rounded_pgf",
    "rounded_pmf",
    "roots_of_unity",
    "run_mse_experiment",
    "sample_tally",
    "sample_u",
    "support_block",
    "true_significance",
    "__version__",
]
