"""Seeded Monte Carlo experiment runner for estimator MSE comparisons.

An experiment draws the tally of ``reps`` rounded totals per (parameter,
group count) cell (``sample_tally``), evaluates the requested
estimators on the distinct totals drawn and reports each estimator's MSE
with its Monte Carlo standard error.  Each cell draws from one generator
seeded from (seed, cell indices), so an identical configuration always
reproduces the identical result table, byte for byte, and a cell's rows
do not depend on which other cells run or in what order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from .distributions import _positive_int, family_spec
from .estimation import monte_carlo_mse
from .rounding import HALF_UP, RoundingScheme
from . import tableio

__all__ = ["ExperimentConfig", "ResultRow", "ResultTable", "run_mse_experiment"]

_DEFAULT_ESTIMATORS = ("u", "closed-mle")


@dataclass(frozen=True)
class ExperimentConfig:
    """Specification of one MSE experiment.

    For the Poisson family ``param_grid`` holds per-measurement means, so a
    cell with parameter lam and group count n draws totals with mean n*lam
    and the estimators target that total mean.  For the success-probability
    families the grid holds probabilities; ``trials_per_measurement`` (m)
    sizes the binomial total at m*n trials and ``nb_size`` fixes the
    negative binomial shape.
    """

    seed: int
    family: str = "poisson"
    param_grid: tuple[float, ...] = ()
    n_list: tuple[int, ...] = ()
    reps: int = 50_000
    estimators: tuple[str, ...] = _DEFAULT_ESTIMATORS
    tie_rule: str = HALF_UP
    trials_per_measurement: int | None = None
    nb_size: float | None = None

    def __post_init__(self):
        _positive_int(self.reps, "reps")
        if not self.param_grid or not self.n_list:
            raise ValueError("param_grid and n_list must be non-empty")
        for n in self.n_list:
            _positive_int(n, "n")
        self._fixed()

    def _fixed(self):
        return family_spec(self.family).resolve(trials=self.trials_per_measurement,
                                                nb_size=self.nb_size)

    def model_for(self, param: float, n: int):
        return family_spec(self.family).make(param, self._fixed(), n)


@dataclass
class ResultRow:
    family: str
    param: float
    n: int
    estimator: str
    mse: float
    mc_standard_error: float
    reps: int
    seed: int
    failures: int = 0
    error: str | None = None


_COLUMNS = ["family", "param", "n", "estimator", "mse", "mc_standard_error",
            "reps", "seed", "failures", "error"]


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)

    columns = tuple(_COLUMNS)

    def to_rows(self):
        return [[getattr(row, col) for col in _COLUMNS] for row in self.rows]

    def to_csv(self, stream: io.TextIOBase, config: dict | None = None) -> None:
        tableio.write_csv(stream, config or {}, list(_COLUMNS), self.to_rows())

    @classmethod
    def from_csv(cls, stream: io.TextIOBase) -> "ResultTable":
        _, columns, raw = tableio.read_csv(stream)
        if list(columns) != _COLUMNS:
            raise ValueError(f"unexpected columns {columns}")
        return cls(rows=[ResultRow(**dict(zip(_COLUMNS, row))) for row in raw])


def run_mse_experiment(config: ExperimentConfig) -> ResultTable:
    """Run every (parameter, group count) cell of the experiment.

    The MSE target in each cell is the model's own parameter: the total
    mean n*lam for Poisson, the success probability otherwise.
    """
    table = ResultTable()
    for j, param in enumerate(config.param_grid):
        for i, n in enumerate(config.n_list):
            model = config.model_for(float(param), int(n))
            scheme = RoundingScheme(int(n), config.tie_rule)
            cell = monte_carlo_mse(model, scheme, config.estimators, config.reps,
                                   config.seed, stream_key=(j, i))
            table.rows.extend(ResultRow(family=config.family, param=float(param), n=int(n),
                                        seed=int(config.seed), **vars(res)) for res in cell)
    return table
