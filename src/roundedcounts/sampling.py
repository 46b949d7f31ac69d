"""The tally of U over the replicates of a Monte Carlo cell.

A cell uses its draws of U = n*[Y/n] only through how many replicates
landed on each lattice point, and that tally is exactly
multinomial(reps, P(U = u)).  ``sample_tally`` draws it the cheaper of two
exact ways, each costing about one unit of work per table entry or per
replicate.  With at least as many replicates as entries in the table of
U (``rounded_pmf``), it draws the tally in one multinomial over the table
with two extra bins, the mass below and above it, and resolves a count in
an outer bin by inverting the latent tail there: the end of the latent
support window on that side (``support_window``), at a uniform draw below
that bin's mass.  Otherwise it draws reps latent counts and rounds them
(``sample_u``).  The tally depends only on the generator it is given, so a
cell seeded from (seed, stream key) gives the same tally whatever other
cells run and in what order.
"""

from __future__ import annotations

import numpy as np

from .distributions import CountDistribution
from .rounding import (
    MAX_TABLE_ENTRIES,
    TAIL_EPS,
    RoundedPmf,
    RoundingScheme,
    _latent_window,
    _table_over,
    round_count,
    sample_u,
)

__all__ = ["sample_tally"]


def sample_tally(model: CountDistribution, scheme: RoundingScheme, reps: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The distinct totals among reps draws of U, sorted, and their counts.

    The table of U at the default ``TAIL_EPS`` is built only when it has at
    most reps entries (``_table_tally``), or when reps exceeds
    ``MAX_TABLE_ENTRIES``, so that a cell where both exceed it is refused
    with the table's ValueError before anything is drawn.  Otherwise reps
    latent counts are drawn and rounded.
    """
    y_lo, y_hi = window = _latent_window(model, TAIL_EPS)
    entries = (round_count(y_hi, scheme.n, scheme.tie_rule)
               - round_count(y_lo, scheme.n, scheme.tie_rule) + 1)
    if reps < entries and reps <= MAX_TABLE_ENTRIES:
        return np.unique(sample_u(model, scheme, rng, size=reps), return_counts=True)
    return _table_tally(model, scheme, _table_over(model, scheme, window), reps, rng)


def _table_tally(model: CountDistribution, scheme: RoundingScheme, table: RoundedPmf,
                 reps: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``sample_tally`` drawn from ``table``, the table of U at the scheme.

    The multinomial takes the table's probabilities as they are: numpy gives
    the last bin, the mass above the table, whatever remains.  Only where
    the tails' errors take the other bins past 1, which numpy refuses, are
    those bins scaled to sum to 1 (by 2.8e-12 for ``Binomial(81286789,
    0.0025139240152138274)`` at n = 10, half-even).
    """
    pvals = np.concatenate(([table.mass_below], table.probs, [table.mass_above]))
    pvals[:-1] /= max(pvals[:-1].sum(), 1.0)
    counts = rng.multinomial(reps, pvals)
    us, tally = table.support, counts[1:-1]
    if counts[0] or counts[-1]:
        outer = [_tail_draw(model, scheme, table, upper, rng)
                 for upper, count in ((False, counts[0]), (True, counts[-1])) for _ in range(count)]
        us, where = np.unique(np.concatenate((us, outer)), return_inverse=True)
        tally = np.bincount(where, np.concatenate((tally, np.ones(len(outer))))).astype(np.int64)
    drawn = np.flatnonzero(tally)
    return us[drawn], tally[drawn]


def _tail_draw(model: CountDistribution, scheme: RoundingScheme, table: RoundedPmf,
               upper: bool, rng: np.random.Generator) -> int:
    """One total U drawn beyond the table, above it if upper, else below it.

    With w uniform on (0, mass], 0 excluded, where mass is the table's mass
    on that side, the latent count is the end of ``model.support_window(w)``
    on that side: the smallest k with P(Y > k) < w above the table, or with
    P(Y <= k) >= w below it.  w > 0 makes the upper search stop, since the
    survival function never goes below 0.
    """
    w = (table.mass_above if upper else table.mass_below) * (1.0 - rng.random())
    y = model.support_window(w)[upper]
    return scheme.n * round_count(y, scheme.n, scheme.tie_rule)
