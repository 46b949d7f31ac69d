"""Deterministic random-number substreams for replicated experiments.

A Monte Carlo cell splits its replicates into fixed-size blocks, and each
block draws from its own generator derived from (seed, key) through
numpy's SeedSequence spawn keys.  Results are therefore reproducible
regardless of the order in which blocks are evaluated or how they are
distributed across workers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rng_substream"]


def rng_substream(seed: int, key) -> np.random.Generator:
    """Generator for one block of replicates, derived from the experiment
    seed and a block index (or tuple of indices).  The same (seed, key)
    always yields the same stream."""
    if np.ndim(key) == 0:
        key = (int(key),)
    else:
        key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
