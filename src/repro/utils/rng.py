"""Deterministic random-number-generator utilities.

Every stochastic component in the library (graph generators, feature
synthesis, weight init, permutation draws) takes an explicit seed or
``numpy.random.Generator`` so that experiments are exactly reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rng_from_seed"]


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a ``Generator`` for ``seed``; pass through existing generators.

    ``None`` yields a generator seeded from OS entropy, which is only
    appropriate for exploratory use, never inside tests or benchmarks.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
