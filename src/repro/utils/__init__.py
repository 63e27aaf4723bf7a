"""Shared utilities: seeded RNG handling and the text-table formatter."""

from repro.utils.rng import rng_from_seed
from repro.utils.format import ascii_table

__all__ = ["rng_from_seed", "ascii_table"]
