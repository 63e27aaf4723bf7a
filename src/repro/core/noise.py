"""SpMM performance-variability model (the effect Sec. 5.2 mitigates).

On larger datasets at modest GPU counts the paper observes epoch-to-epoch
variability in the forward SpMM which ripples into the subsequent all-reduce
as straggler wait.  The mechanism is working-set dependent (TLB/cache
pressure on large per-call shards), so we model it as a multiplicative
slowdown drawn per kernel call whose magnitude grows with the call's local
nonzero count beyond a threshold.  Blocked aggregation (Sec. 5.2) splits the
call into row blocks below the threshold, which is exactly how it suppresses
the variability here — same cause and effect as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import rng_from_seed

__all__ = ["SpmmNoise"]


@dataclass
class SpmmNoise:
    """Stateful per-call slowdown sampler.

    ``threshold_nnz`` — calls at or below this many local nonzeros are
    deterministic.  ``sigma`` — scale of the half-normal slowdown for calls
    just above the threshold; grows logarithmically with size beyond it.
    """

    threshold_nnz: float = 8e6
    sigma: float = 0.35
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.threshold_nnz <= 0:
            raise ValueError("threshold_nnz must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._rng = rng_from_seed(self.seed)

    def multiplier(self, nnz: float) -> float:
        """Slowdown factor >= 1 for a kernel call touching ``nnz`` nonzeros."""
        if nnz <= self.threshold_nnz:
            return 1.0
        scale = self.sigma * (1.0 + np.log2(nnz / self.threshold_nnz))
        return 1.0 + abs(float(self._rng.normal(0.0, scale)))

    def multipliers(self, nnz) -> np.ndarray:
        """Per-rank slowdown vector for one batched kernel step.

        Draws only for the calls above the threshold, in rank order, through
        a single vectorized ``normal`` call — the generator fills array
        draws variate-by-variate, so the RNG stream (and hence every
        multiplier) is bitwise identical to scalar :meth:`multiplier` calls
        in the same order.  This is what keeps rank-batched noisy runs
        clock-exact with the per-rank reference (``tests/oracle.py``).
        """
        nnz = np.asarray(nnz, dtype=np.float64)
        out = np.ones(nnz.shape[0], dtype=np.float64)
        hot = nnz > self.threshold_nnz
        if hot.any():
            scale = self.sigma * (1.0 + np.log2(nnz[hot] / self.threshold_nnz))
            out[hot] = 1.0 + np.abs(self._rng.normal(0.0, scale))
        return out
