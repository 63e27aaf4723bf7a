"""SpMM performance-variability model (the effect Sec. 5.2 mitigates).

On larger datasets at modest GPU counts the paper observes epoch-to-epoch
variability in the forward SpMM which ripples into the subsequent all-reduce
as straggler wait.  The mechanism is working-set dependent (TLB/cache
pressure on large per-call shards), so we model it as a multiplicative
slowdown drawn per kernel call whose magnitude grows with the call's local
nonzero count beyond a threshold.  Blocked aggregation (Sec. 5.2) splits the
call into row blocks below the threshold, which is exactly how it suppresses
the variability here — same cause and effect as the paper describes.

A draw is *identified*, not consumed: the multiplier of global rank ``r`` at
one SpMM charge is a pure function of ``(seed, r, Adam step, layer, pass,
aggregation block)``.  Whoever charges that SpMM — the whole cube in one
process, the worker holding ``r``, the per-rank oracle, an ``evaluate()``
between two epochs — gets the same value, and nothing has to be saved,
restored or drawn in a particular order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpmmNoise"]


@dataclass(frozen=True)
class SpmmNoise:
    """Per-call slowdown model (stateless).

    ``threshold_nnz`` — calls at or below this many local nonzeros are
    deterministic.  ``sigma`` — scale of the half-normal slowdown for calls
    just above the threshold; grows logarithmically with size beyond it.
    """

    threshold_nnz: float = 8e6
    sigma: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threshold_nnz <= 0:
            raise ValueError("threshold_nnz must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def multipliers(self, nnz, charge: tuple, world: int, lo: int = 0) -> np.ndarray:
        """Slowdown factors >= 1 of one SpMM charge for the global ranks
        ``[lo, lo + len(nnz))`` of a ``world``-rank cube, ``nnz`` their local
        nonzero counts.

        ``charge`` names the charge — ``(Adam step, layer, pass, block)``,
        non-negative ints — and seeds one stream of ``world`` standard
        normals; rank ``r`` reads entry ``r``, scaled where its call is above
        the threshold (exactly 1.0 elsewhere).
        """
        nnz = np.asarray(nnz, dtype=np.float64)
        out = np.ones(nnz.shape[0], dtype=np.float64)
        hot = nnz > self.threshold_nnz
        if hot.any():
            draws = np.random.default_rng((self.seed, *charge)).standard_normal(world)
            scale = self.sigma * (1.0 + np.log2(nnz[hot] / self.threshold_nnz))
            out[hot] = 1.0 + np.abs(scale * draws[lo : lo + len(nnz)][hot])
        return out
