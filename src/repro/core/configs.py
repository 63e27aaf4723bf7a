"""3D configuration enumeration and run options.

Fig. 5 sweeps every factorization of G=64 into (Gx, Gy, Gz); the helpers
here enumerate those configurations and classify them into the 1D/2D/3D
families the figure distinguishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core.grid import GridConfig
from repro.core.noise import SpmmNoise

__all__ = ["factor_triples", "classify_config", "PlexusOptions"]


def factor_triples(g: int) -> list[GridConfig]:
    """All ordered (Gx, Gy, Gz) with ``Gx*Gy*Gz == g``."""
    if g <= 0:
        raise ValueError("G must be positive")
    divisors = [d for d in range(1, g + 1) if g % d == 0]
    out = []
    for gx in divisors:
        rem = g // gx
        for gy in [d for d in divisors if rem % d == 0 and d <= rem]:
            out.append(GridConfig(gx, gy, rem // gy))
    return out


def classify_config(cfg: GridConfig) -> Literal["1D", "2D", "3D"]:
    """Fig. 5's families: how many grid dimensions exceed one."""
    n = cfg.n_parallel_dims
    if n <= 1:
        return "1D"
    return "2D" if n == 2 else "3D"


@dataclass
class PlexusOptions:
    """Run options for :class:`~repro.core.model.PlexusGCN`.

    Defaults match the paper's recommended configuration: double
    permutation, grad-W GEMM tuning on, unblocked aggregation (blocking is
    enabled per-dataset when variability appears, Sec. 5.2).
    """

    permutation: Literal["none", "single", "double"] = "double"
    aggregation_blocks: int = 1
    tune_dw_gemm: bool = True
    trainable_features: bool = False
    lr: float = 1e-2
    seed: int = 0
    noise: SpmmNoise | None = None
    #: dtype of every tensor the model computes with.  float64 (the
    #: default, resolved from None) is the validation mode that matches the
    #: serial reference to Fig. 7 tolerance; float32 halves
    #: memory/bandwidth and is the benchmark mode.  Threaded through the
    #: model, layers, collectives and feature synthesis.
    compute_dtype: type | None = None
    #: nonblocking-collective scheduling (Sec. 5.2): issue the per-block
    #: aggregation all-reduces and keep them in flight behind the next row
    #: block's SpMM, and prefetch each layer's W all-gather at the end of
    #: the previous layer — with frozen input features also the layer-0 F
    #: all-gather *across epochs* (issued at the end of backward, waited at
    #: the top of the next forward).  Losses and weights are bitwise
    #: identical either way — only the simulated clocks (comm/comp
    #: breakdown) change.
    overlap: bool = False

    def __post_init__(self) -> None:
        if self.aggregation_blocks < 1:
            raise ValueError("aggregation_blocks must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.compute_dtype is None:
            self.compute_dtype = np.float64
