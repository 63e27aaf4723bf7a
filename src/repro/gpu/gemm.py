"""Mode-aware dense GEMM kernel model.

Sec. 5.3 of the paper observes that the ``grad_W = SGEMM(H^T, dQ)`` kernel —
a TN-mode GEMM with a huge common dimension and tiny output — collapses on
Frontier at >= 512 GCDs (~50 ms), and that rewriting it as
``(SGEMM(dQ^T, H))^T`` (an NT-mode product) makes it negligible.  We model
BLAS mode asymmetry with per-mode efficiency factors plus an explicit
rocBLAS "fallback" path for pathological TN shapes (small m,n with large k),
which reproduces Fig. 6 (right).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.gpu.device import DeviceSpec

__all__ = ["GemmMode", "gemm_flops", "gemm_time", "gemm_time_batch", "mode_factor"]


class GemmMode(str, Enum):
    """BLAS transpose modes for ``C = op(A) @ op(B)``."""

    NN = "NN"
    NT = "NT"
    TN = "TN"
    TT = "TT"


#: sustained-efficiency multiplier per mode, keyed by device name.  NVIDIA
#: cuBLAS degrades mildly on transposed operands; rocBLAS TN is the outlier
#: the paper tunes around (Shi et al. [33] document the NT/TN penalty).
_MODE_FACTORS: dict[str, dict[GemmMode, float]] = {
    "default": {GemmMode.NN: 1.0, GemmMode.NT: 0.90, GemmMode.TN: 0.55, GemmMode.TT: 0.60},
    "mi250x-gcd": {GemmMode.NN: 1.0, GemmMode.NT: 0.85, GemmMode.TN: 0.40, GemmMode.TT: 0.50},
}

#: rocBLAS TN fallback: (fixed overhead s, per-common-dim-element s).  Only
#: triggered for skinny outputs with a long common dimension, the exact
#: grad_W shape of Sec. 5.3.  Calibrated to Fig. 6 (right): ~50 ms for
#: products-14M's k ~ 1.8M rows at 512 GCDs.
_TN_FALLBACK: dict[str, tuple[float, float]] = {
    "mi250x-gcd": (0.005, 2.5e-8),
}

#: TN shapes with output tiles smaller than this and common dimension larger
#: than this hit the fallback kernel.
_FALLBACK_MAX_MN = 512
_FALLBACK_MIN_K = 4096


def mode_factor(device: DeviceSpec, mode: GemmMode) -> float:
    """Sustained-efficiency multiplier for ``mode`` on ``device``."""
    table = _MODE_FACTORS.get(device.name, _MODE_FACTORS["default"])
    return table[mode]


def gemm_flops(m: float, n: float, k: float) -> float:
    """FLOPs of an ``m x k @ k x n`` product."""
    if min(m, n, k) < 0:
        raise ValueError("GEMM dimensions must be non-negative")
    return 2.0 * m * n * k


def _is_pathological_tn(m: float, n: float, k: float) -> bool:
    return max(m, n) <= _FALLBACK_MAX_MN and k >= _FALLBACK_MIN_K


def gemm_time(m: float, n: float, k: float, device: DeviceSpec, mode: GemmMode = GemmMode.NN) -> float:
    """Modeled execution time (seconds) of a local GEMM on ``device``.

    Combines a throughput term (peak x efficiency x mode factor) with a
    bandwidth floor for very skinny products, plus the rocBLAS TN fallback.
    """
    if min(m, n, k) <= 0:
        return 0.0
    flops = gemm_flops(m, n, k)
    throughput = device.peak_flops * device.gemm_efficiency * mode_factor(device, mode)
    compute_t = flops / throughput
    bytes_moved = 4.0 * (m * k + k * n + m * n)
    bandwidth_t = bytes_moved / device.memory_bw
    time = max(compute_t, bandwidth_t)
    if mode is GemmMode.TN and device.name in _TN_FALLBACK and _is_pathological_tn(m, n, k):
        overhead, per_k = _TN_FALLBACK[device.name]
        time = max(time, overhead + per_k * k)
    return time


def gemm_time_batch(m: np.ndarray, n: np.ndarray, k: np.ndarray, device: DeviceSpec, mode: GemmMode) -> np.ndarray:
    """:func:`gemm_time` over per-shard shape arrays, one scalar model call
    per distinct shape (quasi-equal sharding yields a handful per grid)."""
    seen: dict[tuple, float] = {}
    for key in zip(m, n, k):
        if key not in seen:
            seen[key] = gemm_time(*key, device, mode)
    return np.array([seen[key] for key in zip(m, n, k)])
