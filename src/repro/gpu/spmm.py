"""Row-splitting SpMM kernel model.

The paper profiles the aggregation SpMM with Nsight Compute (Table 2) and
explains the tall-skinny slowdown through Yang et al.'s row-splitting design:
CTAs each consume a fixed budget of nonzeros and stream the corresponding
rows of the dense operand.  We model exactly that geometry:

* ``grid_size = ceil(nnz_local / nnz_per_cta)`` — Table 2's grid sizes for
  configs U and V (20,223 and 1,313,241 blocks for 1.97 M and 126.2 M local
  nonzeros) both correspond to ~96 nonzeros per CTA, which we adopt.
* every nonzero streams one dense row of ``D_local`` columns; rows narrower
  than a 32-byte sector cannot coalesce, which inflates the uncoalesced
  sector count and collapses L2/DRAM throughput — the U-vs-V contrast.

The resulting time model is bandwidth-bound with a shape factor
``min(1, D_local/8)^1.5`` which reproduces the ~8x slowdown of config V
(equal FLOPs, 64x larger common dimension) that Sec. 4.1 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.profiler import KernelProfile

__all__ = ["SpmmShard", "spmm_shape_factor", "spmm_kernel_profile", "spmm_time", "spmm_time_batch"]

#: nonzeros consumed by one CTA (calibrated from Table 2: 1,971,360/20,223
#: = 97.5 and 126,167,053/1,313,241 = 96.1)
NNZ_PER_CTA = 96

#: fraction of sectors that remain uncoalesced even for wide dense rows
#: (calibrated so config V yields ~3.9 M uncoalesced sectors)
UNCOALESCED_BASE = 0.032

#: peak-percent throughput a perfectly-shaped SpMM reaches (config U levels)
L2_PCT_MAX = 62.0
DRAM_PCT_MAX = 73.0


@dataclass(frozen=True)
class SpmmShard:
    """Shape of one rank-local SpMM: ``H (rows x cols) = A (rows x k) @ F (k x cols)``."""

    rows: int
    #: common dimension = rows of the dense operand = columns of A
    k: int
    #: dense columns; may be fractional on average when D does not divide G_y
    cols: float
    #: local nonzeros of the sparse operand
    nnz: int

    def __post_init__(self) -> None:
        if self.rows < 0 or self.k < 0 or self.nnz < 0:
            raise ValueError("shard dimensions must be non-negative")
        if self.cols <= 0:
            raise ValueError("cols must be positive")


def spmm_shape_factor(cols: float) -> float:
    """Efficiency multiplier for the dense-operand width (or widths).

    Rows narrower than one 32-byte sector (8 fp32 values) waste memory
    transactions; the exponent 1.3 combines the coalescing loss (linear)
    with a partial occupancy loss, calibrated to the ~8x U-vs-V slowdown
    the paper measures for equal-FLOP shards (Sec. 4.1).
    """
    if np.any(np.less_equal(cols, 0)):
        raise ValueError("cols must be positive")
    # np.power, not ``**``: on one width ``**`` is the C library's scalar
    # pow, which can differ in the last bit from the ufunc's (SIMD) loop a
    # batch of widths runs — and one shard must cost the same in any batch
    return np.power(np.minimum(1.0, np.divide(cols, 8.0)), 1.3)


def spmm_time(shard: SpmmShard, device: DeviceSpec) -> float:
    """Modeled execution time (seconds) of the local SpMM on ``device``."""
    return float(spmm_time_batch(shard.rows, shard.k, shard.cols, shard.nnz, device))


def spmm_time_batch(
    rows: np.ndarray, k: np.ndarray, cols: np.ndarray, nnz: np.ndarray, device: DeviceSpec
) -> np.ndarray:
    """Modeled SpMM seconds over per-shard shape arrays (one model for a
    rank's shards, a sweep's configurations, or one :func:`spmm_time`).

    Global-memory traffic (CSR structure + dense reads + output writes) over
    the shape-derated bandwidth.  Dense-row reads get L2 reuse when the
    dense operand fits in cache: each of the ``k`` rows is fetched from DRAM
    once and the remaining ``nnz - k`` touches hit at the miss rate
    ``dense_bytes / L2``, so dense community-structured graphs (Reddit) run
    proportionally faster than their raw ``nnz x cols`` volume — the paper's
    observation that denser graphs keep Plexus compute-bound longer.
    """
    rows, k, cols, nnz = np.broadcast_arrays(
        np.asarray(rows, dtype=np.float64),
        np.asarray(k, dtype=np.float64),
        np.asarray(cols, dtype=np.float64),
        np.asarray(nnz, dtype=np.float64),
    )
    shape_factor = spmm_shape_factor(cols)
    a_bytes = 8.0 * nnz
    dense_bytes = 4.0 * k * cols
    miss = np.clip(0.5 * dense_bytes / max(device.l2_bytes, 1.0), 0.05, 1.0)
    extra_touches = np.maximum(nnz - k, 0.0)
    f_bytes = 4.0 * cols * (np.minimum(k, nnz) + extra_touches * miss)
    h_bytes = 4.0 * rows * cols
    effective_bw = device.memory_bw * device.spmm_efficiency * shape_factor
    return np.where(nnz == 0, 0.0, (a_bytes + f_bytes + h_bytes) / effective_bw)


def spmm_kernel_profile(shard: SpmmShard, device: DeviceSpec, kernel: str = "spmm_csr_rowsplit") -> KernelProfile:
    """Nsight-like profile of the local SpMM (regenerates Table 2 rows)."""
    grid = math.ceil(shard.nnz / NNZ_PER_CTA) if shard.nnz else 0
    row_bytes = 4.0 * shard.cols
    sectors_per_nnz = max(1.0, row_bytes / device.sector_bytes)
    total_sectors = shard.nnz * sectors_per_nnz
    # Narrow rows force partially-filled sectors: the uncoalesced fraction
    # scales with how much of a sector a dense row wastes.
    uncoalesced_fraction = UNCOALESCED_BASE * min(1.0, device.sector_bytes / max(row_bytes, 1e-12))
    uncoalesced = int(round(total_sectors * uncoalesced_fraction))
    coalesce = min(1.0, row_bytes / device.sector_bytes)
    short_row = min(1.0, shard.cols / 8.0)
    l2_pct = L2_PCT_MAX * coalesce ** 0.8 * short_row ** 0.15
    dram_pct = DRAM_PCT_MAX * coalesce * short_row ** 0.5
    return KernelProfile(
        kernel=kernel,
        grid_size=grid,
        uncoalesced_sectors=uncoalesced,
        l2_throughput_pct=l2_pct,
        dram_throughput_pct=dram_pct,
        time_s=spmm_time(shard, device),
    )
