"""Nsight-Compute-like kernel profile records.

Table 2 of the paper reports four metrics for the aggregation SpMM under two
3D configurations: grid size, uncoalesced global-memory sectors, and L2/DRAM
throughput percentages.  :class:`KernelProfile` is the container our kernel
models fill in so the same table can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelProfile"]


@dataclass(frozen=True)
class KernelProfile:
    """One profiled kernel launch (what `ncu` would report)."""

    kernel: str
    #: number of CTAs launched
    grid_size: int
    #: global-memory sectors fetched that were not fully coalesced
    uncoalesced_sectors: int
    #: L2 cache throughput, percent of peak
    l2_throughput_pct: float
    #: DRAM throughput, percent of peak
    dram_throughput_pct: float
    #: modeled execution time, seconds
    time_s: float

    def __post_init__(self) -> None:
        if self.grid_size < 0 or self.uncoalesced_sectors < 0:
            raise ValueError("counts must be non-negative")
        if self.time_s < 0:
            raise ValueError("time must be non-negative")
