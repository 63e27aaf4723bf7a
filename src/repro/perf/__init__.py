"""Analytic full-scale performance models.

The executable engine runs real data on up to ~64 virtual ranks.  The
paper's scaling figures go to 2048 GPUs on 111M-node graphs; those epoch
times depend only on (N, nnz, D, layer count, machine topology, grid
configuration), all of which Table 4 + Sec. 6.1 provide.  This package
charges the executable engine's own kernel table and collective laws
through its own timeline, on shard shapes instead of data, at any scale —
regenerating the series of Figs. 8, 9 and 10 and the "observed" side of
Fig. 5.
"""

from repro.perf.calibration import PlexusCalibration, PartitionCalibration, BoundaryModel
from repro.perf.analytic import (
    EpochEstimate,
    PlexusAnalytic,
    PartitionParallelAnalytic,
    bns_analytic,
    sa_analytic,
)
from repro.perf.sweep import strong_scaling_series, best_plexus_config

__all__ = [
    "PlexusCalibration",
    "PartitionCalibration",
    "BoundaryModel",
    "EpochEstimate",
    "PlexusAnalytic",
    "PartitionParallelAnalytic",
    "bns_analytic",
    "sa_analytic",
    "strong_scaling_series",
    "best_plexus_config",
]
