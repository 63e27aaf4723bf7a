"""CAGNET-style baselines: SA (sparsity-aware 1D/1.5D) and SA+GVB.

Tripathy et al.'s CAGNET distributes A and F in contiguous 1D row blocks and
cycles feature blocks through broadcasts; Mukhopadhyay et al.'s SA variant
communicates only the feature rows a destination actually needs.
Structurally that makes the executable algorithm a partition-parallel engine
with *contiguous-block* partitions and sparsity-aware (needed-rows-only)
exchange — exactly what :class:`~repro.baselines.bns_gcn.PartitionParallelGCN`
implements — so SA reuses that engine with a block partition, and SA+GVB
swaps in the GVB nonzero-balancing partitioner (Acer et al. [2]), matching
the paper's Sec. 6.3 setup.

The 1.5D replication factor ``c`` trades memory for communication; it only
affects timing/memory (not numerics), so the executable model is c = 1 and
only the analytic scale model (``repro.perf``) has a ``replication``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.baselines.bns_gcn import BnsGcnOptions, PartitionParallelGCN
from repro.baselines.partitioner import PartitionResult, gvb_partition
from repro.dist.cluster import VirtualCluster

__all__ = ["CagnetOptions", "block_partition", "Cagnet15D"]


@dataclass
class CagnetOptions(BnsGcnOptions):
    """SA options: sparsity-aware exchange is always exact (rate 1.0)."""

    #: use the GVB partitioner (the paper's SA+GVB variant)
    use_gvb: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.boundary_rate != 1.0:
            raise ValueError("CAGNET-SA makes no approximations; rate must stay 1.0")


def block_partition(n: int, n_parts: int) -> PartitionResult:
    """CAGNET's native layout: contiguous quasi-equal row blocks.

    No balancing at all — on power-law graphs in natural vertex order this
    is exactly the load-imbalanced layout the GVB variant exists to fix.
    """
    from repro.sparse.partition import block_slices

    assign = np.empty(n, dtype=np.int64)
    for p, sl in enumerate(block_slices(n, n_parts)):
        assign[sl] = p
    return PartitionResult(assignment=assign, n_parts=n_parts)


class Cagnet15D(PartitionParallelGCN):
    """Executable SA / SA+GVB baseline (exact, sparsity-aware exchange)."""

    def __init__(
        self,
        cluster: VirtualCluster,
        a_norm: sp.csr_matrix,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        layer_dims: list[int],
        options: CagnetOptions | None = None,
    ) -> None:
        options = options or CagnetOptions()
        if options.use_gvb:
            partition = gvb_partition(a_norm, cluster.world_size)
        else:
            partition = block_partition(a_norm.shape[0], cluster.world_size)
        super().__init__(cluster, a_norm, features, labels, train_mask, layer_dims, partition, options)
