"""Sparse-matrix substrate: GCN normalization and 2D block partitioning.

Graphs are adjacency matrices in CSR form (scipy backed).  This package owns
the preprocessing the paper describes in Sec. 2.1 (self loops + symmetric
degree normalization) and the 2D block decomposition with nonzero-balance
statistics used by the load-balancing study (Table 3).
"""

from repro.sparse.ops import (
    add_self_loops,
    sym_normalize,
    gcn_normalize,
    spmm,
    to_csr,
)
from repro.sparse.partition import (
    block_slices,
    block_slice,
    csr_block,
    block_nnz_counts,
    nnz_balance_stats,
    BalanceStats,
)

__all__ = [
    "add_self_loops",
    "sym_normalize",
    "gcn_normalize",
    "spmm",
    "to_csr",
    "block_slices",
    "block_slice",
    "csr_block",
    "block_nnz_counts",
    "nnz_balance_stats",
    "BalanceStats",
]
