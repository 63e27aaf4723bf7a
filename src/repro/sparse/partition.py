"""2D block decomposition of sparse matrices and nonzero-balance statistics.

Plexus shards the adjacency matrix across a 2D plane of the GPU grid
(Sec. 3.1).  Load balance therefore depends on how evenly the nonzeros fall
into a ``p x q`` block grid; Table 3 reports the max/mean nonzero ratio over
8x8 blocks for three permutation schemes.  The helpers here compute block
boundaries, extract shards, and evaluate those balance statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["block_slices", "block_slice", "csr_block", "block_nnz_counts", "nnz_balance_stats", "BalanceStats"]


def block_slices(n: int, parts: int) -> list[slice]:
    """Split ``range(n)`` into ``parts`` contiguous slices.

    The first ``n % parts`` slices get one extra element — the same
    quasi-equal convention torch.chunk / NCCL use, so shard shapes across a
    process group differ by at most one row.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    return [block_slice(n, parts, i) for i in range(parts)]


def block_slice(n: int, parts: int, index: int) -> slice:
    """``block_slices(n, parts)[index]`` in closed form: O(1), no list."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= index < parts:
        raise IndexError(f"block {index} out of range for {parts} parts")
    base, extra = divmod(n, parts)
    start = index * base + min(index, extra)
    return slice(start, start + base + (index < extra))


def csr_block(a: sp.csr_matrix, rows: slice, cols: slice) -> sp.csr_matrix:
    """Extract the contiguous block ``a[rows, cols]`` in one CSR pass.

    Equivalent to ``a[rows, :][:, cols].tocsr()`` but without the two
    intermediate matrices that double slice materializes: the row band is a
    view on ``indptr``/``indices``/``data``, the column window is a single
    boolean mask over that band, and the block's ``indptr`` falls out of one
    cumulative sum indexed at the row boundaries.  O(nnz of the row band),
    which is what makes cutting hundreds of shard sets per model cheap.
    """
    n_rows, n_cols = a.shape
    r0, r1, r_step = rows.indices(n_rows)
    c0, c1, c_step = cols.indices(n_cols)
    if r_step != 1 or c_step != 1:
        raise ValueError("csr_block requires contiguous (step-1) slices")
    indptr = a.indptr
    lo, hi = indptr[r0], indptr[r1]
    indices = a.indices[lo:hi]
    keep = (indices >= c0) & (indices < c1)
    csum = np.concatenate(([0], np.cumsum(keep, dtype=a.indptr.dtype)))
    new_indptr = csum[indptr[r0 : r1 + 1] - lo]
    block = sp.csr_matrix(
        (a.data[lo:hi][keep], (indices[keep] - c0).astype(a.indices.dtype, copy=False), new_indptr),
        shape=(r1 - r0, c1 - c0),
    )
    return block


def block_nnz_counts(a: sp.csr_matrix, row_parts: int, col_parts: int) -> np.ndarray:
    """Nonzero count of every block in the grid, without materializing shards.

    Works directly on the CSR structure: row block membership from indptr
    run lengths, column block membership by bucketing the column indices.
    O(nnz) instead of O(row_parts * col_parts * slicing cost).
    """
    if row_parts <= 0 or col_parts <= 0:
        raise ValueError("partition counts must be positive")
    n_rows, n_cols = a.shape
    counts = np.zeros((row_parts, col_parts), dtype=np.int64)
    row_bounds = np.array([s.stop for s in block_slices(n_rows, row_parts)])
    col_bounds = np.array([s.stop for s in block_slices(n_cols, col_parts)])
    indptr, indices = a.indptr, a.indices
    # per-nonzero row ids via repeat on indptr diffs
    row_ids = np.repeat(np.arange(n_rows), np.diff(indptr))
    row_block = np.searchsorted(row_bounds, row_ids, side="right")
    col_block = np.searchsorted(col_bounds, indices, side="right")
    np.add.at(counts, (row_block, col_block), 1)
    return counts


@dataclass(frozen=True)
class BalanceStats:
    """Summary of nonzero balance over a 2D block grid (Table 3 metric)."""

    max_nnz: int
    min_nnz: int
    mean_nnz: float
    #: the Table 3 headline: max block nnz divided by the mean
    max_over_mean: float
    std_nnz: float


def nnz_balance_stats(a: sp.csr_matrix, row_parts: int, col_parts: int) -> BalanceStats:
    """Compute Table-3-style balance statistics for a block grid."""
    counts = block_nnz_counts(a, row_parts, col_parts).astype(np.float64)
    mean = counts.mean()
    if mean == 0:
        raise ValueError("matrix has no nonzeros; balance undefined")
    return BalanceStats(
        max_nnz=int(counts.max()),
        min_nnz=int(counts.min()),
        mean_nnz=float(mean),
        max_over_mean=float(counts.max() / mean),
        std_nnz=float(counts.std()),
    )
