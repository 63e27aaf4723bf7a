"""CSR adjacency-matrix operations (Sec. 2.1 preprocessing).

Prior to training, self-loops are added to ``A`` so each node's learned
representation includes its own features, and each edge ``A[u, v]`` is scaled
by ``1/sqrt(d_u * d_v)`` — the Kipf & Welling normalization the paper adopts.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs  # the kernel ``csr_matrix @ ndarray`` itself calls

__all__ = ["to_csr", "add_self_loops", "sym_normalize", "gcn_normalize", "spmm", "ReplicatedCsr", "random_sparse"]


def to_csr(a: sp.spmatrix | sp.sparray | np.ndarray, dtype=np.float64) -> sp.csr_matrix:
    """Coerce any matrix-like into canonical CSR with the requested dtype."""
    mat = sp.csr_matrix(a, dtype=dtype)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def add_self_loops(a: sp.csr_matrix) -> sp.csr_matrix:
    """Return ``A + I`` (idempotent on the diagonal: existing loops become 1).

    The paper counts "non-zeros" of Table 4 after this step, which is why
    every dataset row has ``nnz >= edges + nodes`` there.
    """
    n, m = a.shape
    if n != m:
        raise ValueError(f"adjacency matrix must be square, got {a.shape}")
    # A + diag(1 - diag(A)) pins the whole diagonal to exactly 1.0 using
    # CSR+CSR addition (one merge pass) — no LIL round-trip, which touches
    # every row list and dominates preprocessing on large generated graphs.
    correction = sp.diags(1.0 - a.diagonal(), format="csr", dtype=a.dtype)
    return to_csr(a + correction, dtype=a.dtype)


def sym_normalize(a: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each entry ``A[u, v]`` by ``1/sqrt(d_u * d_v)`` (Sec. 2.1).

    Degrees are row sums of the (self-looped) matrix.  Isolated rows keep a
    zero scale instead of dividing by zero.
    """
    n, m = a.shape
    if n != m:
        raise ValueError(f"adjacency matrix must be square, got {a.shape}")
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d = sp.diags(inv_sqrt)
    return to_csr(d @ a @ d, dtype=a.dtype)


def gcn_normalize(a: sp.csr_matrix | sp.spmatrix) -> sp.csr_matrix:
    """Full GCN preprocessing: self loops, then symmetric normalization."""
    return sym_normalize(add_self_loops(to_csr(a)))


def gin_normalize(a: sp.csr_matrix | sp.spmatrix, eps: float = 0.0) -> sp.csr_matrix:
    """GIN-style aggregation operator: ``A + (1 + eps) I``, unnormalized.

    The paper notes GCN "serves as the foundation" for GIN (Sec. 1); because
    Plexus only ever multiplies by the preprocessed operator, swapping this
    in trains a GIN-flavoured aggregation with the identical 3D machinery —
    the self-contribution is folded into the sparse matrix so no cross-plane
    resharding of F is needed.
    """
    if eps <= -1.0:
        raise ValueError("eps must be > -1 (the self weight 1+eps must stay positive)")
    mat = to_csr(a)
    return to_csr(mat + sp.identity(mat.shape[0], format="csr", dtype=mat.dtype) * (1.0 + eps))


def spmm(a: sp.csr_matrix, f: np.ndarray) -> np.ndarray:
    """Sparse @ dense (Eq. 2.1).

    The single seam every engine's sparse product goes through — the serial
    reference, the per-rank layer loop, and the rank-batched block-diagonal
    path (:class:`repro.core.batch.BlockDiagSpmm`) all call it — so a
    real-GPU backend or an instrumented kernel swaps in at exactly one
    place.  Kernel-*time* accounting stays with the caller (the layers
    charge precomputed per-rank time vectors), keeping this a pure data op.
    """
    if a.shape[1] != f.shape[0]:
        raise ValueError(f"SpMM shape mismatch: {a.shape} @ {f.shape}")
    return np.asarray(a @ f)


class ReplicatedCsr:
    """The ``shape`` CSR matrix holding ``replicas`` equally spaced diagonal
    copies of one stored ``(len(indptr) - 1, n_col)`` block — copy ``j`` sits
    ``j * row_shift`` rows down and ``j * col_shift`` columns right, and no
    two copies have nonzeros in one row — multiplied from the one copy:
    ``self @ x`` runs the CSR kernel once per copy on flat views of ``x`` and
    of one zeroed output shifted by those constants, so every output row
    accumulates its nonzeros in stored order, exactly as in ``csr_matrix @
    x``.  ``nnz`` is the matrix's (the work done); ``len(data)`` is what is
    stored."""

    def __init__(self, indptr, indices, data, n_col, shape, replicas=1, row_shift=0, col_shift=0):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.n_col, self.shape = n_col, shape
        self.shifts = [(j * row_shift, j * col_shift) for j in range(replicas)]
        if self.shifts[-1][0] + len(indptr) - 1 > shape[0] or self.shifts[-1][1] + n_col > shape[1]:
            raise ValueError("replicas exceed the matrix")
        self.nnz = replicas * len(data)
        self.nbytes = indptr.nbytes + indices.nbytes + data.nbytes

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[0] != self.shape[1]:  # the kernel takes raw pointers
            raise ValueError(f"SpMM shape mismatch: {self.shape} @ {x.shape}")
        c = x.shape[1]
        out = np.zeros((self.shape[0], c), dtype=np.result_type(self.data, x))
        n_row, x_flat, out_flat = len(self.indptr) - 1, x.ravel(), out.ravel()
        for rows, cols in self.shifts:
            csr_matvecs(
                n_row, self.n_col, c, self.indptr, self.indices, self.data,
                x_flat[cols * c :], out_flat[rows * c :],
            )
        return out


def random_sparse(n_rows: int, n_cols: int, density: float, rng: np.random.Generator, dtype=np.float64) -> sp.csr_matrix:
    """Uniform random sparse matrix for tests (not a graph generator)."""
    if not (0 <= density <= 1):
        raise ValueError("density must be within [0, 1]")
    nnz = int(round(density * n_rows * n_cols))
    rows = rng.integers(0, n_rows, size=nnz) if n_rows else np.empty(0, dtype=int)
    cols = rng.integers(0, n_cols, size=nnz) if n_cols else np.empty(0, dtype=int)
    vals = rng.standard_normal(nnz)
    return to_csr(sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)), dtype=dtype)
