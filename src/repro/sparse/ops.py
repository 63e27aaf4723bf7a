"""CSR adjacency-matrix operations (Sec. 2.1 preprocessing).

Prior to training, self-loops are added to ``A`` so each node's learned
representation includes its own features, and each edge ``A[u, v]`` is scaled
by ``1/sqrt(d_u * d_v)`` — the Kipf & Welling normalization the paper adopts.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from queue import SimpleQueue
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs  # the kernel ``csr_matrix @ ndarray`` itself calls

__all__ = [
    "to_csr", "add_self_loops", "sym_normalize", "gcn_normalize", "spmm", "ReplicatedCsr",
    "random_sparse", "cpu_share", "set_cpu_share", "parallelism", "run_parts",
]

#: multiply-adds (nonzeros x operand columns) each part of a split SpMM must
#: carry: below it, waking a pool thread costs more than its range saves
#: (on a 2-CPU host two parts break even at 130-260 k multiply-adds in all,
#: for 8-32 operand columns)
_PAR_MIN = 1 << 17

#: this process's CPU share (``None``: :func:`cpu_share` on first use; a
#: pool worker is handed its share of the host, :func:`set_cpu_share`).
#: The kernels' hot paths read it directly: below break-even a product
#: makes no Python call it did not make before the pool existed
_share: int | None = None
#: the queue of the process's one thread pool (``None`` until the first
#: split product starts it): each entry a job, its index and the queue its
#: caller waits on
_todo: SimpleQueue | None = None
#: the most parts one product of each kind ran in so far (the
#: ``spmm_parts`` / ``gemm_parts`` trace gauges)
_parts = {"spmm": 0, "gemm": 0}


class _Part(threading.local):
    """Per thread: whether it runs a part of a :func:`run_parts` call (a
    pool thread always does).  A part does not split again — inside one the
    CPU share is 1 — since the pool has ``share - 1`` threads and a part
    waiting on parts queued behind the running ones could hold the last."""

    active = False


_part = _Part()


def cpu_share(workers: int = 1) -> int:
    """One of ``workers`` processes' share of the CPUs this process may run
    on — its affinity mask (``taskset``, a cpuset), not the host's count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // max(1, workers))


def set_cpu_share(share: int) -> None:
    """Cap this process's splits at ``share`` parts (a pool worker's share
    of its host, computed where the pool is spawned)."""
    global _share
    _share = max(1, int(share))


def parallelism() -> tuple[int, int, int]:
    """``(CPU share, the most parts one SpMM ran in, the most parts one
    GEMM step ran in)`` so far in this process — the ``cpu_share`` /
    ``spmm_parts`` / ``gemm_parts`` trace gauges (two GEMMs run side by side
    are two parts)."""
    global _share
    if _share is None:
        _share = cpu_share()
    return _share, _parts["spmm"], _parts["gemm"]


def note_parts(kind: str, parts: int) -> None:
    """Record that one product of ``kind`` ran in ``parts`` parts."""
    if parts > _parts[kind]:
        _parts[kind] = parts


def run_parts(jobs: Sequence[Callable[[], object]], kind: str) -> list:
    """Run the callables ``jobs`` side by side — the first on the calling
    thread, the others on the process's pool — and return their results in
    order once every one has finished.  A job's error is re-raised here
    after the others are done (the caller's own first), and the pool
    serves the next call.  Called from inside a part, it runs the jobs one
    after another where it is (see :class:`_Part`)."""
    if _part.active:
        return [job() for job in jobs]
    note_parts(kind, len(jobs))
    done = SimpleQueue()
    todo = _todo or _start_pool((_share or parallelism()[0]) - 1)
    for i in range(1, len(jobs)):
        todo.put([jobs[i], i, done])
    results = [None] * len(jobs)
    error = None
    _part.active = True
    try:
        results[0] = jobs[0]()
    finally:  # no part may still be running once this returns
        _part.active = False
        for _ in range(1, len(jobs)):
            i, results[i], failed = done.get()
            error = error or failed
    if error is not None:
        raise error
    return results


def _serve(todo: SimpleQueue) -> None:
    """A pool thread: run the queued jobs one after another."""
    _part.active = True
    while True:
        _run(todo.get())


def _run(entry: list) -> None:
    """Run one queued ``[job, index, done]`` entry and report ``(index,
    result, None)`` or ``(index, None, the error raised)`` on ``done``.
    The job holds views of its product's operands and output: the entry
    is emptied and the job dropped before the report, so no pool thread
    keeps either alive past the call that queued it — and an error leaves
    the thread serving."""
    job, i, done = entry
    entry.clear()
    try:
        out = (i, job(), None)
    except BaseException as exc:
        out = (i, None, exc)
    del job
    done.put(out)


def _start_pool(threads: int) -> SimpleQueue:
    """Start the process's pool: ``threads`` (at least one) daemon threads
    serving one queue."""
    global _todo
    _todo = SimpleQueue()
    for i in range(max(1, threads)):
        threading.Thread(target=_serve, args=(_todo,), name=f"repro-pool-{i}", daemon=True).start()
    return _todo


def _matvecs(calls: list[tuple]) -> None:
    """One row range of a split SpMM: its kernel calls, one per replica."""
    for args in calls:
        csr_matvecs(*args)


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
        #: parts -> the stored rows cut into that many nnz-balanced ranges
        self._ranges: dict[int, list[tuple[int, int]]] = {}

    def _split(self, parts: int) -> list[tuple[int, int]]:
        """The stored rows as at most ``parts`` nonempty ``(lo, hi)`` ranges
        holding about equal numbers of nonzeros (kept per part count) —
        whole rows, so every output row is still written by one kernel call."""
        n_row = len(self.indptr) - 1
        cuts = np.searchsorted(self.indptr, np.arange(1, parts) * len(self.data) // parts)
        bounds = [0, *np.minimum(cuts, n_row).tolist(), n_row]
        ranges = self._ranges[parts] = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        return ranges

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``self @ x``: the stored rows in nnz-balanced ranges, as many as
        the process's CPU share and the work (``nnz * columns`` over
        :data:`_PAR_MIN`) allow, run side by side (:func:`run_parts`).  One
        range is the serial product.  (No Python-level call per product
        beyond this one when it does not split: the budget of
        ``core.trainer.py_calls_per_epoch``.)"""
        if x.ndim != 2 or x.shape[0] != self.shape[1]:  # the kernel takes raw pointers
            raise ValueError(f"SpMM shape mismatch: {self.shape} @ {x.shape}")
        c = x.shape[1]
        out = np.zeros((self.shape[0], c), dtype=np.result_type(self.data, x))
        x_flat, out_flat = x.ravel(), out.ravel()
        share = _share or parallelism()[0]
        parts = max(1, min(share, self.nnz * c // max(_PAR_MIN, 1)))
        ranges = self._ranges.get(parts) or self._split(parts)
        if len(ranges) > _parts["spmm"]:
            _parts["spmm"] = len(ranges)
        jobs, calls = [], []
        for lo, hi in ranges:  # (a loop, not a comprehension: no Python call)
            indptr, calls = self.indptr[lo : hi + 1], []
            for rows, cols in self.shifts:
                calls.append((
                    hi - lo, self.n_col, c, indptr, self.indices, self.data,
                    x_flat[cols * c :], out_flat[(rows + lo) * c :],
                ))
            jobs.append(partial(_matvecs, calls))
        if len(jobs) > 1:
            run_parts(jobs, "spmm")
        else:  # the one range's (or no range's) calls, here
            for args in calls:
                csr_matvecs(*args)
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
