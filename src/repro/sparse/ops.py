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
    "cpu_share", "set_cpu_share", "parallelism", "run_parts", "run_rows",
]

#: multiply-adds (nonzeros x operand columns) each part of a split SpMM must
#: carry: below it, waking a pool thread costs more than its range saves
#: (on a 2-CPU host two parts break even at 130-260 k multiply-adds in all,
#: for 8-32 operand columns)
_PAR_MIN = 1 << 17

#: bytes a memory-bound whole-cube pass (a collective's reduction, the SpMM
#: output's zero-fill, an activation) must cover before it splits: below
#: it, handing a range to a pool thread (≈20-30 µs) costs more than the
#: range saves.  On a 2-CPU host two parts break even at 1-2 MiB with
#: warm caches (the measured curve: CHANGES.md); the benchmark passes past
#: it are 1.1-8 MiB, those below it at most 0.6 MiB
_PASS_MIN = 1 << 20

#: this process's CPU share (``None``: :func:`cpu_share` on first use; a
#: pool worker is handed its share of the host, :func:`set_cpu_share`).
#: The kernels' hot paths read it directly: below break-even a product
#: makes no Python call it did not make before the pool existed
_share: int | None = None
#: the queue of the process's one thread pool (``None`` until the first
#: split starts it): it runs the SpMM's row ranges, the GEMM slabs and
#: lanes and the memory-bound passes' row ranges (:func:`run_rows`).  Each
#: entry is a job, its index and the queue its caller waits on
_todo: SimpleQueue | None = None
#: the most parts one product or pass of each kind ran in so far (the
#: ``spmm_parts`` / ``gemm_parts`` / ``pass_parts`` trace gauges)
_parts = {"spmm": 0, "gemm": 0, "pass": 0}


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


def parallelism() -> tuple[int, int, int, int]:
    """``(CPU share, the most parts one SpMM ran in, the most parts one
    GEMM step ran in, the most parts one memory-bound pass ran in)`` so far
    in this process — the ``cpu_share`` / ``spmm_parts`` / ``gemm_parts`` /
    ``pass_parts`` trace gauges (two GEMMs run side by side are two
    parts)."""
    global _share
    if _share is None:
        _share = cpu_share()
    return _share, _parts["spmm"], _parts["gemm"], _parts["pass"]


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


def run_rows(job: Callable[[tuple], object], shape: tuple[int, ...]) -> None:
    """Run a memory-bound pass over an array of ``shape`` side by side: its
    shard-row axis (the second to last — a cube's axis 3, never a reduced
    one) cut into at most CPU-share ranges, ``job(index)`` once per range
    on the pool (:func:`run_parts`), each writing its own rows of one
    output with ``out=``.  Every range keeps two elements or more per
    leading index, so a reduction over a leading axis stays an
    element-wise one in member order, as it is on the whole cube (a
    one-element block would turn it into numpy's pairwise sum).  Callers
    test the break-even (:data:`_PASS_MIN`), the share and :class:`_Part`
    inline first, so a pass that does not split makes no call here."""
    rows, cols = shape[-2:] if len(shape) > 1 else (1, 1)
    parts = min(_share or parallelism()[0], rows, rows * cols // 2)
    if parts < 2:
        job((Ellipsis,))
        return
    bounds = [rows * i // parts for i in range(parts + 1)]
    run_parts(
        [partial(job, (Ellipsis, slice(lo, hi), slice(None))) for lo, hi in zip(bounds, bounds[1:])],
        "pass",
    )


def _zero(out: np.ndarray, index: tuple) -> None:
    """One range of a split zero-fill."""
    out[index] = 0


def _ufunc_rows(ufunc, a: np.ndarray, b, out: np.ndarray, index: tuple) -> None:
    """One range of a split elementwise ``ufunc(a, b)``: ``b`` a scalar or
    an array broadcasting to ``out`` over leading axes only."""
    ufunc(a[index], b[index] if isinstance(b, np.ndarray) else b, out=out[index])


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
        :data:`_PAR_MIN`) allow, run side by side (:func:`run_parts`),
        after the zero-fill of the output (split too past
        :data:`_PASS_MIN` bytes).  One range is the serial product.  (No
        Python-level call per product beyond this one when it does not
        split: the budget of ``core.trainer.py_calls_per_epoch``.)"""
        if x.ndim != 2 or x.shape[0] != self.shape[1]:  # the kernel takes raw pointers
            raise ValueError(f"SpMM shape mismatch: {self.shape} @ {x.shape}")
        c = x.shape[1]
        dtype = np.result_type(self.data, x)
        share = _share or parallelism()[0]
        if self.shape[0] * c * dtype.itemsize < _PASS_MIN or share < 2 or _part.active:
            out = np.zeros((self.shape[0], c), dtype=dtype)
        else:  # zeroed as a phase of its own: the replicas' output rows overlap
            out = np.empty((self.shape[0], c), dtype=dtype)
            run_rows(partial(_zero, out), out.shape)
        x_flat, out_flat = x.ravel(), out.ravel()
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
