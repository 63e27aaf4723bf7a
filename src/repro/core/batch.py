"""Rank-batched tensor utilities: the data layer of ``repro.core``.

The driver simulates every rank of the grid in one process, so a "parallel"
step of Algorithms 1-2 is really ``world_size`` small dense/sparse products.
Issuing them one rank at a time from Python costs an interpreter round-trip
per rank — which dominates epoch time on 64+ rank grids (the math itself is
tiny).  The helpers here restore bulk execution, the way CAGNET expresses
its 1.5D/2D/3D algorithms as operations on stacked partitions:

* :func:`batched_matmul` buckets per-rank operand pairs by shape — quasi-
  equal sharding means shapes differ by at most one row/column, so there
  are only a handful of buckets, and exactly one when the dimensions divide
  the grid — and runs one ``np.matmul`` per bucket instead of one ``@`` per
  rank; each rank's result is a view into its bucket's output.
* :class:`BlockDiagSpmm` lays the per-rank adjacency shards out as one
  block CSR matrix so the whole grid's SpMM is a single ``spmm`` call — with
  each distinct shard stored once: the ranks sharing a shard are multiplied
  from one block (:class:`~repro.sparse.ops.ReplicatedCsr`), and a layer's
  plans are the only stored copy of its graph.  CSR row accumulation order is
  unchanged, so results are bitwise-identical to the per-rank products.

The layers run on the stacked forms below (:func:`stack_matmul`,
:meth:`BlockDiagSpmm.apply_batched`); the list forms — :func:`batched_matmul`
and :meth:`BlockDiagSpmm.apply`, which tolerate quasi-equal shapes by
grouping — are what the per-rank reference (``tests/oracle.py``) multiplies
with, so both sides hand BLAS the same operand layouts.  The stacked
outputs feed straight into the handle-based communicators
(``PlexusGrid.comm(axis)``): a ``(world, m, n)`` product is the operand of
one issued axis collective, whose :class:`~repro.dist.comm.PendingCollective`
is waited where the next kernel consumes the result.

Every stacked operand is a :class:`~repro.dist.padded.CubeStack` (see
:mod:`repro.dist.padded` for the layout and the pad semantics): the rank
cube with extent 1 along every axis the value is identical on, zero-padded
where sharding is quasi-equal, the per-rank valid extents as metadata.  A
raw ``(world, m, n)`` ndarray is accepted wherever a stack is, viewed into
the cube for free.  The ``stack_*`` helpers never expand a cube: numpy
broadcasts over the extent-1 axes, so :func:`stack_map` / :func:`stack_mul`
(ReLU, its mask, the chain-rule product) run once per group,
:func:`stack_matmul` is a broadcasting ``np.matmul`` in which each rank's
GEMM reads the shared operand in place, and :class:`BlockDiagSpmm` points
every rank's block of one block CSR at its group's single dense block.  The
only materialisation point is :func:`stack_data` (the optimizer's flat
gradients, checkpoints).  Quasi-equal sharding is geometry, not a second
data path: kernels run once per *box* of ranks sharing an exact shape
(:func:`~repro.dist.padded.cube_boxes`; one box when nothing is padded),
the block CSR places its blocks at padded offsets, no kernel loops over
ranks, and what a cached plan observes — never a type — picks the cheaper
form of a step.

All outputs preserve the input dtype, so the model's ``compute_dtype``
(float32 for benchmarks, float64 for validation) flows through untouched.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.dist.padded import CubeStack, cube_boxes, stack_shards
from repro.errors import PlanReleased
from repro.sparse import ops as _ops
from repro.sparse.ops import ReplicatedCsr, run_parts, spmm

__all__ = [
    "batched_matmul",
    "BlockDiagSpmm",
    "CubeStack",
    "cube_boxes",
    "stack_shards",
    "shard_views",
    "stack_data",
    "stack_matmul",
    "side_by_side",
    "stack_transpose",
    "stack_map",
    "stack_mul",
    "concat_stack_rows",
]


def shard_views(stacked) -> list[np.ndarray]:
    """Per-rank exact-shaped views into a stack (or the entries of a raw
    ndarray / list): the model's rank-indexed accessors."""
    return stacked.views() if isinstance(stacked, CubeStack) else list(stacked)


def stack_data(stacked) -> np.ndarray:
    """The flat ``(world, ...)`` ndarray behind a stack — what persisted
    state and the optimizer hold.  A replicated cube is materialised here
    (one copy; a view when nothing is replicated, so a persisted stack hands
    out its own writable memory).

    Pads are zero and their gradients stay zero, so handing the raw array to
    elementwise consumers (the optimizer, mask products) is safe.
    """
    return stacked if isinstance(stacked, np.ndarray) else stacked.flat()


def _pair(a, b) -> tuple[CubeStack, CubeStack]:
    """Two operands, stacks or raw, as stacks laid out on one grid — the
    first stack's — so the caller's numpy op broadcasts over the extent-1
    replica axes and runs once per group."""
    a = CubeStack.of(a, getattr(a, "grid", None) or getattr(b, "grid", None))
    return a, CubeStack.of(b, a.grid)


def stack_transpose(stacked) -> CubeStack:
    """Per-rank transpose of a stacked operand (a view)."""
    return CubeStack.of(stacked).transpose()


def stack_map(fn: Callable[[np.ndarray], np.ndarray], stacked) -> CubeStack:
    """Apply an elementwise kernel to a stack, on its cube — once per group,
    not once per replica.  Pad entries are zero, so any kernel with
    ``fn(0) == 0`` (ReLU, its gradient mask, scaling) leaves them inert."""
    s = CubeStack.of(stacked)
    return CubeStack(fn(s.cube), s.grid, s.rows, s.cols)


def stack_mul(a, b) -> CubeStack:
    """Elementwise product of two stacked operands of matching geometry.

    The operands multiply in cube layout: the product is replicated along
    the axes *both* are, and computed once per group there (pads: 0 * 0);
    past :data:`~repro.sparse.ops._PASS_MIN` bytes in shard-row ranges on
    the pool (:func:`~repro.sparse.ops.run_rows`)."""
    a, b = _pair(a, b)
    padded = b if a.rows is None else a
    if a.cube.nbytes < _ops._PASS_MIN or _ops._part.active or (_ops._share or _ops.parallelism()[0]) < 2:
        return CubeStack(a.cube * b.cube, a.grid, padded.rows, padded.cols)
    out = np.empty(np.broadcast_shapes(a.cube.shape, b.cube.shape), np.result_type(a.cube, b.cube))
    _ops.run_rows(partial(_ops._ufunc_rows, np.multiply, a.cube, b.cube, out), out.shape)
    return CubeStack(out, a.grid, padded.rows, padded.cols)


def _cut(box: tuple, lead: tuple) -> tuple:
    """``box`` (slices over the broadcast cube) as an index into an operand
    cube with leading extents ``lead``: extent-1 axes are read in place."""
    return tuple(slice(0, 1) if e == 1 else s for s, e in zip(box, lead))


def _per_rank(key: bytes | None, pad: int, world: int) -> np.ndarray:
    """An extent key back as its ``(world,)`` vector (``None``: every rank
    fills the pad)."""
    return np.full(world, pad) if key is None else np.frombuffer(key, dtype=np.int64)


#: multiply-adds each part of a split GEMM step must carry, and each of two
#: GEMMs run side by side (``core.layers``): below it, handing a part to a
#: pool thread (≈50 µs of wake-up and hand-back) costs more than it saves.
#: On a 2-CPU host two parts break even between 2 M and 16 M multiply-adds
#: in all, by form and matrix shape (narrow TN last), and save 20-45 % of
#: the wall time from 16 M on (the measured curve: CHANGES.md).  A
#: step splits from 8 M: every benchmark GEMM past it (14-57 M) gains
_GEMM_PAR_MIN = 1 << 22


def side_by_side(work: int) -> bool:
    """Whether two independent GEMMs of ``work`` multiply-adds each pay for
    running side by side on this process's pool (its CPU share as of now)."""
    return work >= _GEMM_PAR_MIN and (_ops._share or _ops.parallelism()[0]) > 1


@lru_cache(maxsize=256)
def _matmul_plan(grid, a_shape, b_shape, m_key, k_key, k2_key, n_key, share) -> tuple:
    """The box plan of one GEMM signature on a CPU share of ``share``:
    ``(output cube shape, valid rows, valid cols, steps, alloc)``.  Extent
    keys are the bytes of an operand's ``(world,)`` vectors, ``None`` where
    every extent is its cube's.  ``steps`` holds one ``(a index, b index,
    out index, thin)`` per non-empty exact-shape box (``thin``: a vector
    product), or is ``None`` when one box spans the cubes at full extent and
    is not thin — the product is then a plain ``np.matmul`` of the cubes.
    A one-box plan whose multiply-adds pass :data:`_GEMM_PAR_MIN` per part
    is cut along its first cube axis with extent > 1 into ``min(share,
    work / _GEMM_PAR_MIN, extent)`` steps that run side by side; ``alloc``
    is then the output's allocator (``np.empty`` when the steps tile it),
    else ``None``.  A pure function of the geometry and the share."""
    world = grid[0] * grid[1] * grid[2]
    a_lead, b_lead = a_shape[:3], b_shape[:3]
    lead = np.broadcast_shapes(a_lead, b_lead)
    pad_m, pad_k, pad_n = a_shape[3], a_shape[4], b_shape[4]
    if np.any(_per_rank(k_key, pad_k, world) != _per_rank(k2_key, b_shape[3], world)):
        raise ValueError("stack_matmul: inner extents disagree")
    if m_key is None and n_key is None:
        rows = cols = None
    else:
        rows, cols = _per_rank(m_key, pad_m, world), _per_rank(n_key, pad_n, world)
    boxes = cube_boxes(grid, lead, m_key or pad_m, k_key or pad_k, n_key or pad_n)
    steps = []
    for box, (m, k, n) in boxes:
        if m and k and n:  # an empty product leaves its (zero) output block alone
            inner = slice(0, k)
            steps.append(
                (
                    _cut(box, a_lead) + (slice(0, m), inner),
                    _cut(box, b_lead) + (inner, slice(0, n)),
                    box + (slice(0, m), slice(0, n)),
                    m == 1 or n == 1,
                )
            )
    shape = lead + (pad_m, pad_n)
    axis = next((i for i, e in enumerate(lead) if e > 1), None)
    parts = 1
    if len(boxes) == 1 and steps and axis is not None:
        m, k, n = boxes[0][1]
        work = lead[0] * lead[1] * lead[2] * m * k * n
        parts = max(1, min(share, work // max(_GEMM_PAR_MIN, 1), lead[axis]))
    _ops.note_parts("gemm", parts)
    if parts > 1:  # the slabs tile the output unless its rows or cols are padded
        alloc = np.empty if (m, n) == (pad_m, pad_n) else np.zeros
        return shape, rows, cols, _split_step(steps[0], axis, parts, a_lead, b_lead), alloc
    if len(boxes) == 1 and boxes[0][1] == (pad_m, pad_k, pad_n) and not (steps and steps[0][3]):
        steps = None
    return shape, rows, cols, steps, None


def _split_step(step: tuple, axis: int, parts: int, a_lead: tuple, b_lead: tuple) -> list:
    """One box's step cut into ``parts`` along cube axis ``axis`` of the
    output: about equal slabs, each read from the operands' slabs (an
    operand with extent 1 there is read whole by every part).  Every rank's
    GEMM keeps its operands, strides and output block, so it rounds as in
    the uncut step."""
    ia, ib, io, thin = step
    n = io[axis].stop
    bounds = [n * i // parts for i in range(parts + 1)]

    def slab(index: tuple, cut: bool, lo: int, hi: int) -> tuple:
        return index[:axis] + (slice(lo, hi),) + index[axis + 1 :] if cut else index

    a_cut, b_cut = a_lead[axis] > 1, b_lead[axis] > 1
    return [
        (slab(ia, a_cut, lo, hi), slab(ib, b_cut, lo, hi), slab(io, True, lo, hi), thin)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray, thin: bool) -> None:
    """One step of a split :func:`stack_matmul`, written into ``out``."""
    if thin:
        out[...] = np.matmul(a.copy(order="K"), b.copy(order="K"))
    else:
        np.matmul(a, b, out=out)


def stack_matmul(a, b, *, ta: bool = False, tb: bool = False) -> CubeStack:
    """Per-rank ``op(a[r]) @ op(b[r])`` over stacked operands.

    A *broadcasting* matmul over the ``(z, x, y)`` cube axes — H (extent 1
    along X) times the gathered W (extent 1 along Z) yields the full cube
    without either operand ever being copied per rank — run once per
    exact-shape *box* of the cube (see :func:`~repro.dist.padded.cube_boxes`;
    the plan is cached per operand signature) on ``cube[box, :m, :k]`` views,
    written straight into the zero-padded output: each rank's GEMM gets its
    exact extents — pads never enter a dot product — and exactly the operands
    (values, unit inner stride, transposition) :func:`batched_matmul` hands
    BLAS for the same product, so it rounds identically.  When nothing is
    padded the plan is one box and the product one ``np.matmul`` of the cubes.
    A one-box product past break-even runs in slabs of ranks on the
    process's pool (:func:`~repro.sparse.ops.run_parts`), bitwise the same —
    unless it already is a part of one (a GEMM run beside another): its CPU
    share is then 1.
    """
    a, b = _pair(a, b)
    ac, m_key, k_key = a.cube, a.rows, a.cols
    bc, k2_key, n_key = b.cube, b.rows, b.cols
    if ta:
        ac, m_key, k_key = ac.swapaxes(-1, -2), k_key, m_key
    if tb:
        bc, k2_key, n_key = bc.swapaxes(-1, -2), n_key, k2_key
    shape, rows, cols, steps, alloc = _matmul_plan(
        a.grid,
        ac.shape,
        bc.shape,
        m_key if m_key is None else m_key.tobytes(),
        k_key if k_key is None else k_key.tobytes(),
        k2_key if k2_key is None else k2_key.tobytes(),
        n_key if n_key is None else n_key.tobytes(),
        1 if _ops._part.active else _ops._share or _ops.parallelism()[0],
    )
    if steps is None:
        return CubeStack(np.matmul(ac, bc), a.grid, rows, cols)
    dtype = np.result_type(ac.dtype, bc.dtype)
    if alloc is not None:
        out = alloc(shape, dtype=dtype)
        run_parts([partial(_gemm, ac[ia], bc[ib], out[io], thin) for ia, ib, io, thin in steps], "gemm")
        return CubeStack(out, a.grid, rows, cols)
    out = np.zeros(shape, dtype=dtype)
    for ia, ib, io, thin in steps:
        if thin:
            # one valid row or column: numpy hands these to BLAS level 1/2
            # (dot / gemv), whose kernels round by operand *stride* — give
            # them the tight operands and output the per-rank reference has
            out[io] = np.matmul(ac[ia].copy(order="K"), bc[ib].copy(order="K"))
        else:
            np.matmul(ac[ia], bc[ib], out=out[io])
    return CubeStack(out, a.grid, rows, cols)


@lru_cache(maxsize=256)
def _concat_plan(grid, lead, pads: tuple, row_keys: tuple) -> tuple:
    """Where each part's valid rows land in the row concatenation:
    ``(per-rank total rows or None, [(part, source index, target index)])``,
    one entry per box on which the part's valid rows and its row offset (the
    earlier parts' valid rows) are both constant."""
    world = grid[0] * grid[1] * grid[2]
    total = np.zeros(world, dtype=np.int64)
    steps = []
    for i, (pad, key) in enumerate(zip(pads, row_keys)):
        for box, (n, at) in cube_boxes(grid, lead, key or pad, total.tobytes()):
            if n:
                steps.append((i, box + (slice(0, n),), box + (slice(at, at + n),)))
        total = total + _per_rank(key, pad, world)
    return (None if all(k is None for k in row_keys) else total), steps


def concat_stack_rows(parts: Sequence) -> CubeStack:
    """Concatenate stacks along the shard-row axis (blocked aggregation's
    reassembly step).  Pure copying — bitwise identical to
    ``np.concatenate`` over each rank's block results: each part's valid rows
    are copied box by box behind the earlier parts' valid rows, once per
    replica group."""
    grid = next((p.grid for p in parts if hasattr(p, "grid")), None)
    parts = [CubeStack.of(p, grid) for p in parts]
    grid, width = parts[0].grid, parts[0].cube.shape[4:]
    # a row block every rank holds the same height of carries no extents:
    # its valid columns are the cube's
    cols = next((p.cols for p in parts if p.cols is not None), None)
    for p in parts:
        if p.cube.shape[4:] != width or (
            p.cols is not cols and np.any((width[0] if p.cols is None else p.cols) != cols)
        ):
            raise ValueError("concat_stack_rows: column extents disagree across parts")
    # blocks of one aggregation share their replication; a mix concatenates
    # at the widest extents
    lead = np.broadcast_shapes(*(p.cube.shape[:3] for p in parts))
    pads = tuple(p.cube.shape[3] for p in parts)
    rows, steps = _concat_plan(
        grid, lead, pads, tuple(None if p.rows is None else p.rows.tobytes() for p in parts)
    )
    cubes = [
        p.cube if p.cube.shape[:3] == lead else np.broadcast_to(p.cube, lead + p.cube.shape[3:])
        for p in parts
    ]
    # the pad extent is the parts' pads end to end (quasi-equal row blocks:
    # the rank with the most rows has the most in every block)
    out = np.zeros(lead + (sum(pads),) + width, dtype=parts[0].dtype)
    for i, src, dst in steps:
        out[dst] = cubes[i][src]
    return CubeStack(out, grid, rows, cols)


def batched_matmul(
    a_list: Sequence[np.ndarray],
    b_list: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Per-rank ``a_list[r] @ b_list[r]`` as one batched GEMM per shape group.

    Ranks whose operand shapes match are stacked and multiplied with a
    single ``np.matmul`` on ``(g, m, k) @ (g, k, n)``; the returned per-rank
    arrays are views into each group's output block.
    """
    world = len(a_list)
    if len(b_list) != world:
        raise ValueError(f"operand count mismatch: {world} != {len(b_list)}")
    out: list[np.ndarray | None] = [None] * world
    buckets: dict[tuple, list[int]] = {}
    for r in range(world):
        buckets.setdefault((a_list[r].shape, b_list[r].shape), []).append(r)
    for ranks in buckets.values():
        prod = np.matmul(
            np.stack([a_list[r] for r in ranks]),
            np.stack([b_list[r] for r in ranks]),
        )
        for i, r in enumerate(ranks):
            out[r] = prod[i]
    return out  # type: ignore[return-value]


class BlockDiagSpmm:
    """All ranks' ``A_r @ F_r`` products as one block CSR product — and the
    only stored copy of the ``A_r``.

    Built once, from one matrix per rank: ``shards[r]`` (ranks holding the
    same object are replicas) or, with ``cut``, a hashable key per rank (equal
    keys: replicas) and ``cut(key)`` the matrix, called once per held shard;
    the plan copies the cuts into its ``(indptr, indices, data)`` and keeps
    none.  **A plan stores each distinct shard once**: when the ranks along
    one axis of ``grid`` (the rank cube; default ``(world, 1, 1)``) hold the
    same shard — a layer's y-role — the plan keeps the blocks of that axis's
    first replicas only, as a :class:`~repro.sparse.ops.ReplicatedCsr`:
    replica ``j``'s ranks sit a constant number of blocks further in the
    output and in the operand, so the stored CSR runs once per replica on flat
    views shifted by that constant.  Every output row is written by one of
    those calls and accumulates its shard row's nonzeros in stored order:
    bitwise a per-rank ``shards[r] @ f[r]``.

    Rank ``r``'s rows start at ``r * pad``, ``pad`` being the largest block of
    the global geometry (default: the largest of these shards — the same on
    the whole cube, not on a worker's slice).  The first :meth:`apply_batched`
    writes its operand geometry's column offsets into ``indices``; another
    geometry gets a re-offset copy.  :attr:`shards` cuts the per-rank matrices
    back out; :meth:`release` drops the arrays for good.
    """

    def __init__(
        self,
        shards: Sequence,
        pad: int | None = None,
        grid: tuple[int, int, int] | None = None,
        *,
        cut: Callable[[object], sp.csr_matrix] | None = None,
    ) -> None:
        if not len(shards):
            raise ValueError("need at least one shard")
        if cut is None:
            keys, cut = [id(s) for s in shards], {id(s): s for s in shards}.__getitem__
        else:
            keys = list(shards)
        world = self.world = len(keys)
        grid = (world, 1, 1) if grid is None else tuple(grid)
        coords = np.unravel_index(np.arange(world), grid)
        strides = (grid[1] * grid[2], grid[2], 1)
        # the replica axis: every rank holds the shard of its plane-0 rank
        axis = next(
            (
                a for a, (at, step) in enumerate(zip(coords, strides))
                if grid[a] > 1 and all(keys[r] == keys[r - at[r] * step] for r in range(world))
            ),
            None,
        )
        self._replicas, self._so = (1, 0) if axis is None else (grid[axis], strides[axis])
        #: per rank: its replica index, and the held rank whose block it multiplies by
        self._rep = np.zeros(world, dtype=np.intp) if axis is None else coords[axis]
        self._first = np.arange(world) - self._rep * self._so
        span = world - (self._replicas - 1) * self._so  # row blocks up to the last first replica's
        self._held = np.flatnonzero(self._rep[:span] == 0)
        pieces = [cut(keys[r]) for r in self._held]
        out_rows = np.asarray([s.shape[0] for s in pieces], dtype=np.int64)
        m = self._pad_m = int(out_rows.max()) if pad is None else pad
        if np.any(out_rows > m):
            i = int(np.argmax(out_rows > m))
            raise ValueError(f"rank {self._held[i]}: shard has {out_rows[i]} rows, more than the pad {m}")
        #: per rank: output rows (the product's valid extents), operand rows
        #: and nonzeros — a replica's are its held block's
        at = np.searchsorted(self._held, self._first)
        self.out_rows = out_rows[at]
        self.in_rows = np.asarray([s.shape[1] for s in pieces], dtype=np.int64)[at]
        self.rank_nnz = np.asarray([s.nnz for s in pieces], dtype=np.int64)[at]
        # when every rank fills the pad the product carries no extents
        self._even_rows = bool(np.all(self.out_rows == m))
        #: where each held block's nonzeros start in ``indices`` / ``data``
        self._at = np.cumsum([0] + [s.nnz for s in pieces]).tolist()
        idx = sp.get_index_dtype(maxval=max(self._at[-1], world * (int(self.in_rows.max()) + 1)))
        self._indptr = np.zeros(span * m + 1, dtype=idx)
        self._indices = np.empty(self._at[-1], dtype=idx)
        self._data = np.empty(self._at[-1], dtype=pieces[0].dtype)
        for i, r in enumerate(self._held):
            s, pieces[i] = pieces[i], None  # each shard dies once copied
            a, b = self._at[i], self._at[i + 1]
            np.add(s.indptr[1:], a, out=self._indptr[r * m + 1 : r * m + 1 + s.shape[0]])
            self._indices[a:b], self._data[a:b] = s.indices, s.data
        np.maximum.accumulate(self._indptr, out=self._indptr)  # rows no block wrote are empty
        #: the column offsets baked into ``indices`` (``None``: none yet), per held block
        self._offsets: list[int] | None = None
        #: f-shape signature -> list of (rank_idx, block-diag CSR, row splits)
        self._plans: dict[tuple, list[tuple[np.ndarray, sp.csr_matrix, np.ndarray]]] = {}
        #: (grid, operand cube extents, operand pad rows, its valid rows) ->
        #: block CSR of the stacked path
        self._stacked_plans: dict[tuple, ReplicatedCsr] = {}

    @property
    def nbytes(self) -> int:
        """Bytes this plan stores: its CSR arrays and any re-offset copy of ``indices``."""
        if self._data is None:
            return 0
        copies = (bd.indices for bd in self._stacked_plans.values())
        return sum({id(a): a.nbytes for a in (self._indptr, self._indices, self._data, *copies)}.values())

    def release(self) -> None:
        """Drop the stored arrays for good: any later use raises
        :class:`~repro.errors.PlanReleased`."""
        self._indptr = self._indices = self._data = None
        self._plans.clear()
        self._stacked_plans.clear()

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._data is None:
            raise PlanReleased("this SpMM plan was released: it holds no adjacency any more")
        return self._indptr, self._indices, self._data

    @property
    def shards(self) -> list[sp.csr_matrix]:
        """Each rank's matrix, cut from the stored arrays on demand: one
        object per held block, shared by its replica ranks, whose values are
        a read-only view of the plan's."""
        indptr, indices, data = self._arrays()
        m, cuts = self._pad_m, {}
        for i, r in enumerate(self._held):
            a, b, rows = self._at[i], self._at[i + 1], self.out_rows[r]
            values = data[a:b]
            values.flags.writeable = False
            offset = 0 if self._offsets is None else self._offsets[i]
            cuts[r] = sp.csr_matrix(
                (values, indices[a:b] - offset, indptr[r * m : r * m + rows + 1] - indptr[r * m]),
                shape=(rows, self.in_rows[r]),
            )
        return [cuts[r] for r in self._first]

    def _plan(self, f_shapes: tuple) -> list[tuple[np.ndarray, sp.csr_matrix, np.ndarray]]:
        plan = self._plans.get(f_shapes)
        if plan is None:
            shards = self.shards
            buckets: dict[tuple, list[int]] = {}
            for r, shape in enumerate(f_shapes):
                buckets.setdefault(shape, []).append(r)
            plan = []
            for ranks in buckets.values():
                blocks = [shards[r] for r in ranks]
                bd = sp.block_diag(blocks, format="csr")
                rows = np.asarray([b.shape[0] for b in blocks])
                plan.append((np.asarray(ranks, dtype=np.intp), bd, np.cumsum(rows)[:-1]))
            self._plans[f_shapes] = plan
        return plan

    def apply(self, f_list: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-rank ``shards[r] @ f_list[r]``, one SpMM per shape group."""
        if len(f_list) != self.world:
            raise ValueError(f"expected {self.world} dense operands, got {len(f_list)}")
        out: list[np.ndarray | None] = [None] * self.world
        for ranks, bd, splits in self._plan(tuple(f.shape for f in f_list)):
            stacked = np.concatenate([f_list[r] for r in ranks], axis=0)
            h = spmm(bd, stacked)
            for r, block in zip(ranks, np.split(h, splits, axis=0)):
                out[r] = block
        return out  # type: ignore[return-value]

    def _stacked_plan(self, grid, lead, pad_k, rows_key) -> ReplicatedCsr:
        """The stacked path's block CSR for an operand whose cube has leading
        extents ``lead``: rank ``r``'s block in row block ``r`` and in the
        column block of the operand copy it reads — its replica group's, so a
        gathered F or reduced dH is multiplied without ever being copied per
        rank — stored for the first replicas only (see the class docstring).

        Column blocks sit ``pad_k`` apart, the operand's row extent (its valid
        rows, ``rows_key`` — ``None``: all of them — must be what each shard
        expects; its pad rows are never referenced by any column index).
        """
        key = (grid, lead, pad_k, rows_key)
        bd = self._stacked_plans.get(key)
        if bd is None:
            for r, (need, k) in enumerate(zip(self.in_rows, _per_rank(rows_key, pad_k, self.world))):
                if need != k:
                    raise ValueError(f"rank {r}: dense operand has {k} valid rows, shard expects {need}")
            bd = self._stacked_plans[key] = next(
                (p for k, p in self._stacked_plans.items() if k[:3] == key[:3]), None
            ) or self._bake(grid, lead, pad_k)
        return bd

    def _bake(self, grid, lead, pad_k) -> ReplicatedCsr:
        """The block CSR of one operand geometry: the stored arrays with each
        held block's column offset added to its ``indices`` — in place for the
        first geometry, on a copy for any other."""
        indptr, indices, data = self._arrays()
        coords = np.unravel_index(np.arange(self.world), grid)
        blocks = np.ravel_multi_index([c % e for c, e in zip(coords, lead)], lead)
        # replica j reads the operand block ``j * si`` after its first replica's
        si = int(blocks[self._so] - blocks[0]) if self._replicas > 1 else 0
        if not np.array_equal(blocks, blocks[self._first] + self._rep * si):
            raise ValueError(f"an operand cube {lead} on grid {grid} does not fit the plan's replicas")
        n_blocks = int(np.prod(lead))
        if n_blocks * pad_k > np.iinfo(indices.dtype).max:
            raise ValueError(f"{n_blocks * pad_k} operand rows overflow the plan's {indices.dtype} indices")
        offsets = [int(blocks[r]) * pad_k for r in self._held]
        baked = self._offsets
        if baked is None:
            self._offsets, baked = offsets, [0] * len(offsets)
        else:
            indices = indices.copy()
        for i, (new, old) in enumerate(zip(offsets, baked)):
            indices[self._at[i] : self._at[i + 1]] += new - old
        return ReplicatedCsr(
            indptr, indices, data, (n_blocks - (self._replicas - 1) * si) * pad_k,
            (self.world * self._pad_m, n_blocks * pad_k), self._replicas,
            self._so * self._pad_m, si * pad_k,
        )

    def apply_batched(self, f) -> CubeStack:
        """Whole-grid SpMM on a stacked operand: one SpMM over one block CSR
        (see :meth:`_stacked_plan`), reading a replicated operand's one dense
        block per group.  Each valid output row accumulates exactly the
        per-rank nonzeros in CSR index order — bitwise identical to
        ``apply()``; every rank's product is its own, so the result spans the
        full cube, with the shards' row extents when they are quasi-equal."""
        f = CubeStack.of(f)
        cube, grid = f.cube, f.grid
        pad_k, c = cube.shape[3:]
        bd = self._stacked_plan(
            grid, cube.shape[:3], pad_k, None if f.rows is None else f.rows.tobytes()
        )
        h = spmm(bd, cube.reshape(-1, c)).reshape(grid + (self._pad_m, c))
        if f.rows is None and self._even_rows:
            return CubeStack(h, grid)
        return CubeStack(
            h, grid, self.out_rows, np.full(self.world, c) if f.cols is None else f.cols
        )
