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
  from one block (:class:`~repro.sparse.ops.ReplicatedCsr`), and A^T exists
  only inside its plan.  CSR row accumulation order is unchanged, so results
  are bitwise-identical to the per-rank products.

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

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.dist.padded import CubeStack, cube_boxes, stack_shards
from repro.sparse.ops import ReplicatedCsr, spmm

__all__ = [
    "batched_matmul",
    "BlockDiagSpmm",
    "CubeStack",
    "cube_boxes",
    "stack_shards",
    "shard_views",
    "stack_data",
    "stack_matmul",
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
    the axes *both* are, and computed once per group there (pads: 0 * 0)."""
    a, b = _pair(a, b)
    padded = b if a.rows is None else a
    return CubeStack(a.cube * b.cube, a.grid, padded.rows, padded.cols)


def _cut(box: tuple, lead: tuple) -> tuple:
    """``box`` (slices over the broadcast cube) as an index into an operand
    cube with leading extents ``lead``: extent-1 axes are read in place."""
    return tuple(slice(0, 1) if e == 1 else s for s, e in zip(box, lead))


def _per_rank(key: bytes | None, pad: int, world: int) -> np.ndarray:
    """An extent key back as its ``(world,)`` vector (``None``: every rank
    fills the pad)."""
    return np.full(world, pad) if key is None else np.frombuffer(key, dtype=np.int64)


@lru_cache(maxsize=256)
def _matmul_plan(grid, a_shape, b_shape, m_key, k_key, k2_key, n_key) -> tuple:
    """The box plan of one GEMM signature: ``(output cube shape, valid rows,
    valid cols, steps)``.  Extent keys are the bytes of an operand's
    ``(world,)`` vectors, ``None`` where every extent is its cube's.
    ``steps`` holds one ``(a index, b index, out index, thin)`` per non-empty
    exact-shape box (``thin``: a vector product), or is ``None`` when one box
    spans the cubes at full extent and is not thin — the product is then a
    plain ``np.matmul`` of the cubes.  A pure function of the geometry."""
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
    if len(boxes) == 1 and boxes[0][1] == (pad_m, pad_k, pad_n) and not (steps and steps[0][3]):
        steps = None
    return lead + (pad_m, pad_n), rows, cols, steps


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
    """
    a, b = _pair(a, b)
    ac, m_key, k_key = a.cube, a.rows, a.cols
    bc, k2_key, n_key = b.cube, b.rows, b.cols
    if ta:
        ac, m_key, k_key = ac.swapaxes(-1, -2), k_key, m_key
    if tb:
        bc, k2_key, n_key = bc.swapaxes(-1, -2), n_key, k2_key
    shape, rows, cols, steps = _matmul_plan(
        a.grid,
        ac.shape,
        bc.shape,
        m_key if m_key is None else m_key.tobytes(),
        k_key if k_key is None else k_key.tobytes(),
        k2_key if k2_key is None else k2_key.tobytes(),
        n_key if n_key is None else n_key.tobytes(),
    )
    if steps is None:
        return CubeStack(np.matmul(ac, bc), a.grid, rows, cols)
    out = np.zeros(shape, dtype=np.result_type(ac.dtype, bc.dtype))
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
    """All ranks' ``A_r @ F_r`` products (``A_r^T @ F_r`` when ``transposed``)
    as one block CSR product.

    Built once per layer from the per-rank adjacency shards, which it only
    references; the block CSR for one dense-operand geometry is assembled on
    first use and cached (the geometry is fixed by the layer's sharding, so
    in steady state every call is one cache hit plus one ``spmm``).  **A plan
    stores each distinct shard once**: ranks along one cube axis (a layer's
    y-role) hold the same shard *object*, and the plan keeps the blocks of
    that axis's first replicas only, as a
    :class:`~repro.sparse.ops.ReplicatedCsr` — replica ``j``'s ranks sit a
    constant number of blocks further in the output and in the operand, so the
    stored CSR runs once per replica on flat views shifted by that constant.
    Every output row is written by one of those calls and accumulates its
    shard row's nonzeros in stored order: bitwise a per-rank ``shards[r] @
    f[r]``.  A transposed plan cuts ``shard.T.tocsr()`` per distinct shard
    while it is assembled and drops it: no A^T is stored.
    """

    def __init__(
        self, shards: Sequence[sp.csr_matrix], transposed: bool = False, pad: int | None = None
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self.transposed = transposed
        self.world = len(shards)
        #: f-shape signature -> list of (rank_idx, block-diag CSR, row splits)
        self._plans: dict[tuple, list[tuple[np.ndarray, sp.csr_matrix, np.ndarray]]] = {}
        #: (grid, operand cube extents, operand pad rows, its valid rows) ->
        #: block CSR of the stacked path
        self._stacked_plans: dict[tuple, ReplicatedCsr] = {}
        #: each rank's output rows — the valid extents of the product — and
        #: their pad, the largest block of the global geometry (default: the
        #: largest of these shards — the same on the whole cube, not on a
        #: worker's slice); when they all fill it the product carries no extents
        self._out_rows = np.asarray([s.shape[transposed] for s in shards], dtype=np.int64)
        self._pad_m = int(self._out_rows.max()) if pad is None else pad
        self._even_rows = bool(np.all(self._out_rows == self._pad_m))

    @property
    def nbytes(self) -> int:
        """CSR bytes of the stacked plans built so far (the shards are the caller's)."""
        return sum(bd.nbytes for bd in self._stacked_plans.values())

    def release(self) -> None:
        """Drop the stacked plans built so far; the shards stay (``apply``
        reads them, ``apply_batched`` rebuilds from them)."""
        self._stacked_plans.clear()

    def _block(self, rank: int) -> sp.csr_matrix:
        """The matrix rank ``rank`` multiplies by (a temporary when transposed)."""
        return self.shards[rank].T.tocsr() if self.transposed else self.shards[rank]

    def _plan(self, f_shapes: tuple) -> list[tuple[np.ndarray, sp.csr_matrix, np.ndarray]]:
        plan = self._plans.get(f_shapes)
        if plan is None:
            buckets: dict[tuple, list[int]] = {}
            for r, shape in enumerate(f_shapes):
                buckets.setdefault(shape, []).append(r)
            plan = []
            for ranks in buckets.values():
                blocks = [self._block(r) for r in ranks]
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

        Row blocks sit ``max(shard rows)`` apart — the pad rows, and the later
        replicas' row blocks the stored window spans, carry no nonzeros — and
        column blocks ``pad_k`` apart, the operand's row extent (its valid
        rows, ``rows_key`` — ``None``: all of them — must be what each shard
        expects; its pad rows are never referenced by any column index).
        """
        key = (grid, lead, pad_k, rows_key)
        bd = self._stacked_plans.get(key)
        if bd is None:
            shards, world, m = self.shards, self.world, self._pad_m
            coords = np.unravel_index(np.arange(world), grid)
            blocks = np.ravel_multi_index([c % e for c, e in zip(coords, lead)], lead)
            for r, (s, k) in enumerate(zip(shards, _per_rank(rows_key, pad_k, world))):
                need = s.shape[not self.transposed]
                if need != k:
                    raise ValueError(f"rank {r}: dense operand has {k} valid rows, shard expects {need}")
            # the replica axis: every rank holds the shard object of its plane-0 rank
            strides, in_strides = (grid[1] * grid[2], grid[2], 1), (lead[1] * lead[2], lead[2], 1)
            axis = next(
                (
                    a for a, (at, step) in enumerate(zip(coords, strides))
                    if grid[a] > 1 and all(shards[r] is shards[r - at[r] * step] for r in range(world))
                ),
                None,
            )
            replicas, so, si = (
                (1, 0, 0) if axis is None else (grid[axis], strides[axis], in_strides[axis] * (lead[axis] > 1))
            )
            span = world - (replicas - 1) * so  # row blocks up to the last first replica's
            held = [r for r in range(span) if axis is None or coords[axis][r] == 0]
            n_blocks = int(blocks.max()) + 1
            nnz = sum(shards[r].nnz for r in held)
            idx = sp.get_index_dtype(maxval=max(nnz, n_blocks * pad_k))
            indptr = np.zeros(span * m + 1, dtype=idx)
            indices, data = np.empty(nnz, dtype=idx), np.empty(nnz, dtype=shards[0].dtype)
            at = 0
            for r in held:
                block = self._block(r)
                end = at + block.nnz
                np.add(block.indptr[1:], at, out=indptr[r * m + 1 : r * m + 1 + block.shape[0]])
                np.add(block.indices, int(blocks[r]) * pad_k, out=indices[at:end])
                data[at:end] = block.data
                at = end
            np.maximum.accumulate(indptr, out=indptr)  # rows no block wrote are empty
            bd = self._stacked_plans[key] = ReplicatedCsr(
                indptr, indices, data, (n_blocks - (replicas - 1) * si) * pad_k,
                (world * m, n_blocks * pad_k), replicas, so * m, si * pad_k,
            )
        return bd

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
            h, grid, self._out_rows, np.full(self.world, c) if f.cols is None else f.cols
        )
