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
* :class:`BlockDiagSpmm` concatenates the per-rank adjacency shards into one
  block-diagonal CSR matrix per bucket so the whole grid's SpMM is a single
  ``A_bd @ vstack(F)`` call.  CSR row accumulation order is unchanged, so
  results are bitwise-identical to the per-rank products.

The layers run on the stacked forms below (:func:`stack_matmul`,
:meth:`BlockDiagSpmm.apply_batched`); the list forms — :func:`batched_matmul`
and :meth:`BlockDiagSpmm.apply`, which tolerate quasi-equal shapes by
grouping — are what the per-rank reference (``tests/oracle.py``) multiplies
with, so both sides hand BLAS the same operand layouts.  The stacked
outputs feed straight into the handle-based communicators
(``PlexusGrid.comm(axis)``): a ``(world, m, n)`` product is the operand of
one issued axis collective, whose :class:`~repro.dist.comm.PendingCollective`
is waited where the next kernel consumes the result.

A collective's result comes back in the replica-free cube layout of
:mod:`repro.dist.padded`: the ``(Gz, Gx, Gy, m, n)`` rank cube with extent 1
along every axis the value is identical on (H after the X-all-reduce, Q
after the Y-all-reduce, W / F after the Z-all-gather — see
``repro.dist.comm``) — a :class:`~repro.dist.padded.ReplicatedStack` when
every dimension divides its grid axis, a
:class:`~repro.dist.padded.PaddedStack` (zero pads, per-rank valid extents as
metadata) when sharding is quasi-equal.  The ``stack_*`` helpers never
expand it: they view a flat partner into the cube and let numpy broadcast
over the extent-1 axes, so :func:`stack_map` / :func:`stack_mul` (ReLU, its
mask, the chain-rule product) run once per group, :func:`stack_matmul` is a
broadcasting ``np.matmul`` in which each rank's GEMM reads the shared
operand in place, and :class:`BlockDiagSpmm` points every rank's block of
one block CSR at its group's single dense block.  The only
materialisation point is :func:`stack_data` (the optimizer's flat
gradients, checkpoints); persisted state (weights, features, labels, masks,
Adam moments) is flat throughout and is accepted by every helper as is.

What quasi-equal sharding adds is geometry, not a second data path: the
ranks that share one exact shape form contiguous *boxes* of the cube
(:func:`~repro.dist.padded.cube_boxes`, at most eight).  :func:`stack_matmul`
runs its broadcasting matmul once per box on ``cube[box, :m, :k]`` views — no
dot product ever sums over a pad entry, so the association order matches a
per-rank loop bitwise — :func:`concat_stack_rows` copies each row block's
valid rows box by box, and the block CSR places its blocks at padded offsets
(pad rows carry no nonzeros).  No kernel loops over ranks.

All outputs preserve the input dtype, so the model's ``compute_dtype``
(float32 for benchmarks, float64 for validation) flows through untouched.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.dist.padded import PaddedStack, ReplicatedStack, cube_boxes, stack_shards
from repro.sparse.ops import spmm

__all__ = [
    "batched_matmul",
    "BlockDiagSpmm",
    "PaddedStack",
    "ReplicatedStack",
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
    """Per-rank views into a stack of any kind (ndarray / ReplicatedStack /
    PaddedStack / list): the model's rank-indexed accessors."""
    if isinstance(stacked, (PaddedStack, ReplicatedStack)):
        return stacked.views()
    return list(stacked)


def stack_data(stacked) -> np.ndarray:
    """The flat ``(world, ...)`` ndarray behind a stack of any kind — what
    persisted state and the optimizer hold.  A replicated cube is
    materialised here (one copy; a view when nothing is replicated, so a
    persisted padded stack hands out its own writable memory).

    Padded pads are zero and their gradients stay zero, so handing the raw
    array to elementwise consumers (the optimizer, mask products) is safe.
    """
    return stacked if isinstance(stacked, np.ndarray) else stacked.flat()


def _cube_pair(a, b):
    """``(grid, a_cube, b_cube)`` when either uniform operand is a
    :class:`ReplicatedStack` (a flat partner is viewed into the cube, no
    copy), so the caller's numpy op broadcasts over the extent-1 replica
    axes and runs once per group; ``None`` when both are flat."""
    if isinstance(a, ReplicatedStack):
        grid = a.grid
    elif isinstance(b, ReplicatedStack):
        grid = b.grid
    else:
        return None
    return grid, ReplicatedStack.cube_of(a, grid), ReplicatedStack.cube_of(b, grid)


def stack_transpose(stacked):
    """Per-rank transpose of a stacked operand (a view, any kind)."""
    if isinstance(stacked, (PaddedStack, ReplicatedStack)):
        return stacked.transpose()
    return stacked.transpose(0, 2, 1)


def stack_map(fn: Callable[[np.ndarray], np.ndarray], stacked):
    """Apply an elementwise kernel to a stack of any kind.

    A :class:`ReplicatedStack` is mapped on its cube — once per group, not
    once per replica.  Pad entries of a :class:`PaddedStack` are zero, so
    any kernel with ``fn(0) == 0`` (ReLU, its gradient mask, scaling)
    leaves them inert."""
    if isinstance(stacked, PaddedStack):
        return PaddedStack(fn(stacked.cube), stacked.grid, stacked.rows, stacked.cols)
    if isinstance(stacked, ReplicatedStack):
        return ReplicatedStack(fn(stacked.cube), stacked.grid)
    return fn(stacked)


def stack_mul(a, b):
    """Elementwise product of two stacked operands of matching geometry.

    The operands multiply in cube layout: the product is replicated along
    the axes *both* are, and computed once per group there (pads: 0 * 0)."""
    if isinstance(a, PaddedStack):
        other = b.cube if isinstance(b, PaddedStack) else ReplicatedStack.cube_of(b, a.grid)
        return PaddedStack(a.cube * other, a.grid, a.rows, a.cols)
    if isinstance(b, PaddedStack):
        return stack_mul(b, a)
    pair = _cube_pair(a, b)
    if pair is None:
        return a * b
    grid, ac, bc = pair
    return ReplicatedStack(ac * bc, grid)


def _cut(box: tuple, lead: tuple) -> tuple:
    """``box`` (slices over the broadcast cube) as an index into an operand
    cube with leading extents ``lead``: extent-1 axes are read in place."""
    return tuple(slice(0, 1) if e == 1 else s for s, e in zip(box, lead))


def _matmul_operand(x, grid, transposed: bool) -> tuple:
    """``(cube, rows key, cols key)`` of one :func:`stack_matmul` operand,
    per-rank transposed on request (a view)."""
    if isinstance(x, PaddedStack):
        cube, rows, cols = x.cube_on(grid), x.rows.tobytes(), x.cols.tobytes()
    else:  # uniform: the all-valid cube
        cube, rows, cols = ReplicatedStack.cube_of(x, grid), None, None
    return (cube.swapaxes(-1, -2), cols, rows) if transposed else (cube, rows, cols)


@lru_cache(maxsize=256)
def _matmul_plan(grid, a_shape, b_shape, m_key, k_key, k2_key, n_key) -> tuple:
    """The box plan of one padded GEMM signature: ``(output cube shape, valid
    rows, valid cols, [(a index, b index, out index, thin)])`` with one entry
    per non-empty exact-shape box (``thin``: a vector product).  Extent keys are the bytes of a padded
    operand's ``(world,)`` vectors, ``None`` for a uniform operand (every
    extent is its cube's).  A pure function of the geometry."""
    a_lead, b_lead = a_shape[:3], b_shape[:3]
    lead = np.broadcast_shapes(a_lead, b_lead)
    pad_m, pad_k, pad_n = a_shape[3], a_shape[4], b_shape[4]

    def per_rank(key, pad):
        return np.full(grid[0] * grid[1] * grid[2], pad) if key is None else np.frombuffer(key, dtype=np.int64)

    if np.any(per_rank(k_key, pad_k) != per_rank(k2_key, b_shape[3])):
        raise ValueError("stack_matmul: inner extents disagree")
    steps = []
    for box, (m, k, n) in cube_boxes(grid, lead, m_key or pad_m, k_key or pad_k, n_key or pad_n):
        if m and k and n:  # an empty product leaves its (zero) output block alone
            rows, inner, cols = slice(0, m), slice(0, k), slice(0, n)
            steps.append(
                (
                    _cut(box, a_lead) + (rows, inner),
                    _cut(box, b_lead) + (inner, cols),
                    box + (rows, cols),
                    m == 1 or n == 1,
                )
            )
    return lead + (pad_m, pad_n), per_rank(m_key, pad_m), per_rank(n_key, pad_n), steps


def stack_matmul(a, b, *, ta: bool = False, tb: bool = False):
    """Per-rank ``op(a[r]) @ op(b[r])`` over stacked operands.

    Uniform operands take the single ``np.matmul`` fast path; with a
    :class:`ReplicatedStack` on either side it is a *broadcasting* matmul
    over the ``(z, x, y)`` cube axes — H (extent 1 along X) times the
    gathered W (extent 1 along Z) yields the full cube without either
    operand ever being copied per rank, and every rank's GEMM sees exactly
    the operands (values, inner strides, transposition) it would have seen
    in a flat stack, so BLAS rounds identically.  With a
    :class:`PaddedStack` on either side the same broadcasting matmul runs
    once per exact-shape *box* of the cube (see
    :func:`~repro.dist.padded.cube_boxes`; the plan is cached per operand
    signature) on ``cube[box, :m, :k]`` views, written straight into the
    zero-padded output: each rank's GEMM gets its exact extents — pads never
    enter a dot product — with a unit inner stride, which is what keeps
    numpy on the BLAS kernel :func:`batched_matmul` takes for the same
    product.  A uniform partner is the all-valid cube, viewed, not copied.
    """
    if not isinstance(a, PaddedStack) and not isinstance(b, PaddedStack):
        pair = _cube_pair(a, b)
        if pair is None:
            aa = a.transpose(0, 2, 1) if ta else a
            bb = b.transpose(0, 2, 1) if tb else b
            return np.matmul(aa, bb)
        grid, aa, bb = pair
        return ReplicatedStack(
            np.matmul(aa.swapaxes(-1, -2) if ta else aa, bb.swapaxes(-1, -2) if tb else bb), grid
        )
    grid = a.grid if isinstance(a, PaddedStack) else b.grid
    ac, m_key, k_key = _matmul_operand(a, grid, ta)
    bc, k2_key, n_key = _matmul_operand(b, grid, tb)
    shape, rows, cols, steps = _matmul_plan(grid, ac.shape, bc.shape, m_key, k_key, k2_key, n_key)
    out = np.zeros(shape, dtype=np.result_type(ac.dtype, bc.dtype))
    for ia, ib, io, thin in steps:
        if thin:
            # one valid row or column: numpy hands these to BLAS level 1/2
            # (dot / gemv), whose kernels round by operand *stride* — give
            # them the tight operands and output the per-rank reference has
            out[io] = np.matmul(ac[ia].copy(order="K"), bc[ib].copy(order="K"))
        else:
            np.matmul(ac[ia], bc[ib], out=out[io])
    return PaddedStack(out, grid, rows, cols)


@lru_cache(maxsize=256)
def _concat_plan(grid, lead, row_keys: tuple) -> tuple:
    """Where each part's valid rows land in the row concatenation:
    ``(per-rank total rows, [(part, source index, target index)])``, one
    entry per box on which the part's valid rows and its row offset (the
    earlier parts' valid rows) are both constant."""
    total = np.zeros(grid[0] * grid[1] * grid[2], dtype=np.int64)
    steps = []
    for i, key in enumerate(row_keys):
        for box, (n, at) in cube_boxes(grid, lead, key, total.tobytes()):
            if n:
                steps.append((i, box + (slice(0, n),), box + (slice(at, at + n),)))
        total = total + np.frombuffer(key, dtype=np.int64)
    return total, steps


def concat_stack_rows(parts: Sequence):
    """Concatenate stacks along the shard-row axis (blocked aggregation's
    reassembly step).  Pure copying — bitwise identical to
    ``np.concatenate`` over each rank's block results.  Padded parts are
    copied box by box (valid rows only, behind the earlier parts' valid
    rows), once per replica group."""
    if all(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(parts, axis=1)
    if all(isinstance(p, (np.ndarray, ReplicatedStack)) for p in parts):
        grid = next(p.grid for p in parts if isinstance(p, ReplicatedStack))
        cubes = [ReplicatedStack.cube_of(p, grid) for p in parts]
        # blocks of one aggregation share their replication; a mix would
        # concatenate at the widest extents
        lead = np.broadcast_shapes(*(c.shape[:3] for c in cubes))
        cubes = [np.broadcast_to(c, lead + c.shape[3:]) for c in cubes]
        return ReplicatedStack(np.concatenate(cubes, axis=3), grid)
    grid = next(p.grid for p in parts if isinstance(p, PaddedStack))
    # a row block every rank holds the same height of comes back uniform
    parts = [p if isinstance(p, PaddedStack) else PaddedStack.all_valid(p, grid) for p in parts]
    cols = parts[0].cols
    if any(p.cols is not cols and np.any(p.cols != cols) for p in parts):
        raise ValueError("concat_stack_rows: column extents disagree across parts")
    lead = np.broadcast_shapes(*(p.cube.shape[:3] for p in parts))
    rows, steps = _concat_plan(grid, lead, tuple(p.rows.tobytes() for p in parts))
    cubes = [
        p.cube if p.cube.shape[:3] == lead else np.broadcast_to(p.cube, lead + p.cube.shape[3:])
        for p in parts
    ]
    # the pad extent is the parts' pads end to end (quasi-equal row blocks:
    # the rank with the most rows has the most in every block)
    height = sum(c.shape[3] for c in cubes)
    out = np.zeros(lead + (height,) + cubes[0].shape[4:], dtype=cubes[0].dtype)
    for i, src, dst in steps:
        out[dst] = cubes[i][src]
    return PaddedStack(out, grid, rows, cols)


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
    """All ranks' ``A_r @ F_r`` products as one SpMM per shape group.

    Built once per layer from the per-rank adjacency shards; the expensive
    block-diagonal assembly is cached per dense-operand shape signature (the
    signature is fixed by the layer's sharding, so in steady state every
    call is one cache hit plus one ``spmm`` per group).
    """

    def __init__(self, shards: Sequence[sp.csr_matrix]) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self.world = len(shards)
        self.uniform = len({s.shape for s in shards}) == 1
        #: f-shape signature -> list of (rank_idx, block-diag CSR, row splits)
        self._plans: dict[tuple, list[tuple[np.ndarray, sp.csr_matrix, np.ndarray]]] = {}
        #: (grid, operand cube extents, operand pad rows, its valid rows) ->
        #: block CSR of the stacked paths (uniform and padded)
        self._stacked_plans: dict[tuple, sp.csr_matrix] = {}
        #: each rank's output rows — the valid extents of a padded product
        self._out_rows = np.asarray([s.shape[0] for s in shards], dtype=np.int64)

    def _plan(self, f_shapes: tuple) -> list[tuple[np.ndarray, sp.csr_matrix, np.ndarray]]:
        plan = self._plans.get(f_shapes)
        if plan is None:
            buckets: dict[tuple, list[int]] = {}
            for r, shape in enumerate(f_shapes):
                buckets.setdefault(shape, []).append(r)
            plan = []
            for ranks in buckets.values():
                blocks = [self.shards[r] for r in ranks]
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

    def _stacked_plan(self, grid, lead, pad_k=None, rows_key=None) -> sp.csr_matrix:
        """The stacked paths' block CSR: rank ``r``'s shard in row block
        ``r`` and in the column block of the operand copy it reads — its own
        for a flat operand (``lead is None``: the plain block diagonal), its
        replica group's for an operand whose cube has leading extents
        ``lead``.  Ranks of one group then share one dense block, so a
        gathered F or reduced dH is multiplied without ever being copied
        per rank.  Each CSR row keeps its shard's nonzeros in their order,
        hence every output row accumulates exactly as in ``apply()``.

        Quasi-equal shards differ from uniform ones by their offsets only:
        row blocks sit ``max(shard rows)`` apart — the pad rows in between
        carry no nonzeros, so their output rows are exact zeros — and column
        blocks ``pad_k`` apart, the padded operand's row extent (its valid
        rows, ``rows_key``, must be what each shard expects; its pad rows
        are never referenced by any column index).
        """
        key = (grid, lead, pad_k, rows_key)
        bd = self._stacked_plans.get(key)
        if bd is None:
            shards = self.shards
            blocks = np.arange(self.world)
            if lead is not None:
                coords = np.unravel_index(blocks, grid)
                blocks = np.ravel_multi_index([c % e for c, e in zip(coords, lead)], lead)
            m = int(self._out_rows.max())
            if rows_key is None:
                pad_k = shards[0].shape[1]
            else:
                for r, (s, k) in enumerate(zip(shards, np.frombuffer(rows_key, dtype=np.int64))):
                    if s.shape[1] != k:
                        raise ValueError(
                            f"rank {r}: dense operand has {k} valid rows, shard expects {s.shape[1]}"
                        )
            nnz_before = np.cumsum([0] + [s.nnz for s in shards])
            indptr = [np.zeros(1, dtype=np.int64)]
            for s, before in zip(shards, nnz_before):
                indptr.append(s.indptr[1:] + before)
                indptr.append(np.full(m - s.shape[0], before + s.nnz))
            bd = sp.csr_matrix(
                (
                    np.concatenate([s.data for s in shards]),
                    np.concatenate([s.indices + b * pad_k for s, b in zip(shards, blocks)]),
                    np.concatenate(indptr),
                ),
                shape=(self.world * m, (int(blocks.max()) + 1) * pad_k),
            )
            self._stacked_plans[key] = bd
        return bd

    def apply_stacked(self, f_stacked) -> np.ndarray:
        """Uniform fast path: ``(world, k, c)`` in — flat or replicated —
        ``(world, m, c)`` out (flat: every rank's product is its own).

        One SpMM for the whole grid; requires every A shard to have the same
        shape (unequal rows would make the output reshape silently
        interleave ranks, so this raises instead).
        """
        if not self.uniform:
            raise ValueError("apply_stacked requires uniform shard shapes; use apply()")
        c = f_stacked.shape[2]
        if isinstance(f_stacked, ReplicatedStack):
            bd = self._stacked_plan(f_stacked.grid, f_stacked.cube.shape[:3])
            dense = f_stacked.cube.reshape(-1, c)
        else:
            bd = self._stacked_plan(None, None)
            dense = f_stacked.reshape(-1, c)
        return spmm(bd, dense).reshape(self.world, -1, c)

    def apply_padded(self, f: PaddedStack) -> PaddedStack:
        """Quasi-equal fast path: one SpMM over the same block CSR as
        :meth:`apply_stacked` at padded offsets (see :meth:`_stacked_plan`),
        reading a replicated operand's one dense block per group.  Each
        valid output row accumulates exactly the per-rank nonzeros in CSR
        index order — bitwise identical to ``apply()``; every rank's product
        is its own, so the result spans the full cube."""
        cube = f.cube
        pad_k, c = cube.shape[3:]
        bd = self._stacked_plan(f.grid, cube.shape[:3], pad_k, f.rows.tobytes())
        h = spmm(bd, cube.reshape(-1, c))
        pad_m = bd.shape[0] // self.world
        return PaddedStack(h.reshape(f.grid + (pad_m, c)), f.grid, self._out_rows, f.cols)

    def apply_batched(self, f):
        """Whole-grid SpMM on a stacked operand of either kind.

        A uniform operand against ragged A shards (uniform dense sharding,
        quasi-equal adjacency rows) is wrapped as an all-valid padded stack
        so the output comes back with its ragged row mask."""
        if isinstance(f, PaddedStack):
            return self.apply_padded(f)
        if not self.uniform:
            return self.apply_padded(PaddedStack.all_valid(f))
        return self.apply_stacked(f)
