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

On the uniform (divisible) path a collective's result comes back as a
:class:`~repro.dist.padded.ReplicatedStack`: the ``(Gz, Gx, Gy, m, n)`` rank
cube with extent 1 along every axis the value is identical on (H after the
X-all-reduce, Q after the Y-all-reduce, W / F after the Z-all-gather — see
``repro.dist.comm``).  The ``stack_*`` helpers never expand it: they view a
flat partner into the cube and let numpy broadcast over the extent-1 axes,
so :func:`stack_map` / :func:`stack_mul` (ReLU, its mask, the chain-rule
product) run once per group, :func:`stack_matmul` is one broadcasting
``np.matmul`` in which each rank's GEMM reads the shared operand in place,
and :meth:`BlockDiagSpmm.apply_stacked` points every rank's block of the
block CSR at its group's single dense block.  The only materialisation
points are :func:`stack_data` (the optimizer's flat gradients, checkpoints)
and a uniform operand meeting a padded one; persisted state (weights,
features, labels, masks, Adam moments) is flat throughout and is accepted
by every helper as is.

When sharding is quasi-equal (a dimension does not divide its grid axis),
the stacks become :class:`~repro.dist.padded.PaddedStack` — ragged
shards zero-padded to a common extent with per-rank valid masks, flat along
the ranks.  The ``stack_*`` helpers make the layer code agnostic to the
stack kind: :func:`stack_matmul` runs one ``np.matmul`` per exact-shape
group (so the floating-point association order matches a per-rank loop
bitwise, never summing over pad entries),
:meth:`BlockDiagSpmm.apply_padded` drives one block-diagonal SpMM whose
blocks sit at padded offsets (pad rows carry no nonzeros, so they
contribute nothing), and :func:`concat_stack_rows` reassembles
blocked-aggregation outputs from valid rows only.

All outputs preserve the input dtype, so the model's ``compute_dtype``
(float32 for benchmarks, float64 for validation) flows through untouched.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.dist.padded import PaddedStack, ReplicatedStack, stack_shards
from repro.sparse.ops import spmm

__all__ = [
    "batched_matmul",
    "BlockDiagSpmm",
    "PaddedStack",
    "ReplicatedStack",
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
    persisted state and the optimizer hold.  A replicated stack is
    materialised here (one copy; a view when nothing is replicated).

    Padded pads are zero and their gradients stay zero, so handing the raw
    array to elementwise consumers (the optimizer, mask products) is safe.
    """
    return stacked.data if isinstance(stacked, PaddedStack) else _flat(stacked)


def _flat(stacked):
    """A uniform stack as a flat ndarray (padded stacks pass through)."""
    return stacked.flat() if isinstance(stacked, ReplicatedStack) else stacked


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
        return stacked.with_data(fn(stacked.data))
    if isinstance(stacked, ReplicatedStack):
        return ReplicatedStack(fn(stacked.cube), stacked.grid)
    return fn(stacked)


def stack_mul(a, b):
    """Elementwise product of two stacked operands of matching geometry.

    Replicated operands multiply in cube layout: the product is replicated
    along the axes *both* are, and computed once per group there."""
    if isinstance(a, PaddedStack):
        return a.with_data(a.data * stack_data(b))
    if isinstance(b, PaddedStack):
        return stack_data(a) * b.data
    pair = _cube_pair(a, b)
    if pair is None:
        return a * b
    grid, ac, bc = pair
    return ReplicatedStack(ac * bc, grid)


def stack_matmul(a, b, *, ta: bool = False, tb: bool = False):
    """Per-rank ``op(a[r]) @ op(b[r])`` over stacked operands.

    Uniform operands take the single ``np.matmul`` fast path; with a
    :class:`ReplicatedStack` on either side it is a *broadcasting* matmul
    over the ``(z, x, y)`` cube axes — H (extent 1 along X) times the
    gathered W (extent 1 along Z) yields the full cube without either
    operand ever being copied per rank, and every rank's GEMM sees exactly
    the operands (values, inner strides, transposition) it would have seen
    in a flat stack, so BLAS rounds identically.  PaddedStack
    operands are multiplied one exact-shape group at a time (quasi-equal
    sharding yields only a handful of groups), writing into a zero-padded
    output — the same grouping :func:`batched_matmul` applies to per-rank
    lists, so results are bitwise identical to it.
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
    a, b = _flat(a), _flat(b)  # a uniform partner of a padded stack goes flat
    ap = a if isinstance(a, PaddedStack) else PaddedStack(a, np.full(a.shape[0], a.shape[1]))
    bp = b if isinstance(b, PaddedStack) else PaddedStack(b, np.full(b.shape[0], b.shape[1]))
    if ta:
        ap = ap.transpose()
    if tb:
        bp = bp.transpose()
    m, k = ap.rows, ap.cols
    k2, n = bp.rows, bp.cols
    if np.any(k != k2):
        raise ValueError("stack_matmul: inner extents disagree")
    world = ap.world
    out = np.zeros(
        (world, int(m.max(initial=0)), int(n.max(initial=0))),
        dtype=np.result_type(ap.dtype, bp.dtype),
    )
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for r in range(world):
        buckets.setdefault((m[r], k[r], n[r]), []).append(r)
    for (mm, kk, nn), ranks in buckets.items():
        # np.stack of the exact-extent views, exactly like batched_matmul:
        # it preserves each operand's (possibly transposed) memory layout,
        # so BLAS takes the same kernel and rounds identically to it
        prod = np.matmul(
            np.stack([ap.data[r, :mm, :kk] for r in ranks]),
            np.stack([bp.data[r, :kk, :nn] for r in ranks]),
        )
        out[np.asarray(ranks, dtype=np.intp), :mm, :nn] = prod
    return PaddedStack(out, m, n)


def concat_stack_rows(parts: Sequence):
    """Concatenate stacks along the shard-row axis (blocked aggregation's
    reassembly step).  Pure copying — bitwise identical to
    ``np.concatenate`` over each rank's block results."""
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
    padded = [p if isinstance(p, PaddedStack) else PaddedStack.from_shards(list(p)) for p in parts]
    world = padded[0].world
    rows = np.sum([p.rows for p in padded], axis=0)
    cols = padded[0].cols
    for p in padded[1:]:
        if (cols is None) != (p.cols is None) or (cols is not None and np.any(p.cols != cols)):
            raise ValueError("concat_stack_rows: column extents disagree across parts")
    max_c = max(p.data.shape[2] for p in padded)
    out = np.zeros((world, int(rows.max(initial=0)), max_c), dtype=padded[0].dtype)
    for r in range(world):
        at = 0
        for p in padded:
            rr = p.rows[r]
            out[r, at : at + rr, : p.cols[r]] = p.view(r)
            at += rr
    return PaddedStack(out, rows, cols)


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
        #: (grid, operand cube extents) -> block CSR of the uniform stacked path
        self._stacked_plans: dict[tuple, sp.csr_matrix] = {}
        #: padded-operand signature -> (padded block-diag CSR, max rows, out rows)
        self._padded_plans: dict[tuple, tuple[sp.csr_matrix, int, np.ndarray]] = {}

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

    def _stacked_plan(self, grid, lead) -> sp.csr_matrix:
        """The uniform path's block CSR: rank ``r``'s shard in row block
        ``r`` and in the column block of the operand copy it reads — its own
        for a flat operand (``lead is None``: the plain block diagonal), its
        replica group's for a :class:`ReplicatedStack` whose cube has leading
        extents ``lead``.  Ranks of one group then share one dense block, so
        a gathered F or reduced dH is multiplied without ever being copied
        per rank.  Each CSR row keeps its shard's nonzeros in their order,
        hence every output row accumulates exactly as in ``apply()``.
        """
        key = (grid, lead)
        bd = self._stacked_plans.get(key)
        if bd is None:
            ranks = np.arange(self.world)
            if lead is not None:
                coords = np.unravel_index(ranks, grid)
                ranks = np.ravel_multi_index([c % e for c, e in zip(coords, lead)], lead)
            m, k = self.shards[0].shape
            nnz_before = np.cumsum([0] + [s.nnz for s in self.shards[:-1]])
            bd = sp.csr_matrix(
                (
                    np.concatenate([s.data for s in self.shards]),
                    np.concatenate([s.indices + b * k for s, b in zip(self.shards, ranks)]),
                    np.concatenate(
                        [[0]] + [s.indptr[1:] + np.int64(off) for s, off in zip(self.shards, nnz_before)]
                    ),
                ),
                shape=(self.world * m, (int(ranks.max()) + 1) * k),
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
        """Ragged fast path: one SpMM over a padded block-diagonal plan.

        Each rank's A shard sits at row offset ``r * max_rows`` and column
        offset ``r * max_k`` of one big CSR, so a single
        ``bd @ f.data.reshape(world * max_k, c)`` computes every rank's
        product.  Pad rows of A carry no nonzeros (their output rows are
        exact zeros) and pad rows of F are never referenced by any column
        index, so each valid output row accumulates exactly the per-rank
        nonzeros in CSR index order — bitwise identical to ``apply()``.
        """
        world = self.world
        max_k = f.data.shape[1]
        key = (max_k, f.rows.tobytes())
        plan = self._padded_plans.get(key)
        if plan is None:
            for r, s in enumerate(self.shards):
                if s.shape[1] != f.rows[r]:
                    raise ValueError(
                        f"rank {r}: dense operand has {f.rows[r]} valid rows, "
                        f"shard expects {s.shape[1]}"
                    )
            max_m = max(s.shape[0] for s in self.shards)
            padded = []
            for s in self.shards:
                indptr = np.concatenate(
                    [s.indptr, np.full(max_m - s.shape[0], s.nnz, dtype=s.indptr.dtype)]
                )
                padded.append(sp.csr_matrix((s.data, s.indices, indptr), shape=(max_m, max_k)))
            bd = sp.block_diag(padded, format="csr")
            out_rows = np.asarray([s.shape[0] for s in self.shards], dtype=np.int64)
            plan = self._padded_plans[key] = (bd, max_m, out_rows)
        bd, max_m, out_rows = plan
        c = f.data.shape[2]
        h = spmm(bd, f.data.reshape(world * max_k, c))
        return PaddedStack(h.reshape(world, max_m, c), out_rows, f.cols)

    def apply_batched(self, f):
        """Whole-grid SpMM on a stacked operand of either kind.

        A plain ndarray against ragged A shards (uniform dense sharding,
        quasi-equal adjacency rows) is wrapped as a fully-valid padded stack
        so the output comes back with its ragged row mask."""
        if isinstance(f, PaddedStack):
            return self.apply_padded(f)
        if not self.uniform:
            return self.apply_padded(
                PaddedStack(_flat(f), np.full(f.shape[0], f.shape[1], dtype=np.int64))
            )
        return self.apply_stacked(f)
