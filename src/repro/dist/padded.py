"""The stack type of the rank-batched execution: one tensor per logical matrix.

``repro.core`` wants *one* array per logical matrix of Algorithms 1-2, covering
every rank of the ``(Gz, Gx, Gy)`` cube.  :class:`CubeStack` is that array in
**cube layout** ``(z, x, y, m, n)``, each of ``z, x, y`` being the grid's
extent or **1 along every cube axis the value is identical on**: every
all-reduce and all-gather of Algorithms 1-2 leaves the G members of a group
holding the same tensor (H after the X-reduce, Q after the Y-reduce, W and F
after the Z-gather), the collectives return that tensor once per group instead
of writing G copies, and the elementwise / GEMM / SpMM / loss stages downstream
broadcast over the extent-1 axes, so they too run once per group.  Persisted
state (weights, input features, labels, masks) is a full-extent stack over flat
``(world, m, n)`` memory — :meth:`CubeStack.flat` hands that memory out,
writable, and is the one materialisation point of a replicated stack.  A cube
that stands for more ranks than it stores is read-only: an in-place write
raises instead of silently updating G ranks.

Shards are *quasi-equal* (``repro.sparse.partition.block_slices`` leaves
extents differing by at most one row/column whenever a dimension does not
divide the grid): the cube is zero-padded to the largest block of the global
geometry and the per-rank valid extents ride along as ``rows`` / ``cols`` —
``None`` when every rank fills the cube (every dimension divides), the zero-pad
case of the same algebra.  The pad extent of every derived stack comes from its
operands' pad extents or a cached plan, never from ``max()`` over the shards at
hand.  Pads keep the computation bitwise identical to the per-rank reference
because they are storage, never math:

* **pad entries never enter a floating-point sum** — quasi-equal extents are
  separable per cube axis, so the ranks sharing one exact shape form
  *contiguous sub-boxes* of the cube (:func:`cube_boxes`: cut each axis where
  any extent changes; at most two segments per axis, eight boxes, one when
  nothing is padded).  GEMMs, class/row reductions and row concatenation run
  once per box on zero-copy ``cube[box, :m, :k]`` views, so every rank's kernel
  sees its exact operands and the association order of a per-rank loop; across
  a process group pads align (members share a shape) and add up to zero;
* **pad rows are sliced off before gathers land** — the collectives in
  :mod:`repro.dist.comm` assemble ragged gather/scatter results from valid rows
  only, one copy per group, via index plans cached per shape signature;
* **pad bytes are never billed** — collective durations are computed from the
  per-group *valid* shard bytes, so the simulated clocks agree with a per-rank,
  per-group run exactly.

Pad entries are kept at (signed) zero so elementwise stages (ReLU, masks,
optimizer updates with zero pad gradients) leave them inert.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["CubeStack", "cube_boxes", "stack_shards"]


class CubeStack:
    """A per-rank stack in cube layout: ``cube`` is ``(z, x, y, *shard)`` where
    each of ``z, x, y`` is the matching extent of ``grid = (Gz, Gx, Gy)`` or 1
    — the value is the same for every rank along an extent-1 axis.  Rank id =
    ``z*Gx*Gy + x*Gy + y``.

    ``rows`` (and, for matrix shards, ``cols``) are ``(world,)`` int64 vectors
    of each rank's valid extents — constant along the axes the cube is
    replicated on, trusted, not re-validated per derived stack
    (:func:`stack_shards` builds them) — or ``None`` when every rank's shard
    is the cube's full extent.  Logically the stack is ``(world, *shard)``
    (``shape`` / ``nbytes`` / ``len`` answer for that form) and ``stack[r]``
    is rank ``r``'s exact-shaped view, so code written against a flat stack
    or a list of per-rank arrays reads it unchanged.
    """

    __slots__ = ("cube", "grid", "rows", "cols")

    def __init__(
        self,
        cube: np.ndarray,
        grid: tuple[int, int, int],
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ) -> None:
        lead = cube.shape[:3]
        if lead != grid:
            if (
                len(lead) < 3
                or lead[0] not in (1, grid[0])
                or lead[1] not in (1, grid[1])
                or lead[2] not in (1, grid[2])
            ):
                raise ValueError(f"cube shape {cube.shape} does not fit the rank grid {grid}")
            if cube.flags.writeable:  # one element stands for G ranks
                cube = cube.view()
                cube.flags.writeable = False
        if rows is not None and (cols is None) != (cube.ndim == 4):
            raise ValueError("matrix shards (a 5-D cube) need cols, vector shards (4-D) take none")
        self.cube = cube
        self.grid = grid
        self.rows = rows
        self.cols = cols

    @classmethod
    def of(cls, stacked, grid: tuple[int, int, int] | None = None) -> "CubeStack":
        """The one coercion of every public entry: ``stacked`` as a stack over
        ``grid`` (default: its own, or the ``(world, 1, 1)`` cube).  A raw
        ``(world, *shard)`` ndarray is viewed (no copy, full extents, nothing
        padded); a stack passes through — one built without a grid is viewed
        into it the same way, a replicated one must already be laid out for
        ``grid``."""
        if not isinstance(stacked, cls):
            if grid is None:
                grid = (len(stacked), 1, 1)
            elif len(stacked) != grid[0] * grid[1] * grid[2]:
                raise ValueError(
                    f"stacked operand has leading extent {len(stacked)}, expected "
                    f"world={grid[0] * grid[1] * grid[2]} (grid {grid})"
                )
            return cls(stacked.reshape(grid + stacked.shape[1:]), grid)
        if grid is None or stacked.grid == grid:
            return stacked
        cube = stacked.cube
        if stacked.grid != (len(cube), 1, 1) or len(cube) != grid[0] * grid[1] * grid[2]:
            raise ValueError(f"stack laid out for grid {stacked.grid}, expected {grid}")
        return cls(cube.reshape(grid + cube.shape[3:]), grid, stacked.rows, stacked.cols)

    # -- the logical (world, *shard) form ------------------------------------
    @property
    def dtype(self):
        return self.cube.dtype

    def __len__(self) -> int:
        grid = self.grid
        return grid[0] * grid[1] * grid[2]

    @property
    def shape(self) -> tuple[int, ...]:
        grid = self.grid  # (hot: spelled out rather than ``len(self)``)
        return (grid[0] * grid[1] * grid[2],) + self.cube.shape[3:]

    @property
    def nbytes(self) -> int:
        """Bytes of the logical stack — ``world`` shards at the cube's
        extents, replicas counted."""
        grid = self.grid
        return grid[0] * grid[1] * grid[2] * self.cube[0, 0, 0].nbytes

    def valid_nbytes(self) -> np.ndarray:
        """Per-rank bytes of the valid (unpadded) region — what the
        collective cost models bill (replicas counted, pad bytes never)."""
        if self.rows is None:
            return np.full(len(self), float(self.cube[0, 0, 0].nbytes))
        elems = self.rows if self.cols is None else self.rows * self.cols
        return elems.astype(np.float64) * self.cube.dtype.itemsize

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.flat()
        if dtype is not None and out.dtype != dtype:
            return out.astype(dtype)
        return out.copy() if copy else out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CubeStack(cube={self.cube.shape}, grid={self.grid}, rows={self.rows}, cols={self.cols})"

    # -- per-rank access -----------------------------------------------------
    def view(self, r: int) -> np.ndarray:
        """Rank ``r``'s exact-shaped shard (a view into the shared buffer)."""
        if not 0 <= r < len(self):
            raise IndexError(f"rank {r} out of range for world {len(self)}")
        _, gx, gy = self.grid
        z, rem = divmod(r, gx * gy)
        ez, ex, ey = self.cube.shape[:3]
        shard = self.cube[z % ez, (rem // gy) % ex, (rem % gy) % ey]
        if self.rows is None:
            return shard
        if self.cols is None:
            return shard[: self.rows[r]]
        return shard[: self.rows[r], : self.cols[r]]

    __getitem__ = view

    def views(self) -> list[np.ndarray]:
        return [self.view(r) for r in range(len(self))]

    def __iter__(self):
        return iter(self.views())

    def flat(self) -> np.ndarray:
        """The flat ``(world, *shard)`` ndarray, pads included: a view when
        nothing is replicated and the cube is contiguous (a persisted stack
        hands out its own writable memory), otherwise one copy — the
        materialisation point for consumers that need per-rank memory."""
        cube, grid = self.cube, self.grid
        if cube.shape[:3] != grid:
            full = np.empty(grid + cube.shape[3:], dtype=cube.dtype)
            full[...] = cube
            cube = full
        return cube.reshape((grid[0] * grid[1] * grid[2],) + cube.shape[3:])

    def like(self, flat) -> np.ndarray:
        """A full-extent stack on the same grid (or a flat array) that is
        constant along this stack's replicated axes (labels, masks, class
        offsets, valid extents), viewed in the cube and cut to the same
        extents — so it broadcasts against ``cube`` without touching the
        replicas."""
        full = flat.cube if isinstance(flat, CubeStack) else flat.reshape(self.grid + flat.shape[1:])
        return full[tuple(slice(0, e) for e in self.cube.shape[:3])]

    # -- derived stacks ------------------------------------------------------
    def transpose(self) -> "CubeStack":
        """Per-rank transpose of matrix shards: swaps the row/col extents
        (data is a view)."""
        if self.cube.ndim != 5:
            raise ValueError("transpose requires matrix shards")
        return CubeStack(self.cube.swapaxes(-1, -2), self.grid, self.cols, self.rows)

    def read_only(self) -> "CubeStack":
        """This stack over a read-only view of its buffer — what a collective
        hands out: its result stands for every member of a group."""
        cube = self.cube
        if not cube.flags.writeable:
            return self
        cube = cube.view()
        cube.flags.writeable = False
        return CubeStack(cube, self.grid, self.rows, self.cols)


@lru_cache(maxsize=512)
def cube_boxes(grid: tuple[int, int, int], lead: tuple[int, int, int], *extents) -> tuple:
    """Cut the rank cube into the boxes on which every one of ``extents`` is
    constant: each axis is cut where any extent changes between neighbours,
    and the product of the segments tiles the cube exactly once.  Returns
    ``((box, values), ...)`` — ``box`` three slices, ``values`` the extents
    on it.

    ``lead`` is the cube to cut: ``grid``, or 1 along axes every extent is
    constant on (a replicated operand's).  An extent is the ``tobytes()`` of
    a per-rank ``(world,)`` int64 vector over ``grid`` — hashable, so the cut
    is computed once per geometry — or an int every rank shares.  Quasi-equal
    extents fall at most once along an axis: at most eight boxes."""
    cut = tuple(slice(0, e) for e in lead)
    ext = np.stack(
        [
            np.broadcast_to(
                e if isinstance(e, int) else np.frombuffer(e, dtype=np.int64).reshape(grid)[cut], lead
            )
            for e in extents
        ]
    )
    segments = []
    for axis, n in enumerate(lead, start=1):
        planes = np.moveaxis(ext, axis, 0).reshape(n, -1)
        edges = [0, *(np.flatnonzero((planes[1:] != planes[:-1]).any(axis=1)) + 1).tolist(), n]
        segments.append([slice(lo, hi) for lo, hi in zip(edges, edges[1:])])
    return tuple(
        (box, tuple(int(v) for v in ext[(slice(None), *(s.start for s in box))]))
        for box in itertools.product(*segments)
    )


def stack_shards(
    shards: Sequence[np.ndarray],
    grid: tuple[int, int, int] | None = None,
    pad: tuple[int, ...] | None = None,
) -> CubeStack:
    """Stack per-rank shards into one full-extent, writable stack over
    ``grid`` (default: the ``(world, 1, 1)`` cube) at the pad extents ``pad``
    — the largest block of the *global* geometry; default: the largest shard
    given.  Shards that all fill the pad stack as they are (``rows`` /
    ``cols`` stay ``None``); quasi-equal ones are zero-padded and keep their
    valid extents."""
    if not shards:
        raise ValueError("need at least one shard")
    ndim = shards[0].ndim
    if any(s.ndim != ndim for s in shards):
        raise ValueError("shards must share their number of dimensions")
    extents = np.asarray([s.shape for s in shards], dtype=np.int64).reshape(len(shards), ndim)
    if pad is None:
        pad = tuple(int(e) for e in extents.max(axis=0))
    elif len(pad) != ndim or np.any(extents > pad):
        raise ValueError(f"shards exceed the pad extents {pad}")
    grid = (len(shards), 1, 1) if grid is None else grid
    if np.all(extents == pad):
        return CubeStack(np.stack(shards).reshape(grid + pad), grid)
    if ndim not in (1, 2):
        raise ValueError("quasi-equal shards must be all 1-D or all 2-D")
    flat = np.zeros((len(shards), *pad), dtype=shards[0].dtype)
    for r, s in enumerate(shards):
        flat[(r, *(slice(0, e) for e in s.shape))] = s
    rows = np.ascontiguousarray(extents[:, 0])
    cols = np.ascontiguousarray(extents[:, 1]) if ndim == 2 else None
    return CubeStack(flat.reshape(grid + pad), grid, rows, cols)
