"""Stack types of the rank-batched execution: one tensor per logical matrix.

``repro.core`` wants *one* array per logical matrix of Algorithms 1-2, covering
every rank of the ``(Gz, Gx, Gy)`` cube.  Persisted state (weights, input
features, labels, masks, optimizer moments, checkpoints) is a flat
``(world, m, n)`` ndarray.  Everything computed from it lives in **cube
layout** ``(z, x, y, m, n)``, each of ``z, x, y`` being the grid's extent or
**1 along every cube axis the value is identical on**: every all-reduce and
all-gather of Algorithms 1-2 leaves the G members of a group holding the
same tensor (H after the X-reduce, Q after the Y-reduce, W and F after the
Z-gather), the collectives return that tensor once per group instead of
writing G copies, and the elementwise / GEMM / SpMM / loss stages downstream
broadcast over the extent-1 axes, so they too run once per group.  A flat
array is viewed into the cube for free; a consumer that needs per-rank
memory calls ``flat()`` at the point of use.  A cube that stands for more
ranks than it stores is read-only: an in-place write raises instead of
silently updating G ranks.  Two wrappers carry the layout:

* :class:`ReplicatedStack` — *uniform* shards (every dimension divides its
  grid axis).
* :class:`PaddedStack` — *quasi-equal* shards
  (``repro.sparse.partition.block_slices`` leaves extents differing by at
  most one row/column whenever a dimension does not divide the grid),
  zero-padded to the largest block of the global geometry, with the per-rank
  valid extents ``rows``/``cols`` kept as metadata.  The pad extent of every
  derived stack comes from its operands' pad extents or a cached plan, never
  from ``max()`` over the shards at hand.  Pads keep the computation bitwise
  identical to the per-rank reference because they are storage, never math:

  * **pad entries never enter a floating-point sum** — quasi-equal extents
    are separable per cube axis, so the ranks sharing one exact shape form
    *contiguous sub-boxes* of the cube (:func:`cube_boxes`: cut each axis
    where any extent changes; at most two segments per axis, eight boxes).
    GEMMs, class/row reductions and row concatenation run once per box on
    zero-copy ``cube[box, :m, :k]`` views, so every rank's kernel sees its
    exact operands and the association order of a per-rank loop; across a
    process group pads align (members share a shape) and add up to zero;
  * **pad rows are sliced off before gathers land** — the padded
    collectives in :mod:`repro.dist.comm` assemble gather/scatter results
    from valid rows only, one copy per group, via index plans cached per
    shape signature;
  * **pad bytes are never billed** — collective durations are computed from
    the per-group *valid* shard bytes, so the simulated clocks agree with
    a per-rank, per-group run exactly.

  Pad entries are kept at (signed) zero so elementwise stages (ReLU, masks,
  optimizer updates with zero pad gradients) leave them inert.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["PaddedStack", "ReplicatedStack", "cube_boxes", "stack_shards"]


class _CubeStack:
    """A per-rank stack in cube layout: ``cube`` is ``(z, x, y, *shard)`` where
    each of ``z, x, y`` is the matching extent of ``grid = (Gz, Gx, Gy)`` or 1
    — the value is the same for every rank along an extent-1 axis.  Rank id =
    ``z*Gx*Gy + x*Gy + y``."""

    __slots__ = ("cube", "grid")

    @property
    def world(self) -> int:
        return len(self)

    @property
    def dtype(self):
        return self.cube.dtype

    def __len__(self) -> int:
        grid = self.grid
        return grid[0] * grid[1] * grid[2]

    def view(self, r: int) -> np.ndarray:
        """Rank ``r``'s shard (a view into the shared buffer)."""
        if not 0 <= r < self.world:
            raise IndexError(f"rank {r} out of range for world {self.world}")
        _, gx, gy = self.grid
        z, rem = divmod(r, gx * gy)
        ez, ex, ey = self.cube.shape[:3]
        return self.cube[z % ez, (rem // gy) % ex, (rem % gy) % ey]

    __getitem__ = view

    def views(self) -> list[np.ndarray]:
        return [self.view(r) for r in range(self.world)]

    def __iter__(self):
        return iter(self.views())

    def flat(self) -> np.ndarray:
        """The flat ``(world, *shard)`` ndarray: a view when nothing is
        replicated and the cube is contiguous, otherwise one copy — the
        materialisation point for consumers that need per-rank memory."""
        cube, grid = self.cube, self.grid
        if cube.shape[:3] != grid:
            full = np.empty(grid + cube.shape[3:], dtype=cube.dtype)
            full[...] = cube
            cube = full
        return cube.reshape((grid[0] * grid[1] * grid[2],) + cube.shape[3:])

    def like(self, flat: np.ndarray) -> np.ndarray:
        """A flat persisted stack that is constant along this stack's
        replicated axes (labels, masks, class offsets, valid extents), viewed
        in the cube and cut to the same extents — so it broadcasts against
        ``cube`` without touching the replicas."""
        full = flat.reshape(self.grid + flat.shape[1:])
        return full[tuple(slice(0, e) for e in self.cube.shape[:3])]


class ReplicatedStack(_CubeStack):
    """A uniform per-rank stack stored once per group of identical ranks.

    Logically the stack is ``(world, *shard)`` (``shape`` / ``nbytes`` /
    ``len`` / ``stack[r]`` answer for that form), so code written against a
    flat stack or a list of per-rank arrays reads it unchanged.  The buffer
    is always read-only.
    """

    __slots__ = ()

    def __init__(self, cube: np.ndarray, grid: tuple[int, int, int]) -> None:
        lead = cube.shape[:3]
        if lead != grid and (
            len(lead) < 3
            or lead[0] not in (1, grid[0])
            or lead[1] not in (1, grid[1])
            or lead[2] not in (1, grid[2])
        ):
            raise ValueError(f"cube shape {cube.shape} does not fit the rank grid {grid}")
        if cube.flags.writeable:
            cube = cube.view()
            cube.flags.writeable = False
        self.cube = cube
        self.grid = grid

    @staticmethod
    def cube_of(stacked, grid: tuple[int, int, int]) -> np.ndarray:
        """A uniform stack's data in cube layout: a flat ``(world, *shard)``
        ndarray is viewed (no copy, full extents), a replicated stack hands
        out its cube — it must be laid out for the same ``grid``."""
        if isinstance(stacked, ReplicatedStack):
            if stacked.grid != grid:
                raise ValueError(f"stack laid out for grid {stacked.grid}, expected {grid}")
            return stacked.cube
        return stacked.reshape(grid + stacked.shape[1:])

    @classmethod
    def of(cls, stacked, grid: tuple[int, int, int]) -> "ReplicatedStack":
        """``stacked`` as a replicated stack over ``grid`` (see :meth:`cube_of`;
        a replicated stack passes through)."""
        if isinstance(stacked, cls) and stacked.grid == grid:
            return stacked
        return cls(cls.cube_of(stacked, grid), grid)

    # -- the logical (world, *shard) form ------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        grid = self.grid  # (hot: spelled out rather than ``len(self)``)
        return (grid[0] * grid[1] * grid[2],) + self.cube.shape[3:]

    @property
    def ndim(self) -> int:
        return self.cube.ndim - 2

    @property
    def nbytes(self) -> int:
        """Bytes of the logical stack — ``world`` shards, replicas counted
        (what the collective cost models and the byte counters bill)."""
        grid = self.grid
        return grid[0] * grid[1] * grid[2] * self.cube[0, 0, 0].nbytes

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.flat()
        if dtype is not None and out.dtype != dtype:
            return out.astype(dtype)
        return out.copy() if copy else out

    def transpose(self) -> "ReplicatedStack":
        """Per-rank transpose of matrix shards (a view)."""
        return ReplicatedStack(self.cube.swapaxes(-1, -2), self.grid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicatedStack(cube={self.cube.shape}, grid={self.grid})"


class PaddedStack(_CubeStack):
    """Quasi-equal per-rank shards, zero-padded, stored once per group of
    identical ranks.

    ``cube`` is ``(z, x, y, max_rows)`` for vector shards or
    ``(z, x, y, max_rows, max_cols)`` for matrix shards; ``rows`` (and, for
    matrices, ``cols``) are ``(world,)`` int64 vectors of each rank's valid
    extents — constant along the axes the cube is replicated on — and are
    trusted, not re-validated per derived stack (:meth:`from_shards` builds
    them).  ``stack[r]`` returns rank ``r``'s exact-shaped view, so code
    written against a list of per-rank arrays works on a padded stack
    unchanged.  A full-extent cube (persisted weights and features: the flat
    ``(world, max_rows, max_cols)`` array viewed into the grid) stays
    writable; a replicated one is read-only.
    """

    __slots__ = ("rows", "cols")

    def __init__(
        self,
        cube: np.ndarray,
        grid: tuple[int, int, int],
        rows: np.ndarray,
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
        if (cols is None) != (cube.ndim == 4):
            raise ValueError("matrix shards (a 5-D cube) need cols, vector shards (4-D) take none")
        self.cube = cube
        self.grid = grid
        self.rows = rows
        self.cols = cols

    # -- introspection -------------------------------------------------------
    def signature(self) -> tuple:
        """Hashable key of the stack's shape geometry (plan-cache key)."""
        return (
            self.cube.shape,
            self.cube.dtype.itemsize,
            self.rows.tobytes(),
            None if self.cols is None else self.cols.tobytes(),
        )

    def valid_nbytes(self) -> np.ndarray:
        """Per-rank bytes of the valid (unpadded) region — what the
        collective cost models bill (replicas counted, pad bytes never)."""
        elems = self.rows if self.cols is None else self.rows * self.cols
        return elems.astype(np.float64) * self.cube.dtype.itemsize

    def cube_on(self, grid: tuple[int, int, int]) -> np.ndarray:
        """The data laid out for ``grid``.  A stack built without one
        (:meth:`from_shards`: the ``(world, 1, 1)`` cube) is viewed into it
        like a flat ndarray; a replicated stack must already be laid out
        for ``grid``."""
        if self.grid == grid:
            return self.cube
        if self.cube.shape[:3] != self.grid or self.world != grid[0] * grid[1] * grid[2]:
            raise ValueError(f"stack laid out for grid {self.grid}, expected {grid}")
        return self.cube.reshape(grid + self.cube.shape[3:])

    # -- per-rank access -----------------------------------------------------
    def view(self, r: int) -> np.ndarray:
        """Rank ``r``'s exact-shaped shard (a view into the stack)."""
        shard = super().view(r)
        if self.cols is None:
            return shard[: self.rows[r]]
        return shard[: self.rows[r], : self.cols[r]]

    __getitem__ = view

    # -- derived stacks ------------------------------------------------------
    def transpose(self) -> "PaddedStack":
        """Per-rank transpose: swaps the row/col extents (data is a view)."""
        if self.cols is None:
            raise ValueError("transpose requires matrix shards")
        return PaddedStack(self.cube.swapaxes(-1, -2), self.grid, self.cols, self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaddedStack(cube={self.cube.shape}, grid={self.grid}, rows={self.rows}, cols={self.cols})"

    # -- construction --------------------------------------------------------
    @classmethod
    def from_shards(
        cls,
        shards: Sequence[np.ndarray],
        grid: tuple[int, int, int] | None = None,
        pad: tuple[int, ...] | None = None,
    ) -> "PaddedStack":
        """Zero-pad ragged per-rank shards into one full-extent stack over
        ``grid`` (default: the ``(world, 1, 1)`` cube) at the pad extents
        ``pad`` — the largest block of the global geometry; default: the
        largest shard given."""
        if not shards:
            raise ValueError("need at least one shard")
        ndim = shards[0].ndim
        if ndim not in (1, 2) or any(s.ndim != ndim for s in shards):
            raise ValueError("shards must be all 1-D or all 2-D")
        extents = np.asarray([s.shape for s in shards], dtype=np.int64).reshape(len(shards), ndim)
        if pad is None:
            pad = tuple(int(e) for e in extents.max(axis=0))
        elif len(pad) != ndim or np.any(extents > pad):
            raise ValueError(f"shards exceed the pad extents {pad}")
        grid = (len(shards), 1, 1) if grid is None else grid
        flat = np.zeros((len(shards), *pad), dtype=shards[0].dtype)
        for r, s in enumerate(shards):
            flat[(r, *(slice(0, e) for e in s.shape))] = s
        rows = np.ascontiguousarray(extents[:, 0])
        cols = np.ascontiguousarray(extents[:, 1]) if ndim == 2 else None
        return cls(flat.reshape(grid + flat.shape[1:]), grid, rows, cols)

    @classmethod
    def all_valid(cls, stacked, grid: tuple[int, int, int] | None = None) -> "PaddedStack":
        """A uniform stack (flat ndarray or :class:`ReplicatedStack`) as a
        padded stack that pads nothing — how a uniform operand meets
        quasi-equal adjacency rows or a quasi-equal scatter."""
        if grid is None:
            grid = stacked.grid if isinstance(stacked, ReplicatedStack) else (len(stacked), 1, 1)
        cube = ReplicatedStack.cube_of(stacked, grid)
        world = grid[0] * grid[1] * grid[2]
        rows = np.full(world, cube.shape[3], dtype=np.int64)
        cols = np.full(world, cube.shape[4], dtype=np.int64) if cube.ndim == 5 else None
        return cls(cube, grid, rows, cols)


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
) -> np.ndarray | PaddedStack:
    """Stack per-rank shards: a plain ``np.stack`` when shapes are uniform
    (the divisible fast path, unchanged numerics), a :class:`PaddedStack`
    over ``grid`` when quasi-equal sharding left them ragged."""
    first = shards[0].shape
    if all(s.shape == first for s in shards[1:]):
        return np.stack(shards)
    return PaddedStack.from_shards(shards, grid, pad)
