"""Stack types of the rank-batched execution: one tensor per logical matrix.

``repro.core`` wants *one* array per logical matrix of Algorithms 1-2, covering
every rank of the ``(Gz, Gx, Gy)`` cube.  Persisted state (weights, input
features, labels, masks, optimizer moments, checkpoints) is a flat
``(world, m, n)`` ndarray.  Two wrappers cover what a flat array cannot:

* :class:`ReplicatedStack` — a *uniform* stack in cube layout
  ``(Gz, Gx, Gy, m, n)`` that keeps extent 1 along every cube axis its value
  is identical on.  Every all-reduce and all-gather of Algorithms 1-2
  leaves the G members of a group holding the same tensor (H after the
  X-reduce, Q after the Y-reduce, W and F after the Z-gather); the
  collectives return that tensor once per group instead of writing G
  copies, and the elementwise / GEMM / loss stages downstream broadcast
  over the extent-1 axes, so they too run once per group.  A consumer that
  needs a contiguous per-rank operand calls :meth:`ReplicatedStack.flat`
  (or ``np.asarray``) at the point of use.  The buffer is read-only: one
  element stands for G ranks, so an in-place write raises instead of
  silently updating all of them.
* :class:`PaddedStack` — *ragged* quasi-equal shards
  (``repro.sparse.partition.block_slices`` leaves extents differing by at
  most one row/column whenever a dimension does not divide the grid)
  zero-padded to the maximum extent, with per-rank ``rows``/``cols``
  valid-extent vectors — the mask the collectives and kernels use to keep
  the computation bitwise identical to the per-rank reference:

  * **pad entries are never part of the math** — reductions, sums and GEMMs
    run on exact-extent slices grouped by shape (a handful of groups under
    quasi-equal sharding), so the floating-point association order matches
    a per-rank loop bit for bit;
  * **pad rows are sliced off before gathers land** — the padded
    collectives in :mod:`repro.dist.comm` assemble gather/scatter results
    from valid rows only, via index plans cached per shape signature;
  * **pad bytes are never billed** — collective durations are computed from
    the per-group *valid* shard bytes, so the simulated clocks agree with
    a per-rank, per-group run exactly.

  Pad entries are kept at (signed) zero so elementwise stages (ReLU, masks,
  optimizer updates with zero pad gradients) leave them inert.  Padded
  stacks stay flat along the rank axis: their pads differ per rank, so
  there is nothing to share.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["PaddedStack", "ReplicatedStack", "stack_shards"]


class ReplicatedStack:
    """A uniform per-rank stack stored once per group of identical ranks.

    ``cube`` has shape ``(z, x, y, *shard)`` where each of ``z, x, y`` is
    either the matching extent of ``grid = (Gz, Gx, Gy)`` or 1 — the value
    is the same for every rank along an extent-1 axis.  Logically the stack
    is ``(world, *shard)`` (``shape`` / ``nbytes`` / ``len`` / ``stack[r]``
    answer for that form, rank id = ``z*Gx*Gy + x*Gy + y``), so code written
    against a flat stack or a list of per-rank arrays reads it unchanged.
    """

    __slots__ = ("cube", "grid")

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
    def world(self) -> int:
        return self.grid[0] * self.grid[1] * self.grid[2]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.world,) + self.cube.shape[3:]

    @property
    def ndim(self) -> int:
        return self.cube.ndim - 2

    @property
    def dtype(self):
        return self.cube.dtype

    @property
    def nbytes(self) -> int:
        """Bytes of the logical stack — ``world`` shards, replicas counted
        (what the collective cost models and the byte counters bill)."""
        return self.world * self.cube[0, 0, 0].nbytes

    def __len__(self) -> int:
        return self.world

    def view(self, r: int) -> np.ndarray:
        """Rank ``r``'s shard (a read-only view into the shared buffer)."""
        if not 0 <= r < self.world:
            raise IndexError(f"rank {r} out of range for world {self.world}")
        _, gx, gy = self.grid
        z, rem = divmod(r, gx * gy)
        ez, ex, ey = self.cube.shape[:3]
        return self.cube[z % ez, (rem // gy) % ex, (rem % gy) % ey]

    __getitem__ = view

    def views(self) -> list[np.ndarray]:
        full = np.broadcast_to(self.cube, self.grid + self.cube.shape[3:])  # stride-0
        return [full[idx] for idx in np.ndindex(*self.grid)]

    def __iter__(self):
        return iter(self.views())

    def flat(self) -> np.ndarray:
        """The flat ``(world, *shard)`` ndarray: a view when nothing is
        replicated and the cube is contiguous, otherwise one copy — the
        materialisation point for consumers that need per-rank memory."""
        cube = self.cube
        if cube.shape[:3] != self.grid:
            full = np.empty(self.grid + cube.shape[3:], dtype=cube.dtype)
            full[...] = cube
            cube = full
        return cube.reshape((-1,) + cube.shape[3:])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.flat()
        if dtype is not None and out.dtype != dtype:
            return out.astype(dtype)
        return out.copy() if copy else out

    # -- derived stacks ------------------------------------------------------
    def transpose(self) -> "ReplicatedStack":
        """Per-rank transpose of matrix shards (a view)."""
        return ReplicatedStack(self.cube.swapaxes(-1, -2), self.grid)

    def like(self, flat: np.ndarray) -> np.ndarray:
        """A flat persisted stack that is constant along this stack's
        replicated axes (labels, masks, class offsets), viewed in the cube
        and cut to the same extents — so it broadcasts against ``cube``
        without touching the replicas."""
        full = flat.reshape(self.grid + flat.shape[1:])
        return full[tuple(slice(0, e) for e in self.cube.shape[:3])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicatedStack(cube={self.cube.shape}, grid={self.grid})"


class PaddedStack:
    """Ragged per-rank shards stored as one zero-padded leading-axis stack.

    ``data`` is ``(world, max_rows)`` for vector shards or
    ``(world, max_rows, max_cols)`` for matrix shards; ``rows`` (and, for
    matrices, ``cols``) give each rank's valid extents.  ``stack[r]``
    returns rank ``r``'s exact-shaped view, so code written against a list
    of per-rank arrays works on a padded stack unchanged.
    """

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data: np.ndarray, rows: np.ndarray, cols: np.ndarray | None = None) -> None:
        if data.ndim not in (2, 3):
            raise ValueError(f"padded data must be 2-D or 3-D, got {data.ndim}-D")
        if data.ndim == 2 and cols is not None:
            raise ValueError("vector stacks (2-D data) take no cols vector")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape != (data.shape[0],):
            raise ValueError(f"rows must be ({data.shape[0]},), got {rows.shape}")
        if rows.size and rows.max(initial=0) > data.shape[1]:
            raise ValueError("valid rows exceed the padded extent")
        if data.ndim == 3:
            if cols is None:
                cols = np.full(data.shape[0], data.shape[2], dtype=np.int64)
            else:
                cols = np.asarray(cols, dtype=np.int64)
                if cols.shape != (data.shape[0],):
                    raise ValueError(f"cols must be ({data.shape[0]},), got {cols.shape}")
                if cols.size and cols.max(initial=0) > data.shape[2]:
                    raise ValueError("valid cols exceed the padded extent")
        self.data = data
        self.rows = rows
        self.cols = cols

    # -- introspection -------------------------------------------------------
    @property
    def world(self) -> int:
        return self.data.shape[0]

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def uniform(self) -> bool:
        """True when no rank carries any padding."""
        if np.any(self.rows != self.data.shape[1]):
            return False
        return self.cols is None or not np.any(self.cols != self.data.shape[2])

    def signature(self) -> tuple:
        """Hashable key of the stack's shape geometry (plan-cache key)."""
        return (
            self.data.shape,
            self.data.dtype.itemsize,
            self.rows.tobytes(),
            None if self.cols is None else self.cols.tobytes(),
        )

    def valid_nbytes(self) -> np.ndarray:
        """Per-rank bytes of the valid (unpadded) region — what the
        collective cost models bill, never the pad bytes."""
        elems = self.rows if self.cols is None else self.rows * self.cols
        return elems.astype(np.float64) * self.data.dtype.itemsize

    # -- per-rank access -----------------------------------------------------
    def view(self, r: int) -> np.ndarray:
        """Rank ``r``'s exact-shaped shard (a view into the stack)."""
        if self.cols is None:
            return self.data[r, : self.rows[r]]
        return self.data[r, : self.rows[r], : self.cols[r]]

    __getitem__ = view

    def views(self) -> list[np.ndarray]:
        return [self.view(r) for r in range(self.world)]

    def __len__(self) -> int:
        return self.world

    def __iter__(self):
        return iter(self.views())

    # -- derived stacks ------------------------------------------------------
    def transpose(self) -> "PaddedStack":
        """Per-rank transpose: swaps the row/col extents (data is a view)."""
        if self.data.ndim != 3:
            raise ValueError("transpose requires matrix shards")
        return PaddedStack(self.data.transpose(0, 2, 1), self.cols, self.rows)

    def with_data(self, data: np.ndarray) -> "PaddedStack":
        """Same geometry, new payload (elementwise-op results)."""
        if data.shape != self.data.shape:
            raise ValueError(f"shape {data.shape} != stack shape {self.data.shape}")
        return PaddedStack(data, self.rows, self.cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaddedStack(shape={self.data.shape}, rows={self.rows}, cols={self.cols})"

    # -- construction --------------------------------------------------------
    @classmethod
    def from_shards(cls, shards: Sequence[np.ndarray]) -> "PaddedStack":
        """Zero-pad ragged per-rank shards into one stack."""
        if not shards:
            raise ValueError("need at least one shard")
        ndim = shards[0].ndim
        if ndim not in (1, 2) or any(s.ndim != ndim for s in shards):
            raise ValueError("shards must be all 1-D or all 2-D")
        world = len(shards)
        rows = np.asarray([s.shape[0] for s in shards], dtype=np.int64)
        if ndim == 1:
            data = np.zeros((world, int(rows.max(initial=0))), dtype=shards[0].dtype)
            for r, s in enumerate(shards):
                data[r, : rows[r]] = s
            return cls(data, rows)
        cols = np.asarray([s.shape[1] for s in shards], dtype=np.int64)
        data = np.zeros(
            (world, int(rows.max(initial=0)), int(cols.max(initial=0))), dtype=shards[0].dtype
        )
        for r, s in enumerate(shards):
            data[r, : rows[r], : cols[r]] = s
        return cls(data, rows, cols)


def stack_shards(shards: Sequence[np.ndarray]) -> np.ndarray | PaddedStack:
    """Stack per-rank shards: a plain ``np.stack`` when shapes are uniform
    (the divisible fast path, unchanged numerics), a :class:`PaddedStack`
    when quasi-equal sharding left them ragged."""
    first = shards[0].shape
    if all(s.shape == first for s in shards[1:]):
        return np.stack(shards)
    return PaddedStack.from_shards(shards)
