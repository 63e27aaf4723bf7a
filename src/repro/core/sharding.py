"""Shard-slice computation for every matrix of a GCN layer (Fig. 3).

All sharding uses the quasi-equal contiguous blocks of
:func:`repro.sparse.partition.block_slices` (one block in closed form:
:func:`~repro.sparse.partition.block_slice`), so shapes are valid for any
(N, D, grid) combination, divisible or not.  The slices here are the single
source of truth shared by the model builder (which cuts the global matrices)
and the trainer (which aligns labels/masks to the output sharding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import Axis, AxisRoles, GridConfig, PlexusGrid
from repro.sparse.partition import block_slice

__all__ = ["LayerSharding"]


def _ceil_div(n: int, parts: int) -> int:
    return -(-n // parts)


def _sub_slice(outer: slice, parts: int, index: int) -> slice:
    """Slice (in global coordinates) of the ``index``-th sub-block of ``outer``."""
    length = outer.stop - outer.start
    inner = block_slice(length, parts, index)
    return slice(outer.start + inner.start, outer.start + inner.stop)


@dataclass(frozen=True)
class LayerSharding:
    """Shard geometry of one layer for the whole grid.

    Parameters mirror the layer: ``n`` graph nodes, ``d_in``/``d_out``
    feature dimensions, and the layer's :class:`AxisRoles`.
    """

    config: GridConfig
    roles: AxisRoles
    n: int
    d_in: int
    d_out: int

    # role-axis sizes
    @property
    def gx(self) -> int:
        return self.config.size(self.roles.x)

    @property
    def gy(self) -> int:
        return self.config.size(self.roles.y)

    @property
    def gz(self) -> int:
        return self.config.size(self.roles.z)

    def _c(self, grid: PlexusGrid, rank: int, role_axis: Axis) -> int:
        return grid.coord(rank, role_axis)

    # -- adjacency: rows over z-role, cols over x-role (replicated over y) ----
    def a_row_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.n, self.gz, self._c(grid, rank, self.roles.z))

    def a_col_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.n, self.gx, self._c(grid, rank, self.roles.x))

    # -- features: rows over x-role, cols over y-role --------------------------
    def f_row_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.n, self.gx, self._c(grid, rank, self.roles.x))

    def f_col_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.d_in, self.gy, self._c(grid, rank, self.roles.y))

    def f_row_subslice_z(self, grid: PlexusGrid, rank: int) -> slice:
        """Layer-0 extra sharding of F's rows over the z-role axis (Sec. 3.1:
        trainable input features carry gradients + optimizer state)."""
        outer = self.f_row_slice(grid, rank)
        return _sub_slice(outer, self.gz, self._c(grid, rank, self.roles.z))

    # -- weights: rows over y-role, cols over x-role, extra shard over z ------
    def w_row_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.d_in, self.gy, self._c(grid, rank, self.roles.y))

    def w_col_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.d_out, self.gx, self._c(grid, rank, self.roles.x))

    def w_row_subslice_z(self, grid: PlexusGrid, rank: int) -> slice:
        """Extra z-sharding of the local W block's rows (optimizer states)."""
        outer = self.w_row_slice(grid, rank)
        return _sub_slice(outer, self.gz, self._c(grid, rank, self.roles.z))

    # -- outputs: rows over z-role, cols over x-role ---------------------------
    def out_row_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.n, self.gz, self._c(grid, rank, self.roles.z))

    def out_col_slice(self, grid: PlexusGrid, rank: int) -> slice:
        return block_slice(self.d_out, self.gx, self._c(grid, rank, self.roles.x))

    # -- pad extents of the quasi-equal stacks ---------------------------------
    # ``block_slices`` hands the remainder to the first blocks, so the largest
    # block of every sharding is block 0: a closed form of ``(N, D, grid)``
    # that every holder of the geometry computes alike, whichever ranks it holds
    @property
    def w_pad(self) -> tuple[int, int]:
        """Pad extents of the z-sub-sharded weight stack."""
        return _ceil_div(_ceil_div(self.d_in, self.gy), self.gz), _ceil_div(self.d_out, self.gx)

    @property
    def f0_pad(self) -> tuple[int, int]:
        """Pad extents of the z-sub-sharded layer-0 feature stack."""
        return _ceil_div(_ceil_div(self.n, self.gx), self.gz), _ceil_div(self.d_in, self.gy)

    @property
    def a_pad(self) -> tuple[int, int]:
        """Pad extents of the adjacency shards: rows over z — of the
        aggregation and the output (logits, labels, masks) — and columns
        over x — of the gathered F and the A^T product."""
        return _ceil_div(self.n, self.gz), _ceil_div(self.n, self.gx)

    @property
    def w_gather_pad(self) -> int:
        """Row pad extent of the gathered weight stack (W before its
        z-sub-sharding)."""
        return _ceil_div(self.d_in, self.gy)

    def extent_table(self, grid: PlexusGrid) -> dict[str, np.ndarray]:
        """Per-rank shard extents as ``(world,)`` vectors.

        Keys: ``a_rows`` (A/H/Q rows — the z-role block of N), ``a_cols``
        (A cols = F rows — the x-role block of N), ``f_cols`` (F/H cols =
        gathered-W rows — the y-role block of D_in) and ``w_cols`` (W/Q
        cols — the x-role block of D_out).  These are the valid-extent
        vectors behind the padded stacks' masks and the per-rank kernel-time
        vectors; under quasi-equal sharding adjacent entries differ by at
        most one.
        """
        world = grid.world_size
        out = {
            "a_rows": np.empty(world),
            "a_cols": np.empty(world),
            "f_cols": np.empty(world),
            "w_cols": np.empty(world),
        }
        for r in range(world):
            s = self.a_row_slice(grid, r)
            out["a_rows"][r] = s.stop - s.start
            s = self.a_col_slice(grid, r)
            out["a_cols"][r] = s.stop - s.start
            s = self.f_col_slice(grid, r)
            out["f_cols"][r] = s.stop - s.start
            s = self.w_col_slice(grid, r)
            out["w_cols"][r] = s.stop - s.start
        return out
