"""The 3D virtual GPU grid (Sec. 3.1) and the per-layer axis-role rotation
that parallelizes every layer (Sec. 3.2).

Ranks are arranged in a ``Gx x Gy x Gz`` grid.  Following the paper's
topology-aware mapping (Sec. 4.2: "prioritizing Y, X, and then Z parallelism
within a node"), the linear rank id is ``z*(Gx*Gy) + x*Gy + y`` — Y varies
fastest, so Y-groups pack into nodes first.

Layer *i* of the network assigns the three *logical* roles (x, y, z) of
Algorithms 1-2 to *physical* axes by rotating the triple::

    layer 0: (X, Y, Z)    layer 1: (Z, X, Y)    layer 2: (Y, Z, X)

which puts A_L0 on the ZX-plane, A_L1 on the YZ-plane and A_L2 on the
XY-plane exactly as Fig. 4 shows, and makes each layer's output sharding
coincide with the next layer's expected input sharding with only
``min(3, L)`` distinct adjacency shardings.

:class:`PlexusGrid` is the one grid of every backend (Plexus is SPMD: a
rank's coordinates decide its shards and its links): it serves the ranks
its cluster holds — the whole cube in process, a worker's z-planes in
``repro.runtime`` — out of the same memoised coordinate table, and knows
the global :class:`GridConfig` either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

from repro.dist.cluster import VirtualCluster
from repro.dist.collectives import AxisComm, axis_bandwidth
from repro.dist.comm import AxisCommunicator

__all__ = ["Axis", "GridConfig", "AxisRoles", "axis_roles", "PlexusGrid"]


class Axis(IntEnum):
    """Physical grid axes."""

    X = 0
    Y = 1
    Z = 2


@dataclass(frozen=True)
class GridConfig:
    """A 3D configuration ``(Gx, Gy, Gz)`` of the GPU grid."""

    gx: int
    gy: int
    gz: int

    def __post_init__(self) -> None:
        if min(self.gx, self.gy, self.gz) < 1:
            raise ValueError("all grid dimensions must be >= 1")

    @property
    def total(self) -> int:
        return self.gx * self.gy * self.gz

    def size(self, axis: Axis) -> int:
        return (self.gx, self.gy, self.gz)[axis]

    @property
    def name(self) -> str:
        """The paper's naming convention, e.g. ``X2Y4Z1`` (Fig. 7 legend)."""
        return f"X{self.gx}Y{self.gy}Z{self.gz}"

    @classmethod
    def parse(cls, name: str) -> "GridConfig":
        """Parse ``X2Y4Z1``-style names."""
        import re

        m = re.fullmatch(r"X(\d+)Y(\d+)Z(\d+)", name.strip())
        if not m:
            raise ValueError(f"cannot parse grid config {name!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))

    @property
    def n_parallel_dims(self) -> int:
        """1 for 1D configs, 2 for 2D, 3 for 3D (Fig. 5's three families)."""
        return sum(1 for g in (self.gx, self.gy, self.gz) if g > 1)

    #: inner-axis product per axis under the Y-fastest rank mapping,
    #: used by the Eq. 4.6 contention term.
    def inner_size(self, axis: Axis) -> int:
        if axis is Axis.Y:
            return 1
        if axis is Axis.X:
            return self.gy
        return self.gx * self.gy


@dataclass(frozen=True)
class AxisRoles:
    """Mapping from a layer's logical roles to physical axes.

    ``x`` is the role that shards A's columns / F's rows, ``y`` shards F's
    columns / W's rows, ``z`` shards A's rows (and the extra sharding of
    layer-0 F and of all W).
    """

    x: Axis
    y: Axis
    z: Axis

    def as_tuple(self) -> tuple[Axis, Axis, Axis]:
        return (self.x, self.y, self.z)


_ROTATIONS = (
    AxisRoles(Axis.X, Axis.Y, Axis.Z),
    AxisRoles(Axis.Z, Axis.X, Axis.Y),
    AxisRoles(Axis.Y, Axis.Z, Axis.X),
)


def axis_roles(layer_idx: int) -> AxisRoles:
    """Role assignment for ``layer_idx`` (period-3 rotation, Sec. 3.2)."""
    if layer_idx < 0:
        raise ValueError("layer index must be non-negative")
    return _ROTATIONS[layer_idx % 3]


@lru_cache(maxsize=512)
def _grid_coords(gx: int, gy: int, gz: int) -> tuple[tuple[int, int, int], ...]:
    """(x, y, z) per rank under the Y-fastest mapping, computed vectorized.

    Pure in the grid shape, so every grid of the same configuration — sweeps
    build hundreds — shares one computation.
    """
    ranks = np.arange(gx * gy * gz)
    y = ranks % gy
    x = (ranks // gy) % gx
    z = ranks // (gx * gy)
    return tuple(zip(x.tolist(), y.tolist(), z.tolist()))


class PlexusGrid:
    """Axis communicators of a 3D grid, for the ranks a virtual cluster
    holds.

    A whole-world cluster's axes span the cube.  A cluster holding the
    slice ``[lo, hi)`` — whole z-planes, so every X and Y group is local —
    runs X and Y over its own planes, and its Z axis is the same
    :class:`~repro.dist.comm.AxisCommunicator` over the cluster's byte
    mover (``cluster.exchange``), whose clocks and planes span the cube.
    Rank arguments and ``world_size`` are local to the cluster (== global
    on the whole cube); :meth:`coords` maps them to global cube coordinates,
    so the :class:`~repro.core.sharding.LayerSharding` slicers give each
    held rank its global shard, and ``config`` is always the global
    geometry.
    """

    def __init__(self, cluster: VirtualCluster, config: GridConfig) -> None:
        plane = config.gx * config.gy
        if cluster.exchange is None and (cluster.lo, cluster.hi) != (0, config.total):
            raise ValueError(
                f"grid {config.name} needs {config.total} ranks, cluster has {cluster.world_size}"
            )
        if cluster.lo % plane or cluster.hi % plane or cluster.hi > config.total:
            raise ValueError(f"a slice of grid {config.name} must cover whole z-planes")
        self.cluster = cluster
        self.config = config
        self._coords = _grid_coords(config.gx, config.gy, config.gz)[cluster.lo : cluster.hi]
        #: the rank cube ``(z-planes held, Gx, Gy)`` the stacked tensors are
        #: laid out on (rank id = ``z*Gx*Gy + x*Gy + y``, Y fastest), so a
        #: whole-axis collective reduces/gathers over cube position Z -> 0,
        #: X -> 1, Y -> 2
        self.cube = (cluster.world_size // plane, config.gx, config.gy)
        self._comms: dict[Axis, AxisCommunicator] = {}

    # -- rank mapping --------------------------------------------------------
    def coords(self, rank: int) -> tuple[int, int, int]:
        """Global (x, y, z) coordinates of a held rank."""
        return self._coords[rank]

    def coord(self, rank: int, axis: Axis) -> int:
        return self._coords[rank][axis]

    # -- axes ---------------------------------------------------------------
    def comm(self, axis: Axis) -> AxisCommunicator:
        """The handle-based communicator of a grid axis.

        Its methods (``all_reduce`` & co) run every group along the axis as
        one cube-reshaped reduction over a stacked operand and return
        :class:`~repro.dist.comm.PendingCollective` handles — call
        ``.wait()`` immediately for the eager schedule, or interleave
        compute between issue and wait to hide communication.
        """
        comm = self._comms.get(axis)
        if comm is None:
            cfg, cluster = self.config, self.cluster
            # bandwidth and latency are shared by every group along an axis
            # (Eq. 4.6), so one descriptor per axis covers them all.  X and Y
            # span the held planes; Z always spans the whole cube — behind a
            # byte mover its clocks and operand planes come from every slice
            descriptor = AxisComm(
                store=cluster.store,
                cube=(cfg.gz, cfg.gx, cfg.gy) if axis is Axis.Z else self.cube,
                axis=(1, 2, 0)[axis],  # cube position: X -> 1, Y -> 2, Z -> 0
                size=cfg.size(axis),
                bandwidth=axis_bandwidth(cluster.machine, cfg.size(axis), cfg.inner_size(axis)),
                latency=cluster.machine.latency,
                issue_overhead_s=cluster.machine.issue_overhead_s,
            )
            comm = self._comms[axis] = AxisCommunicator(
                descriptor,
                exchange=cluster.exchange if axis is Axis.Z else None,
                z0=cluster.lo // (cfg.gx * cfg.gy),  # the first held plane
            )
        return comm

    def link_keys(self) -> set:
        """Every ``ClockStore.links`` key the collectives of the held ranks
        touch (a slice: its planes' X / Y links and all the Z links) — what a
        restore keeps of a re-sliced cube's link books."""
        return {k for axis in Axis for k in self.comm(axis)._slots.links}

    @property
    def world_size(self) -> int:
        """The ranks this grid's cluster holds (the whole cube in process)."""
        return self.cluster.world_size
