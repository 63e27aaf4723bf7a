"""Simulated distributed runtime: topology, virtual cluster, collectives.

This package is the substrate everything else stands on: machine
topologies (``topology``), per-rank clocks with O(1) phase-attributed time
accounting (``cluster``), process groups with the Eq. 4.6 effective
bandwidth model (``group``), and executable ring collectives that move real
numpy shards while charging the Eq. 4.5 cost models (``collectives``).

The collective surface is the handle-based communicator API (``comm``):
:class:`GroupCommunicator` for one process group and
:class:`AxisCommunicator` for a whole grid axis (which runs every group
along the axis as one cube-reshaped reduction over a stacked
``(world, ...)`` operand — what ``repro.core`` executes on).  Their
methods return :class:`PendingCollective` handles, charging issue cost
immediately and completion cost at ``.wait()``, so compute charged between
issue and wait hides communication on the simulated timeline; the eager
schedule is ``.wait()`` right after the issue.
"""

from repro.dist.topology import (
    FRONTIER,
    LAPTOP,
    PERLMUTTER,
    MachineSpec,
    machine_by_name,
)
from repro.dist.cluster import ClockStore, Timeline, TimelineBreakdown, VirtualCluster, VirtualRank
from repro.dist.group import ProcessGroup, axis_bandwidth
from repro.dist.collectives import (
    AxisComm,
    all_to_all_time,
    broadcast_time,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
)
from repro.dist.comm import (
    AxisCommunicator,
    GroupCommunicator,
    PendingCollective,
    communicator,
)
from repro.dist.padded import CubeStack, stack_shards

__all__ = [
    "AxisCommunicator",
    "GroupCommunicator",
    "PendingCollective",
    "CubeStack",
    "stack_shards",
    "communicator",
    "MachineSpec",
    "PERLMUTTER",
    "FRONTIER",
    "LAPTOP",
    "machine_by_name",
    "ClockStore",
    "Timeline",
    "TimelineBreakdown",
    "VirtualCluster",
    "VirtualRank",
    "ProcessGroup",
    "axis_bandwidth",
    "AxisComm",
    "ring_all_reduce_time",
    "ring_all_gather_time",
    "ring_reduce_scatter_time",
    "broadcast_time",
    "all_to_all_time",
]
