"""Simulated distributed runtime: topology, virtual cluster, collectives.

This package is the substrate everything else stands on: machine
topologies (``topology``), per-rank clocks with O(1) phase-attributed time
accounting (``cluster``), the Eq. 4.5 cost models and the Eq. 4.6
effective bandwidth of a grid axis (``collectives``), and executable
collectives that move real numpy shards while charging those costs
(``comm``).

The collective surface is one handle-based communicator (``comm``):
:class:`AxisCommunicator` runs every process group along one axis of a
rank cube — a Plexus grid axis, or the baselines' world group as the one
axis of a ``(P, 1, 1)`` cube — as one cube-reshaped reduction over a
stacked ``(world, ...)`` operand.  Its methods return
:class:`PendingCollective` handles, charging issue cost immediately and
completion cost at ``.wait()``, so compute charged between issue and wait
hides communication on the simulated timeline; the eager schedule is
``.wait()`` right after the issue.
"""

from repro.dist.topology import (
    FRONTIER,
    LAPTOP,
    PERLMUTTER,
    MachineSpec,
    machine_by_name,
)
from repro.dist.cluster import ClockStore, VirtualCluster
from repro.dist.collectives import (
    AxisComm,
    all_to_all_time,
    axis_bandwidth,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
)
from repro.dist.comm import AxisCommunicator, PendingCollective
from repro.dist.padded import CubeStack, stack_shards

__all__ = [
    "AxisCommunicator",
    "PendingCollective",
    "CubeStack",
    "stack_shards",
    "MachineSpec",
    "PERLMUTTER",
    "FRONTIER",
    "LAPTOP",
    "machine_by_name",
    "ClockStore",
    "VirtualCluster",
    "axis_bandwidth",
    "AxisComm",
    "ring_all_reduce_time",
    "ring_all_gather_time",
    "ring_reduce_scatter_time",
    "all_to_all_time",
]
