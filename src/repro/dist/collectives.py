"""Eq. 4.5 collective cost models, the Eq. 4.6 axis bandwidth and the
batched-axis descriptor.

The ring-collective timing laws of Eq. 4.5 (:func:`ring_all_reduce_time` &
co) are used by the executable communicator in ``repro.dist.comm`` and
evaluated symbolically by the analytic models in ``repro.perf`` /
``repro.core.perf_model``.  The collectives themselves are the
handle-based communicator API: an
:class:`~repro.dist.comm.AxisCommunicator` over one :class:`AxisComm`
(``PlexusGrid.comm(axis)``; the baselines' world group is the one axis of
a ``(P, 1, 1)`` cube), whose methods return
:class:`~repro.dist.comm.PendingCollective` handles: issue cost is charged
immediately, completion cost at ``.wait()``, so compute charged between
issue and wait genuinely hides communication.

Cost models (Eq. 4.5, ``m`` = message bytes, ``G`` = group size, ``beta`` =
effective bandwidth from Eq. 4.6, ``alpha`` = per-hop latency):

* ring all-gather / reduce-scatter: ``(G-1)/G * m/beta + (G-1)*alpha``
* ring all-reduce (reduce-scatter + all-gather): twice that
* all-to-all: the all-gather volume term times a congestion factor that
  grows with ``G`` (personalized long-distance messages contend on the
  dragonfly, Sec. 7.1), plus per-peer latency
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dist.cluster import ClockStore
from repro.dist.topology import MachineSpec

__all__ = [
    "axis_bandwidth",
    "ring_all_reduce_time",
    "ring_all_gather_time",
    "ring_reduce_scatter_time",
    "all_to_all_time",
    "RING_LAWS",
    "AxisComm",
]


# ---------------------------------------------------------------------------
# Eq. 4.5 cost models
# ---------------------------------------------------------------------------


def _validate_cost_args(nbytes: float, group_size: int, bandwidth: float) -> None:
    if np.any(np.less(group_size, 1)):
        raise ValueError("group size must be >= 1")
    if np.any(np.less(nbytes, 0)):
        raise ValueError("message size must be non-negative")
    if np.any(np.less_equal(bandwidth, 0)):
        raise ValueError("bandwidth must be positive")


def ring_all_gather_time(
    nbytes: float, group_size: int, bandwidth: float, latency: float = 0.0
) -> float:
    """Ring all-gather of a ``nbytes`` total result across ``group_size``
    (any argument may be an array: one law per configuration of a sweep)."""
    _validate_cost_args(nbytes, group_size, bandwidth)
    steps = group_size - 1  # a group of one takes no step: 0 seconds
    return steps / group_size * (nbytes / bandwidth) + steps * latency


def ring_reduce_scatter_time(
    nbytes: float, group_size: int, bandwidth: float, latency: float = 0.0
) -> float:
    """Ring reduce-scatter of a ``nbytes`` full vector across ``group_size``."""
    return ring_all_gather_time(nbytes, group_size, bandwidth, latency)


def ring_all_reduce_time(
    nbytes: float, group_size: int, bandwidth: float, latency: float = 0.0
) -> float:
    """Ring all-reduce = reduce-scatter + all-gather; approaches
    ``2*m/beta`` for large groups."""
    return 2.0 * ring_all_gather_time(nbytes, group_size, bandwidth, latency)


#: the Eq. 4.5 law of each collective kind a grid axis runs
RING_LAWS = {
    "all_reduce": ring_all_reduce_time,
    "all_gather": ring_all_gather_time,
    "reduce_scatter": ring_reduce_scatter_time,
}


#: how strongly the personalized all-to-all degrades with group size: each
#: doubling of the group adds this fraction of the base volume term again
#: (long-distance dragonfly contention, Sec. 7.1)
_ALLTOALL_CONGESTION_PER_DOUBLING = 0.25


def all_to_all_time(
    nbytes: float, group_size: int, bandwidth: float, latency: float = 0.0
) -> float:
    """Personalized all-to-all of ``nbytes`` per-rank payload.

    Each rank keeps ``1/G`` of its payload and exchanges the rest, so the
    volume term matches the all-gather's; the congestion factor grows with
    ``log2(G)`` and the latency term pays one ``alpha`` per peer.
    """
    _validate_cost_args(nbytes, group_size, bandwidth)
    if group_size == 1:
        return 0.0
    steps = group_size - 1
    congestion = 1.0 + _ALLTOALL_CONGESTION_PER_DOUBLING * math.log2(group_size)
    return steps / group_size * (nbytes / bandwidth) * congestion + steps * latency


# ---------------------------------------------------------------------------
# Eq. 4.6 effective bandwidth of a grid axis
#
# A grid-axis group whose members all fit inside one node communicates at the
# intra-node (NVLink / Infinity Fabric) bandwidth; a group that spans nodes
# shares the node's aggregate NIC injection bandwidth with its *sibling*
# groups — the other groups of the same axis that live on the same nodes.
# Under the Y-fastest rank mapping the number of siblings per node equals the
# axis's inner-axis product, capped at the node size.  Memoized:
# ``PlexusGrid.comm`` and both analytic models call it inside configuration
# sweeps thousands of times with a handful of distinct arguments.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _axis_bandwidth(machine: MachineSpec, size: int, inner: int) -> float:
    if size == 1:
        # singleton groups never leave the device; charge NVLink-class BW
        return machine.intra_node_bw
    # a group occupies a contiguous, span-aligned block of `size * inner`
    # ranks; it stays inside one node only when that block both fits in and
    # tiles the node (misaligned spans, e.g. 3 on a 4-GPU node, straddle the
    # node boundary and must go through the NICs)
    span = size * inner
    if span <= machine.gpus_per_node and machine.gpus_per_node % span == 0:
        return machine.intra_node_bw
    siblings = min(inner, machine.gpus_per_node)
    return machine.inter_node_bw / siblings


def axis_bandwidth(machine: MachineSpec, size: int, inner: int) -> float:
    """Eq. 4.6 effective bandwidth of one grid-axis process group.

    ``size`` is the group (axis) size; ``inner`` is the product of the grid
    dimensions that vary faster than this axis in the rank ordering (1 for
    Y, ``Gy`` for X, ``Gx*Gy`` for Z) — which equals the stride between
    consecutive group members and hence the number of sibling groups
    interleaved on the same nodes.
    """
    if size < 1 or inner < 1:
        raise ValueError("group size and inner-axis product must be >= 1")
    return _axis_bandwidth(machine, size, inner)


# ---------------------------------------------------------------------------
# the batched-axis descriptor (consumed by repro.dist.comm)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisComm:
    """Everything a batched collective needs about one grid axis.

    ``cube`` is the clock/shard cube shape ``(Gz, Gx, Gy)`` (rank id =
    ``z*(Gx*Gy) + x*Gy + y``), ``axis`` the cube position being reduced /
    gathered over (Z -> 0, X -> 1, Y -> 2), and ``size`` its extent.  All
    process groups along one grid axis share ``bandwidth`` (Eq. 4.6),
    ``latency`` and the launch cost ``issue_overhead_s`` charged to every
    member at issue (the machine's ``MachineSpec.issue_overhead_s``), which
    is what makes a single time charge per axis valid.
    ``PlexusGrid.comm(axis)`` wraps this descriptor in an
    :class:`~repro.dist.comm.AxisCommunicator` for the handle-based
    collective API.  Behind a byte mover (the multi-process runtime's Z
    axis) ``store`` holds the local z-planes of ``cube`` only.
    """

    store: ClockStore
    cube: tuple[int, int, int]
    axis: int
    size: int
    bandwidth: float
    latency: float
    issue_overhead_s: float

    @property
    def world(self) -> int:
        return self.cube[0] * self.cube[1] * self.cube[2]
