"""Eq. 4.5 collective cost models and the batched-axis descriptor.

The ring-collective timing laws of Eq. 4.5 (:func:`ring_all_reduce_time` &
co) are used by the executable communicators in ``repro.dist.comm`` and
evaluated symbolically by the analytic models in ``repro.perf`` /
``repro.core.perf_model``.  The collectives themselves are the
handle-based communicator API: ``PlexusGrid.comm(axis)`` (an
:class:`~repro.dist.comm.AxisCommunicator`) or
:func:`repro.dist.comm.communicator` on a process group, whose methods
return :class:`~repro.dist.comm.PendingCollective` handles: issue cost is
charged immediately, completion cost at ``.wait()``, so compute charged
between issue and wait genuinely hides communication.

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

import numpy as np

from repro.dist.cluster import ClockStore

__all__ = [
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
# the batched-axis descriptor (consumed by repro.dist.comm and PlexusGrid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisComm:
    """Everything a batched collective needs about one grid axis.

    ``cube`` is the clock/shard cube shape ``(Gz, Gx, Gy)`` (rank id =
    ``z*(Gx*Gy) + x*Gy + y``), ``axis`` the cube position being reduced /
    gathered over (Z -> 0, X -> 1, Y -> 2), and ``size`` its extent.  All
    process groups along one grid axis share ``bandwidth`` (Eq. 4.6) and
    ``latency``, which is what makes a single time charge per axis valid.
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

    @property
    def world(self) -> int:
        return self.cube[0] * self.cube[1] * self.cube[2]
