"""Eq. 4.5 collective cost models and the deprecated eager collective shims.

This module keeps two things:

1. **Cost models** — the ring-collective timing laws of Eq. 4.5
   (:func:`ring_all_reduce_time` & co), used by the executable communicators
   in ``repro.dist.comm`` and evaluated symbolically by the analytic models
   in ``repro.perf`` / ``repro.core.perf_model``.
2. **Deprecated eager shims** — the original function-style collectives
   (``all_reduce`` / ``axis_all_reduce`` / ...).  They now delegate to the
   handle-based communicator API (:mod:`repro.dist.comm`) and wait
   immediately, which keeps their numerics — data, clocks and phase totals
   — bitwise identical to the historical eager behavior, and emit a
   :class:`DeprecationWarning` **once per function**.  The ``axis_*`` shims
   forward :class:`~repro.dist.padded.PaddedStack` operands unchanged, so
   legacy call sites keep working on padded quasi-equal stacks.  New code should use
   ``PlexusGrid.comm(axis)`` (an :class:`~repro.dist.comm.AxisCommunicator`)
   or :func:`repro.dist.comm.communicator` on a process group, whose methods
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
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dist.cluster import ClockStore
from repro.dist.group import ProcessGroup

__all__ = [
    "ring_all_reduce_time",
    "ring_all_gather_time",
    "ring_reduce_scatter_time",
    "broadcast_time",
    "all_to_all_time",
    "all_reduce",
    "all_gather",
    "reduce_scatter",
    "broadcast",
    "all_to_all",
    "AxisComm",
    "axis_all_reduce",
    "axis_all_gather",
    "axis_reduce_scatter",
]


# ---------------------------------------------------------------------------
# Eq. 4.5 cost models
# ---------------------------------------------------------------------------


def _validate_cost_args(nbytes: float, group_size: int, bandwidth: float) -> None:
    if group_size < 1:
        raise ValueError("group size must be >= 1")
    if nbytes < 0:
        raise ValueError("message size must be non-negative")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")


def ring_all_gather_time(
    nbytes: float, group_size: int, bandwidth: float, latency: float = 0.0
) -> float:
    """Ring all-gather of a ``nbytes`` total result across ``group_size``."""
    _validate_cost_args(nbytes, group_size, bandwidth)
    if group_size == 1:
        return 0.0
    steps = group_size - 1
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


def broadcast_time(
    nbytes: float, group_size: int, bandwidth: float, latency: float = 0.0
) -> float:
    """Pipelined ring broadcast: one full pass of the payload."""
    _validate_cost_args(nbytes, group_size, bandwidth)
    if group_size == 1:
        return 0.0
    return nbytes / bandwidth + (group_size - 1) * latency


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
    Feed to :func:`repro.dist.comm.axis_communicator` (or use
    ``PlexusGrid.comm(axis)``, which wraps this descriptor) for the
    handle-based collective API.
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


# ---------------------------------------------------------------------------
# deprecated eager shims (issue + wait in one call)
# ---------------------------------------------------------------------------

#: functions that have already warned this process (one warning per function)
_DEPRECATED_WARNED: set[str] = set()


def _warn_deprecated(name: str, replacement: str) -> None:
    if name in _DEPRECATED_WARNED:
        return
    _DEPRECATED_WARNED.add(name)
    warnings.warn(
        f"repro.dist.collectives.{name}() is deprecated; use the handle-based "
        f"communicator API instead ({replacement} returns a PendingCollective "
        "— call .wait() for the eager behavior)",
        DeprecationWarning,
        stacklevel=3,
    )


def all_reduce(
    group: ProcessGroup,
    shards: Sequence[np.ndarray],
    op: str = "sum",
    phase: str = "all_reduce",
) -> list[np.ndarray]:
    """Deprecated eager shim for ``communicator(group).all_reduce(...)``."""
    _warn_deprecated("all_reduce", "repro.dist.comm.communicator(group).all_reduce")
    from repro.dist.comm import communicator

    return communicator(group).all_reduce(shards, op=op, phase=phase).wait()


def all_gather(
    group: ProcessGroup,
    shards: Sequence[np.ndarray],
    axis: int = 0,
    phase: str = "all_gather",
) -> list[np.ndarray]:
    """Deprecated eager shim for ``communicator(group).all_gather(...)``."""
    _warn_deprecated("all_gather", "repro.dist.comm.communicator(group).all_gather")
    from repro.dist.comm import communicator

    return communicator(group).all_gather(shards, axis=axis, phase=phase).wait()


def reduce_scatter(
    group: ProcessGroup,
    shards: Sequence[np.ndarray],
    axis: int = 0,
    op: str = "sum",
    phase: str = "reduce_scatter",
) -> list[np.ndarray]:
    """Deprecated eager shim for ``communicator(group).reduce_scatter(...)``."""
    _warn_deprecated("reduce_scatter", "repro.dist.comm.communicator(group).reduce_scatter")
    from repro.dist.comm import communicator

    return communicator(group).reduce_scatter(shards, axis=axis, op=op, phase=phase).wait()


def broadcast(
    group: ProcessGroup,
    array: np.ndarray,
    root: int = 0,
    phase: str = "broadcast",
) -> list[np.ndarray]:
    """Deprecated eager shim for ``communicator(group).broadcast(...)``."""
    _warn_deprecated("broadcast", "repro.dist.comm.communicator(group).broadcast")
    from repro.dist.comm import communicator

    return communicator(group).broadcast(array, root=root, phase=phase).wait()


def all_to_all(
    group: ProcessGroup,
    chunks: Sequence[Sequence[np.ndarray]],
    phase: str = "all_to_all",
) -> list[list[np.ndarray]]:
    """Deprecated eager shim for ``communicator(group).all_to_all(...)``."""
    _warn_deprecated("all_to_all", "repro.dist.comm.communicator(group).all_to_all")
    from repro.dist.comm import communicator

    return communicator(group).all_to_all(chunks, phase=phase).wait()


def axis_all_reduce(comm: AxisComm, stacked, op: str = "sum", phase: str = "all_reduce"):
    """Deprecated eager shim for ``axis_communicator(comm).all_reduce(...)``
    (same operands, same stack-typed result)."""
    _warn_deprecated("axis_all_reduce", "repro.dist.comm.axis_communicator(comm).all_reduce")
    from repro.dist.comm import axis_communicator

    return axis_communicator(comm).all_reduce(stacked, op=op, phase=phase).wait()


def axis_all_gather(comm: AxisComm, stacked, phase: str = "all_gather"):
    """Deprecated eager shim for ``axis_communicator(comm).all_gather(...)``
    (same operands, same stack-typed result)."""
    _warn_deprecated("axis_all_gather", "repro.dist.comm.axis_communicator(comm).all_gather")
    from repro.dist.comm import axis_communicator

    return axis_communicator(comm).all_gather(stacked, phase=phase).wait()


def axis_reduce_scatter(
    comm: AxisComm, stacked, op: str = "sum", phase: str = "reduce_scatter"
):
    """Deprecated eager shim for ``axis_communicator(comm).reduce_scatter(...)``
    (same operands, same stack-typed result)."""
    _warn_deprecated("axis_reduce_scatter", "repro.dist.comm.axis_communicator(comm).reduce_scatter")
    from repro.dist.comm import axis_communicator

    return axis_communicator(comm).reduce_scatter(stacked, op=op, phase=phase).wait()
