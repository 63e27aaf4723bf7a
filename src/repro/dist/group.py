"""Process groups and the Eq. 4.6 effective-bandwidth model.

A :class:`ProcessGroup` is an ordered set of virtual ranks that execute
collectives together; the order *is* the shard order (all-gather
concatenates member shards in member order).  Its ``bandwidth`` is the
effective per-rank link bandwidth the ring cost models (Eq. 4.5) divide by.
The baselines build them; a grid axis names its groups' links from the
geometry instead (``repro.dist.comm.AxisCommunicator``).

:func:`axis_bandwidth` implements the paper's Eq. 4.6: a grid-axis group
whose members all fit inside one node communicates at the intra-node
(NVLink / Infinity Fabric) bandwidth; a group that spans nodes shares the
node's aggregate NIC injection bandwidth with its *sibling* groups — the
other groups of the same axis that live on the same nodes.  Under the
Y-fastest rank mapping the number of siblings per node equals the axis's
inner-axis product, capped at the node size.  The function is memoized:
``PlexusGrid.comm`` and both analytic models call it inside
configuration sweeps thousands of times with a handful of distinct
arguments.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.dist.cluster import VirtualRank
from repro.dist.topology import MachineSpec

__all__ = ["axis_bandwidth", "ProcessGroup"]


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


class ProcessGroup:
    """An ordered set of ranks plus the link model their collectives use."""

    __slots__ = ("members", "machine", "bandwidth", "latency", "name", "_index", "store", "member_idx", "_comm")

    def __init__(
        self,
        members: Sequence[VirtualRank],
        machine: MachineSpec,
        bandwidth: float,
        latency: float | None = None,
        name: str = "",
    ) -> None:
        members = list(members)
        if not members:
            raise ValueError("process group must have at least one member")
        ids = [m.rank for m in members]
        if len(set(ids)) != len(ids):
            raise ValueError("process group members must be distinct ranks")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.members = members
        self.machine = machine
        self.bandwidth = float(bandwidth)
        self.latency = machine.latency if latency is None else float(latency)
        self.name = name
        self._index = {rank: i for i, rank in enumerate(ids)}
        # Vectorized charges: every member views the same ClockStore (all
        # ranks of one VirtualCluster), so the collectives sync/advance the
        # whole group with a few array ops on ``store.clocks[member_idx]``
        # instead of per-member calls.  Grid-axis
        # groups are arithmetic progressions of rank ids (stride 1 for Y, Gy
        # for X, Gx*Gy for Z), so ``member_idx`` is a basic slice whenever
        # possible — strided views beat fancy indexing on small groups.
        self.store = members[0]._store
        if any(m._store is not self.store for m in members):
            raise ValueError("process group members must share one ClockStore")
        pos = [m._i for m in members]
        step = pos[1] - pos[0] if len(pos) > 1 else 1
        if step > 0 and all(b - a == step for a, b in zip(pos, pos[1:])):
            self.member_idx: slice | np.ndarray = slice(pos[0], pos[-1] + 1, step)
        else:
            self.member_idx = np.asarray(pos, dtype=np.intp)
        # lazily-built GroupCommunicator (see repro.dist.comm.communicator)
        self._comm = None

    @classmethod
    def from_cluster_ranks(
        cls,
        members: Sequence[VirtualRank],
        machine: MachineSpec,
        name: str = "",
    ) -> "ProcessGroup":
        """Build a group whose bandwidth follows from node placement alone:
        intra-node bandwidth when the members share a node, the node's full
        NIC aggregate otherwise (no sibling contention — use
        :func:`axis_bandwidth` for grid-axis groups)."""
        ids = [m.rank for m in members]
        if machine.group_is_intra_node(ids):
            bw = machine.intra_node_bw
        else:
            bw = machine.inter_node_bw
        return cls(members, machine, bandwidth=bw, name=name)

    @property
    def size(self) -> int:
        return len(self.members)

    def index_of(self, member: VirtualRank) -> int:
        """Position of ``member`` in the group (= its shard index)."""
        try:
            return self._index[member.rank]
        except KeyError:
            raise KeyError(f"rank {member.rank} is not in group {self.name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = [m.rank for m in self.members]
        return f"ProcessGroup({self.name!r}, ranks={ids}, bw={self.bandwidth:.3g})"
