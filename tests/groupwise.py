"""Per-group collectives: one call per process group, on its members' shards.

``repro.dist.comm.AxisCommunicator`` runs every process group along an axis
of the rank cube as one stacked reduction and charges the whole cube at
once.  This module is the form the paper writes: a :class:`Group` is an
ordered set of ranks of one cluster with the link model of its axis, and
:func:`all_reduce` / :func:`all_gather` / :func:`reduce_scatter` take the
members' shards as a list, in member order, and return a :class:`Handle`
whose ``wait()`` charges the members by index.  That charge is code of its
own, so oracle == product (``tests/oracle.py``) checks the product's cube
charge against an independent one.  Only the schedule kernel
(``comm._schedule``) and the link names (``comm.link_key``) are shared: a
group's collectives queue on the same links as the whole-axis ones.

:func:`axis_comm` builds the product's communicator over one group of a
cluster's ranks with a chosen link model, for tests that drive it directly.
"""

from __future__ import annotations

import numpy as np

from repro.dist.collectives import (
    AxisComm,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
)
from repro.dist.comm import AxisCommunicator, _schedule, _Slots, link_key
from repro.errors import CollectiveMisuse
from repro.sparse.partition import block_slices

__all__ = ["Group", "Handle", "all_reduce", "all_gather", "reduce_scatter", "axis_comm"]

_UFUNCS = {"sum": np.add, "max": np.maximum}


class Group:
    """Global member ranks (in shard order) of one cluster, and the link
    model their collectives are charged at."""

    __slots__ = ("ranks", "store", "idx", "bandwidth", "latency", "issue_overhead_s", "slots")

    def __init__(self, cluster, ranks, bandwidth: float) -> None:
        self.ranks = tuple(ranks)
        self.store = cluster.store
        self.idx = np.asarray(self.ranks, dtype=np.intp) - cluster.lo
        self.bandwidth = bandwidth
        self.latency = cluster.machine.latency
        self.issue_overhead_s = cluster.machine.issue_overhead_s
        self.slots = _Slots((link_key(self.ranks),))

    @property
    def size(self) -> int:
        return len(self.ranks)


class Handle:
    """One group's issued collective: ``wait()`` lifts each member to the
    scheduled end, charging its straggler wait plus the transfer (only the
    uncovered tail for a member whose clock passed the comm start), and
    returns the members' results."""

    __slots__ = ("phase", "waited", "_store", "_record", "_result")

    def __init__(self, phase: str, result, store=None, record: tuple | None = None) -> None:
        self.phase = phase
        self.waited = False
        self._store = store
        self._record = record
        self._result = result
        if record is not None:
            store.register_outstanding(self)

    def wait(self):
        if self.waited:
            raise CollectiveMisuse(f"collective handle {self.phase!r} waited twice")
        self.waited = True
        if self._record is not None:
            idx, begin, end, duration = self._record
            store = self._store
            c = store.clocks[idx]
            if c.max() <= begin:
                charge = (begin - c) + duration
                store.clocks[idx] = end
            else:
                charge = np.where(c <= begin, (begin - c) + duration, np.maximum(end - c, 0.0))
                store.clocks[idx] = np.maximum(c, end)
            store.record_idx(idx, self.phase, charge)
            store.resolve_outstanding(self)
        result, self._result = self._result, None
        return result


def _issue(group: Group, duration: float, phase: str, result) -> Handle:
    store, idx = group.store, group.idx
    if group.issue_overhead_s:
        store.clocks[idx] += group.issue_overhead_s
        store.record_idx(idx, phase, group.issue_overhead_s)
    begin, end = _schedule(store, group.slots, store.clocks[idx].max(), duration, phase)
    return Handle(phase, result, store, (idx, begin, end, duration))


def all_reduce(group: Group, shards, op: str = "sum", phase: str = "all_reduce") -> Handle:
    """Element-wise reduction of equal-shape shards; every member receives
    the result."""
    g = group.size
    if g == 1:
        return Handle("comm:" + phase, [shards[0]])
    reduced = _UFUNCS[op].reduce(np.stack(shards), axis=0)
    t = ring_all_reduce_time(reduced.nbytes, g, group.bandwidth, group.latency)
    return _issue(group, t, "comm:" + phase, [reduced] * g)


def all_gather(group: Group, shards, axis: int = 0, phase: str = "all_gather") -> Handle:
    """The member shards concatenated (in member order) along ``axis``;
    extents along ``axis`` may differ."""
    g = group.size
    if g == 1:
        return Handle("comm:" + phase, [shards[0]])
    gathered = np.concatenate(shards, axis=axis)
    t = ring_all_gather_time(gathered.nbytes, g, group.bandwidth, group.latency)
    return _issue(group, t, "comm:" + phase, [gathered] * g)


def reduce_scatter(
    group: Group, shards, axis: int = 0, op: str = "sum", phase: str = "reduce_scatter"
) -> Handle:
    """Reduce equal-shape shards, then member ``i`` receives quasi-equal
    block ``i`` of the result along ``axis``."""
    g = group.size
    if g == 1:
        return Handle("comm:" + phase, [shards[0]])
    reduced = _UFUNCS[op].reduce(np.stack(shards), axis=0)
    t = ring_reduce_scatter_time(reduced.nbytes, g, group.bandwidth, group.latency)
    lead = (slice(None),) * axis
    result = [reduced[lead + (sl,)] for sl in block_slices(reduced.shape[axis], g)]
    return _issue(group, t, "comm:" + phase, result)


def axis_comm(cluster, bandwidth: float = 1e9, latency: float = 0.0) -> AxisCommunicator:
    """The product's communicator over one group of all of ``cluster``'s
    ranks — the baselines' ``(P, 1, 1)`` cube — at this link model and the
    machine's launch cost."""
    p = cluster.world_size
    return AxisCommunicator(
        AxisComm(cluster.store, (p, 1, 1), 0, p, bandwidth, latency, cluster.machine.issue_overhead_s)
    )
