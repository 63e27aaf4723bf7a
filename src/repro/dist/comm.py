"""Nonblocking communicators: handle-based collectives on the simulated timeline.

This module is the collective surface of the simulator.  There is one
communicator, :class:`AxisCommunicator`: every process group along one axis
of a rank cube — a grid axis of Plexus (``PlexusGrid.comm(axis)``), or the
one axis of a ``(P, 1, 1)`` cube that is the world group of the
partition-parallel baselines (``repro.baselines``).  Its
``all_reduce / all_gather / reduce_scatter`` methods (and :meth:`issue`)
mirror ``torch.distributed``'s ``async_op=True`` contract: they return a
:class:`PendingCollective` immediately and charge the *completion* cost only
at :meth:`PendingCollective.wait`.

Timeline semantics of one issued collective:

* **issue** — the operation's data transformation runs right away (the
  simulator holds every member's shard, so the numerical result is fixed at
  issue time and is independent of when — or in what order — handles are
  waited).  The group's *ready time* is the maximum member clock (all
  members must have launched, which is the straggler-sync point), and the
  transfer is scheduled on the group's link from
  ``begin = max(ready, link busy-until)`` to ``end = begin + duration``.
  The link reservation is what serializes two in-flight operations on one
  axis link: they queue, they do not overlap each other.  Busy-until times
  live in one vector of the store, one slot per link (``ClockStore.busy``;
  ``ClockStore.links`` is its keyed view, built on demand), so a whole
  axis reserves its links with one gather and one scatter.  The axis's
  ``AxisComm.issue_overhead_s`` (the machine's; 0 on the shipped machines,
  keeping eager numerics bitwise-unchanged) models the launch cost charged
  at issue.
* **wait** — each member is lifted to ``end`` with the lift attributed to
  the collective's comm phase.  Compute charged to the member's clock
  between issue and wait therefore genuinely hides communication: a member
  whose clock already passed ``end`` pays nothing.

Eager behavior is the degenerate schedule ``issue(); wait()`` with nothing
in between — bitwise identical (clocks *and* phase totals) to charging the
full Eq. 4.5 cost the moment the collective is called.

The timeline lives in **one schedule kernel**, :func:`_schedule`: (per-group
ready times, per-group link key — resolved once per store to its slot id —
duration scalar-or-per-group, phase) → (begin, end).  It does the
``begin = max(ready, link)`` reservation, the ``SimSink`` link events and
the ``issue`` instant, and every path calls it: an :class:`AxisCommunicator`
reserves its groups' links, the analytic model (``repro.perf.analytic``)
one link per configuration, and the worker-crossing Z axis of
``repro.runtime`` is the *same* :class:`AxisCommunicator` whose clocks and
operand planes come through a byte mover (a transport bus's ``exchange``:
per posted array every worker's part, the peers' zero-copy and valid until
the next exchange) instead of from the local store.

The timeline needs only a collective's *duration*, never its operand: the
data transformation and the Eq. 4.5 byte count happen before the schedule
and feed it one number (per group).  A handle exposes that number
(:attr:`PendingCollective.duration`), and
:meth:`AxisCommunicator.issue` takes it back — *issue a collective whose
duration is known and whose result the caller already holds, or nobody
reads*.  Issue and wait run exactly as above (launch overhead, ready
time, link reservation, trace events, completion charge); only the data
math is skipped.  A frozen layer 0 re-issues its collectives this
way from the second epoch on (``repro.core.layers``), and the baselines'
boundary all-to-all — whose chunks they transpose themselves — is issued
this way at its Eq. 4.5 duration.

Misuse is loud: waiting a handle twice raises, and a handle that is never
waited stays in ``ClockStore.outstanding`` where
``VirtualCluster.check_outstanding`` (called by the trainer at epoch end)
reports it.

What a stacked (whole-axis) collective hands back is the **replica-free
cube**: a collective's result is by definition the same on every member of
a group, so it comes back once per group — a
:class:`~repro.dist.padded.CubeStack`, extent 1 along the collective's axis
(and along every axis the operand was already replicated on) — instead of G
copies in a ``(world, m, n)`` array.  Operands are stacks or raw
``(world, *shard)`` ndarrays (viewed into the cube for free), and nothing
is materialised here: consumers that need per-rank memory (``np.asarray``,
``CubeStack.flat``) do it at the point of use.  Results are read-only,
since one element stands for G ranks.

Quasi-equal shards (zero pads, per-rank valid ``rows``/``cols`` on the
stack) take the same path.  An all-reduce is the keepdims reduction either
way — members of a group share a shape, so their pads align and reduce to
zero.  All-gather / reduce-scatter are the one fused copy / a view of the
reduction when every member's valid rows fill the pad and tile the result
evenly, else they copy each group's *valid* rows once through an index plan
(:meth:`AxisCommunicator._plan`, cached per shape signature; the plan
observes which).  Pad rows never land in a result and durations bill the
per-group valid bytes — one rank's shard when nothing is padded — however
few copies the operand stores, so data, clocks and phase totals stay
bitwise identical to one collective per process group on the exact shards
(the per-group reference of ``tests/groupwise.py``).  A duration is
a scalar when every group moves the same bytes, else a keepdims array over
the off-axis cube (one entry per group).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.dist.cluster import ClockStore
from repro.errors import CollectiveMisuse
from repro.obs import trace as _trace
from repro.dist.collectives import RING_LAWS, AxisComm
from repro.dist.padded import CubeStack
from repro.sparse import ops as _ops

__all__ = [
    "PendingCollective",
    "AxisCommunicator",
    "CubeStack",
    "stacked_all_reduce_data",
    "stacked_all_gather_data",
    "stacked_reduce_scatter_data",
]

_UFUNCS = {"sum": np.add, "max": np.maximum}


def link_key(ranks) -> str:
    """The ``ClockStore.links`` key of the process group with these *global*
    member ranks — a link's identity.  Every communicator of the group, in
    process or in any worker, computes the same key, so link state moves
    between processes and layouts by key (``repro.runtime.checkpoint``) and a
    merged trace shows one track per link."""
    return "-".join(map(str, ranks))


def _check_op(op: str) -> None:
    if op not in _UFUNCS:
        raise ValueError(f"unsupported op {op!r} (supported: {sorted(_UFUNCS)})")


def _moved(a: np.ndarray, src: int, dst: int) -> np.ndarray:
    """`np.moveaxis` without its per-call axis normalization overhead."""
    axes = list(range(a.ndim))
    axes.insert(dst, axes.pop(src))
    return a.transpose(axes)


class _Slots:
    """Where the transfers of a set of groups land on the timeline: per
    group — in keepdims-ravel order of the axis's off-axis cube — its
    ``ClockStore.links`` key.
    :meth:`ids` resolves the keys to the store's slots once per store.
    """

    __slots__ = ("links", "_store", "_ids")

    def __init__(self, links) -> None:
        self.links = tuple(links)
        self._store = self._ids = None

    def ids(self, store: ClockStore) -> np.ndarray:
        """The groups' slots in ``store`` (``ClockStore.link_slots``)."""
        if self._store is not store:
            self._ids = store.link_slots(self.links)
            self._store = store
        return self._ids


def _schedule(store: ClockStore, slots: _Slots, ready, duration, phase: str) -> tuple:
    """Reserve one transfer per group of ``slots``: the schedule kernel.

    Every collective of every communicator is put on the timeline here and
    nowhere else.  ``ready`` holds the groups' ready times (each group's
    maximum member clock; any shape that ravels to the slot order) and
    ``duration`` is a scalar or an array of that shape.
    Each group's transfer runs on its link from
    ``begin = max(ready, link busy-until)`` to ``end = begin + duration``;
    returns ``(begin, end)`` shaped like ``ready``.

    The reservation is one gather and one scatter over the store's slot
    vector (``store.busy``), whatever the group count: an unreserved slot
    holds −inf, so ``begin`` is then the ready time.
    """
    ids = slots.ids(store)
    sink = store.trace
    busy = store.busy
    begin = np.maximum(ready, busy[ids].reshape(ready.shape))
    end = begin + duration
    busy[ids] = ends = end.ravel()
    if sink is not None:
        # begin/end are fresh per issue and never written in place (the
        # pending record aliases them the same way)
        sink.link_batch(slots.links, phase, begin.ravel(), ends)
    if _trace.enabled:
        _trace.instant("issue", phase=phase)
    return begin, end


# ---------------------------------------------------------------------------
# completion handles
# ---------------------------------------------------------------------------


class PendingCollective:
    """An issued collective: result fixed, completion cost not yet charged.

    ``wait()`` lifts every member clock to the operation's scheduled end
    time, attributing the visible portion (link wait + transfer − compute
    already overlapped) to the collective's comm phase, and returns the
    result.  Waiting twice raises; a handle that is never waited is
    reported by ``VirtualCluster.check_outstanding`` at epoch end.

    The handle carries one charge record (``None`` for the free singleton
    case), ``("cube", cube_shape, begin, end, duration)``: every group of
    the axis at once, the members being ``store.clocks`` viewed as
    ``cube_shape``; ``begin``/``end`` are keepdims arrays over the off-axis
    cube.
    """

    __slots__ = ("phase", "_store", "_record", "_result", "_waited")

    def __init__(
        self,
        phase: str,
        result,
        store: ClockStore | None = None,
        record: tuple | None = None,
    ) -> None:
        self.phase = phase
        self._store = store
        self._record = record
        self._result = result
        self._waited = False
        if store is not None and record is not None:
            store.register_outstanding(self)

    @property
    def waited(self) -> bool:
        return self._waited

    @property
    def duration(self):
        """The scheduled transfer time: a scalar, a keepdims array over the
        off-axis cube (one entry per group, when their valid bytes differ),
        or ``None`` for the no-cost handle of a size-1 group.  Feeding it back to
        :meth:`AxisCommunicator.issue` re-issues the same collective
        without its operand."""
        return None if self._record is None else self._record[4]

    def wait(self):
        """Charge the completion cost and return the collective's result."""
        if self._waited:
            raise CollectiveMisuse(
                f"collective handle {self.phase!r} waited twice; a "
                "PendingCollective completes exactly once"
            )
        self._waited = True
        traced = _trace.enabled
        if traced:
            _trace.emit("B", "wait", {"phase": self.phase})
        if self._record is not None:
            self._complete(self._record)
            if self._store is not None:
                self._store.resolve_outstanding(self)
        if traced:
            _trace.emit("E", "wait")
        result, self._result = self._result, None
        return result

    def _complete(self, record: tuple) -> None:
        _, cube_shape, begin, end, duration = record
        store = self._store
        cube = store.clocks.reshape(cube_shape)
        # ``(begin - clock) + duration`` is the exact association of an
        # eager charge (straggler wait plus transfer); a member past the
        # comm start sees only the uncovered tail ``end - clock``.
        early = cube <= begin  # members that had not passed the comm start
        if early.all():  # eager: the closed form of the ``where`` below
            charge = (begin - cube) + duration
            cube[...] = end
        else:
            charge = np.where(early, (begin - cube) + duration, np.maximum(end - cube, 0.0))
            cube[...] = np.maximum(cube, end)
        store.record_all(self.phase, charge.ravel())


def _ready(phase: str, result) -> PendingCollective:
    """A no-cost handle (size-1 axis): wait() just returns the data."""
    return PendingCollective(phase, result)


# ---------------------------------------------------------------------------
# stacked collective data math (pure: no clocks, no links)
#
# The *data* transformation of one whole-axis collective over the
# ``(Gz, Gx, Gy)`` rank cube, cube in (a ``CubeStack.cube``: extent 1 along
# the axes the operand is replicated on), read-only cube out — held once per
# group, because a collective's output is by definition shared within it:
#
# * all-reduce  -> ``reduce(axis, keepdims=True)``: extent 1 along ``axis``,
#   nothing is broadcast back to the G members;
# * all-gather  -> one copy that fuses the group axis into the row axis,
#   again extent 1 along ``axis``;
# * reduce-scatter -> a strided *view* of the reduction (row block ``j``
#   belongs to the member at coordinate ``j``), full extent along ``axis``.
#
# Axes the operand was already replicated on stay extent 1, so a chain such
# as the loss's X-reduce then Z-reduce shrinks to one value per cube.  The
# reduction itself runs over the same elements in the same order as a
# per-group loop over flat shards (an operand replicated along ``axis``
# itself is expanded first for exactly that reason), which keeps results
# bitwise equal to one collective call per process group.
# Zero pads ride along untouched: they align within a group and reduce to
# zero; the gather and the scatter take whole pad-extent row blocks, which is
# why :class:`AxisCommunicator` calls them only for evenly tiling rows.
#
# An :class:`AxisCommunicator` behind a byte mover (the worker-crossing Z
# axis of ``repro.runtime``) calls these same three functions — no second
# copy of the math.  There the full-Z operand arrives as a *sequence of
# leading-axis chunks*, one ``(planes, x, y, *shard)`` array per worker in
# rank order (the peers' are read-only views of their mapped mailboxes), and
# is consumed in place: reductions accumulate plane by plane in z order (the
# element-wise order ``reduce(axis=0)`` uses), the gather writes each chunk
# at its offset of the one output; the in-process operand is the one-chunk
# case of the same code.  One rule keeps every shape bitwise: one-element
# planes make the full reduction a contiguous 1-D one, which numpy sums
# pairwise, so such chunks are concatenated and reduced as one.  Results
# never alias a chunk (it dies at the mover's next exchange).
# Past :data:`repro.sparse.ops._PASS_MIN` bytes a reduction runs in shard-row
# ranges on the process's pool (:func:`repro.sparse.ops.run_rows`): each
# range reduces its rows of every chunk in the same order into its rows of
# the one result, so every element is the same sum as unsplit.
# ``tests/test_replicated_stacks.py`` pins all of this against a per-group
# reference loop; ``tests/test_runtime_multiproc.py`` pins multiproc ==
# inproc end to end.
# ---------------------------------------------------------------------------


def _operand_chunks(cube_shape: tuple[int, ...], axis: int, cube) -> Sequence[np.ndarray]:
    """The operand cube with the group axis at full extent, as the chunks to
    consume in order (one, unless a byte mover delivered it)."""
    if isinstance(cube, (list, tuple)):  # leading-axis chunks: ``axis`` is 0
        if cube[0][0].size == 1:  # one-element planes: numpy's pairwise order
            return (np.concatenate(cube),)
        return cube
    if cube.shape[axis] != cube_shape[axis]:
        # replicated along the collective's own axis: give every member its
        # copy, so the reduction adds G values in member order like the
        # per-group loop does
        shape = list(cube.shape)
        shape[axis] = cube_shape[axis]
        cube = np.ascontiguousarray(np.broadcast_to(cube, shape))
    return (cube,)


def _split_reduce(ufunc, first: np.ndarray, rest: Sequence[np.ndarray], axis: int, keepdims: bool):
    """The reduction of ``first`` along ``axis`` and then of every plane of
    the ``rest`` chunks, in shard-row ranges side by side
    (:func:`repro.sparse.ops.run_rows`).  Operands are floating point, so
    the result keeps their dtype."""
    shape = list(first.shape)
    shape[axis] = 1
    reduced = np.empty(shape if keepdims else shape[:axis] + shape[axis + 1 :], dtype=first.dtype)
    # cut by the result's shape: a reduced axis has extent 1 there, never split
    _ops.run_rows(partial(_reduce_rows, ufunc, first, rest, axis, reduced), reduced.shape)
    return reduced


def _reduce_rows(ufunc, first, rest, axis: int, reduced: np.ndarray, index: tuple) -> None:
    """One shard-row range of :func:`_split_reduce` (``rest`` arrives only
    along axis 0)."""
    out = reduced[index]
    ufunc.reduce(first[index], axis=axis, keepdims=reduced.ndim == first.ndim, out=out)
    acc = out[0] if reduced.ndim == first.ndim else out
    for chunk in rest:
        for plane in chunk:
            ufunc(acc, plane[index], out=acc)


def stacked_all_reduce_data(
    cube_shape: tuple[int, ...], axis: int, cube, op: str = "sum"
) -> np.ndarray:
    """All-reduce within every group along cube ``axis``: each group's
    reduction, held once (extent 1 along ``axis``)."""
    ufunc = _UFUNCS[op]
    first, *rest = _operand_chunks(cube_shape, axis, cube)
    if first.nbytes < _ops._PASS_MIN or _ops._part.active or (_ops._share or _ops.parallelism()[0]) < 2:
        reduced = ufunc.reduce(first, axis=axis, keepdims=True)
        for chunk in rest:
            for plane in chunk:
                ufunc(reduced[0], plane, out=reduced[0])
    else:
        reduced = _split_reduce(ufunc, first, rest, axis, True)
    reduced.flags.writeable = False
    return reduced


def stacked_all_gather_data(cube_shape: tuple[int, ...], axis: int, cube) -> np.ndarray:
    """All-gather along cube ``axis``: each group's shards concatenated (in
    member order) along data axis 0, held once (extent 1 along ``axis``)."""
    g = cube_shape[axis]
    first, *rest = _operand_chunks(cube_shape, axis, cube)
    # group axis next to the row axis, then one copy fuses the two
    moved = _moved(first, axis, 2)
    o0, o1, done, m = moved.shape[:4]
    tail = moved.shape[4:]
    out = np.empty((o0, o1, g * m) + tail, dtype=moved.dtype)
    fused = out.reshape((o0, o1, g, m) + tail)
    fused[:, :, :done] = moved
    for chunk in rest:
        fused[:, :, done : done + len(chunk)] = _moved(chunk, 0, 2)
        done += len(chunk)
    out.flags.writeable = False
    lead = [o0, o1]
    lead.insert(axis, 1)
    return out.reshape((*lead, g * m) + tail)


def stacked_reduce_scatter_data(
    cube_shape: tuple[int, ...], axis: int, cube, op: str = "sum"
) -> np.ndarray:
    """Reduce within every group along cube ``axis``, then scatter row
    blocks of the result: the member at group coordinate ``j`` gets block
    ``j`` (a view of the reduction).  Requires the row extent to divide the
    group size evenly."""
    g = cube_shape[axis]
    ufunc = _UFUNCS[op]
    first, *rest = _operand_chunks(cube_shape, axis, cube)
    m = first.shape[3]
    if m % g != 0:
        raise ValueError(f"row extent {m} does not divide into {g} blocks")
    if first.nbytes < _ops._PASS_MIN or _ops._part.active or (_ops._share or _ops.parallelism()[0]) < 2:
        reduced = ufunc.reduce(first, axis=axis)
        for chunk in rest:
            for plane in chunk:
                ufunc(reduced, plane, out=reduced)
    else:
        reduced = _split_reduce(ufunc, first, rest, axis, False)
    reduced.flags.writeable = False
    blocks = reduced.reshape(reduced.shape[:2] + (g, m // g) + reduced.shape[3:])
    return _moved(blocks, 2, axis)


# ---------------------------------------------------------------------------
# communicators
# ---------------------------------------------------------------------------


class AxisCommunicator:
    """Handle-based collectives over every process group along one grid axis.

    ``all_reduce`` & co take a ``(world, *shard)`` operand (a
    :class:`CubeStack` or a raw ndarray), execute all groups of the axis as
    one keepdims reduction over the rank cube and return the result once per
    group.  Each group's schedule slot is its :func:`link_key`, named from
    the grid (the global ranks of the group, in member order), so every
    collective on the same ranks shares the link reservation and queues
    behind the others.  Obtain via ``PlexusGrid.comm(axis)``; the launch
    cost charged at issue is the descriptor's ``issue_overhead_s``.

    The worker-crossing (Z) axis of the multi-process runtime is this same
    class behind a *byte mover*: ``exchange`` (a transport bus's method of
    that name) rendezvouses the workers once per collective — one frame
    each, carrying the local clock slice, the operand's local z-planes
    ``[z0, z0 + local planes)`` and their valid extents — and hands back
    every worker's parts in rank order, so every worker deterministically
    computes the *same* full-cube plan and schedule (group-ready times,
    link reservations, Eq. 4.5 durations) and the same collective result
    straight out of the peers' planes, and the returned handle charges only
    the local ranks' completion at ``wait()``.  Padded stacks and unevenly
    tiling rows take the in-process index plans, built from the global
    extent vectors the frames carry.  A replicated operand posts only its
    unique bytes, and a collective re-issued with a known duration
    (:meth:`issue`) still rendezvouses, because the schedule needs every
    worker's clocks, but the exchange is **clocks only**.  Link busy-until
    state is *replicated* per worker in the local :class:`ClockStore`, under
    the Z groups' own :func:`link_key` — deterministic inputs keep every
    replica bitwise consistent and equal to the in-process entries.

    ``z0`` is the first z-plane the local store holds.  In process the
    store's ranks are the cube's ``[z0 · Gx·Gy, ...)`` (a worker's X / Y
    axes span its own planes); behind a byte mover the cube is the whole
    one, from rank 0.
    """

    __slots__ = (
        "descriptor",
        "_slots",
        "_cube",
        "_exchange",
        "_z0",
        "_plans",
    )

    def __init__(
        self,
        descriptor: AxisComm,
        exchange=None,
        z0: int = 0,
    ) -> None:
        self.descriptor = d = descriptor
        #: (kind, stack geometry) -> cached collective plan
        self._plans: dict[tuple, dict] = {}
        self._exchange = exchange
        self._z0 = z0
        gx, gy = d.cube[1:]
        plane = gx * gy
        #: the rank cube of the local store: all of ``d.cube`` in-process,
        #: this worker's whole z-planes behind a byte mover
        self._cube = (d.store.world // plane, gx, gy)
        if exchange is not None and d.axis != 0:
            raise ValueError("a byte mover carries the leading (Z) axis only")
        lo = 0 if exchange is not None else z0 * plane
        groups = self._group_table(np.arange(lo, lo + d.world)).tolist()
        self._slots = _Slots(map(link_key, groups))

    # -- issue machinery -----------------------------------------------------
    def _gather(self, full_phase: str, stacked: CubeStack | None = None) -> tuple:
        """Charge the launch overhead, then gather every member's clock and
        (when given) the operand cube at full axis extent with its valid
        ``rows`` / ``cols`` over the whole cube: the local store's and the
        operand's own in-process; behind a byte mover one rendezvous with
        every worker, in rank order.  The operand is posted as this
        worker's ``(lz, x, y, *shard)`` cube as is, so axes it is replicated
        on (X/Y, identically on every worker) cross the bus once, not G
        times; only replication along the local z-planes is expanded,
        because the posted planes *are* the full-Z operand: they come back
        as its leading-axis chunks, valid until the next exchange.  Its
        valid extents ride the same frame — the pad where the stack has
        none, since a peer's may differ — and concatenate to the global
        vectors, ``None`` again when every rank of the cube fills the pad.
        Returns ``(clocks, operand, rows, cols)``."""
        d = self.descriptor
        store = d.store
        if d.issue_overhead_s:
            store.clocks += d.issue_overhead_s
            store.record_all(full_phase, d.issue_overhead_s)
        if self._exchange is None:
            if stacked is None:
                return store.clocks, None, None, None
            return store.clocks, stacked.cube, stacked.rows, stacked.cols
        if stacked is None:
            return np.concatenate(self._exchange([store.clocks])[0]), None, None, None
        cube = stacked.cube
        if cube.shape[0] != self._cube[0]:
            cube = np.broadcast_to(cube, self._cube[:1] + cube.shape[1:])
        pads = cube.shape[3:5]
        extents = np.empty((len(pads), len(stacked)), dtype=np.int64)
        for row, valid, pad in zip(extents, (stacked.rows, stacked.cols), pads):
            row[...] = pad if valid is None else valid
        clocks, extents, planes = self._exchange([store.clocks, extents, cube])
        clocks, extents = np.concatenate(clocks), np.concatenate(extents, axis=1)
        if np.all(extents.T == pads):
            return clocks, planes, None, None
        return clocks, planes, extents[0], extents[1] if len(pads) > 1 else None

    def _result(self, cube: np.ndarray, plan: dict) -> CubeStack:
        """A full-cube collective result as a stack over the local z-planes
        (a result shared along Z — extent 1 — is shared along the local
        planes too), with the valid extents its plan worked out for them."""
        if self._exchange is not None and cube.shape[0] != 1:
            cube = cube[self._z0 : self._z0 + self._cube[0]]
        return CubeStack(cube, self._cube, plan["rows"], plan["cols"])

    def _issue(self, duration, phase: str, result, clocks=None) -> PendingCollective:
        """Schedule one collective per axis group.

        ``duration`` is a scalar (every group moves the same bytes) or a
        keepdims array over the off-axis cube (per-group valid bytes differ
        under quasi-equal sharding).
        ``clocks`` are the members' clocks when the caller already gathered
        them with its operand (:meth:`_gather`).
        """
        d = self.descriptor
        full_phase = "comm:" + phase
        if clocks is None:
            clocks = self._gather(full_phase)[0]
        ready = np.maximum.reduce(clocks.reshape(d.cube), axis=d.axis, keepdims=True)
        begin, end = _schedule(d.store, self._slots, ready, duration, full_phase)
        record = ("cube", self._cube, begin, end, duration)
        return PendingCollective(full_phase, result, d.store, record)

    def issue(self, duration, phase: str, result=None) -> PendingCollective:
        """Issue a collective whose duration is known and whose result the
        caller already holds (or nobody reads).

        ``duration`` is what an earlier handle of the same collective
        reported (:attr:`PendingCollective.duration`).  The timeline cannot
        tell the difference: launch overhead, group-ready time, link
        reservation, trace events and the charge at ``wait()`` are those of
        the operand-carrying methods — only the data transformation and the
        byte count behind the duration are skipped.
        ``wait()`` returns ``result``.
        """
        if duration is None:  # size-1 axis: the collective never cost anything
            return _ready("comm:" + phase, result)
        return self._issue(duration, phase, result)

    # -- collective plans ----------------------------------------------------
    def _group_table(self, values: np.ndarray) -> np.ndarray:
        """A per-rank vector as ``(n_groups, g)``: one row per process group
        in keepdims ravel order (the order of the schedule slots and of the
        keepdims duration arrays), columns in member order along the axis —
        the shard order the group-wise collectives use."""
        d = self.descriptor
        return np.moveaxis(values.reshape(d.cube), d.axis, -1).reshape(-1, d.size)

    def _plan(self, kind: str, cube: np.ndarray, rows, cols, out_pad: int | None = None) -> dict:
        """What one collective kind does to one operand geometry — the
        stored cube's shape and dtype, the valid ``rows`` / ``cols`` of
        every rank of the axis's cube (``None``: the pad's), as
        :meth:`_gather` hands them over — cached per signature: the
        ``duration`` from the per-group valid bytes (a scalar when they all
        agree, else keepdims over the off-axis cube) and the result's valid
        ``rows`` / ``cols`` on the held ranks (``None``: the cube's).  For
        the two row-moving kinds ``even`` says whether every member's valid
        rows fill the pad and tile the result evenly — the stacked data math
        then applies as is.  Otherwise the plan holds where every valid row
        of the operand at full axis extent (``src``, rows of the cube
        flattened — of the reduction for a reduce-scatter) lands in the
        result (``dst``), whose cube has leading extents ``lead`` and pad
        extent ``pad`` (a gather's: ``out_pad``, else its largest group's
        rows).  A gather writes each group's rows once (extent 1 along the
        axis), not once per member."""
        key = (
            kind,
            cube.shape,
            cube.dtype.itemsize,
            rows if rows is None else rows.tobytes(),
            cols if cols is None else cols.tobytes(),
            out_pad,
        )
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        d = self.descriptor
        g, axis = d.size, d.axis
        world = d.world
        pad, *tail = cube.shape[3:]
        given = rows
        if rows is None:  # nothing padded: every rank of the (whole) cube fills it
            rows = np.full(world, pad)
        # Reduce-style collectives need equal shard shapes within each group
        # (an element-wise reduction); gathers tolerate ragged rows but need
        # equal column extents (concatenation along axis 0).
        rows_tab = self._group_table(rows)
        if kind != "all_gather" and np.any(rows_tab != rows_tab[:, :1]):
            raise ValueError(f"{kind} requires equal shard rows within each axis group")
        rowbytes = cube.dtype.itemsize
        if cols is None:
            for extent in tail:
                rowbytes *= extent
        else:
            cols_tab = self._group_table(cols)
            if np.any(cols_tab != cols_tab[:, :1]):
                raise ValueError(f"{kind} requires equal shard cols within each axis group")
            rowbytes = cols_tab[:, 0] * rowbytes
        group_rows = rows_tab.sum(axis=1) if kind == "all_gather" else rows_tab[:, 0]
        keep = list(d.cube)
        keep[axis] = 1
        # Quasi-equal sharding yields only a handful of distinct byte counts:
        # the scalar Eq. 4.5 model runs once per distinct value — bitwise the
        # numbers the group-wise path computes
        nbytes = (group_rows * rowbytes).astype(np.float64)
        duration = np.empty(nbytes.shape)
        distinct = np.unique(nbytes)
        for v in distinct:
            duration[nbytes == v] = RING_LAWS[kind](float(v), g, d.bandwidth, d.latency)
        plan = {
            "duration": float(duration[0]) if len(distinct) == 1 else duration.reshape(keep),
            "rows": given,
            "cols": cols,
        }
        if kind != "all_reduce":
            cube_rows = rows.reshape(d.cube)
            even = bool(np.all(rows == pad))
            if kind == "all_gather":
                out_rows = np.broadcast_to(cube_rows.sum(axis=axis, keepdims=True), d.cube)
            else:  # member j takes quasi-equal block j of its group's rows
                even = even and pad % g == 0
                base, extra = np.divmod(cube_rows, g)
                j = np.moveaxis(np.arange(g).reshape(g, 1, 1), 0, axis)
                out_rows = base + (j < extra)
            plan["even"] = even
            if given is not None or not even:
                plan["rows"] = np.ascontiguousarray(out_rows).ravel()
                if cols is None and tail:
                    plan["cols"] = np.full(world, tail[0])
            if not even:
                # the stored copies with the group axis at full extent, as
                # (stored groups, g) tables in member order: valid rows, position
                lead = list(cube.shape[:3])
                lead[axis] = g
                cut = tuple(slice(0, e) for e in lead)

                def members(per_rank_cube: np.ndarray) -> np.ndarray:
                    return np.moveaxis(per_rank_cube[cut], axis, -1).reshape(-1, g)

                rows_in = members(cube_rows)
                pos = members(np.arange(rows_in.size).reshape(lead))
                if kind == "all_gather":
                    total = rows_in.sum(axis=1)
                    pad_out = int(total.max(initial=0)) if out_pad is None else out_pad
                    valid = np.arange(pad) < rows_in[..., None]
                    src = (pos[..., None] * pad + np.arange(pad))[valid]
                    dst = np.flatnonzero(np.arange(pad_out) < total[:, None])
                    lead[axis] = 1
                else:
                    pad_out = -(-pad // g)
                    sizes = members(out_rows)
                    start = np.cumsum(sizes, axis=1) - sizes
                    valid = np.arange(pad_out) < sizes[..., None]
                    reduced = np.arange(len(rows_in))[:, None, None] * pad
                    src = (reduced + start[..., None] + np.arange(pad_out))[valid]
                    dst = (pos[..., None] * pad_out + np.arange(pad_out))[valid]
                plan.update(src=src, dst=dst, lead=tuple(lead), pad=pad_out)
        if self._exchange is not None:  # the result's extents on the held ranks
            plane = d.cube[1] * d.cube[2]
            held = slice(self._z0 * plane, (self._z0 + self._cube[0]) * plane)
            for k in ("rows", "cols"):
                if plan[k] is not None:
                    plan[k] = plan[k][held]
        self._plans[key] = plan
        return plan

    @staticmethod
    def _move(plan: dict, cube: np.ndarray) -> np.ndarray:
        """One indexed copy of the valid rows of ``cube`` (the operand at
        full axis extent, or its reduction over the group axis, where a
        group's pads align) into the zero-padded result cube."""
        lead, pad, tail = plan["lead"], plan["pad"], cube.shape[4:]
        out = np.zeros((lead[0] * lead[1] * lead[2] * pad,) + tail, dtype=cube.dtype)
        out[plan["dst"]] = cube.reshape((-1,) + tail)[plan["src"]]
        out.flags.writeable = False
        return out.reshape(lead + (pad,) + tail)

    # -- stacked collectives -------------------------------------------------
    # A collective's result is shared within each group and comes back once
    # per group, in cube layout, read-only — see the "stacked collective data
    # math" block.  Its duration bills the per-group valid bytes (one rank's
    # shard when nothing is padded), however few copies the operand stores.
    def all_reduce(self, stacked, op: str = "sum", phase: str = "all_reduce") -> PendingCollective:
        """All-reduce ``stacked[(world, *shard)]`` within every axis group:
        one keepdims reduction (members of a group share a shape, so their
        pads align and reduce to zero)."""
        stacked = CubeStack.of(stacked, self._cube)
        _check_op(op)
        d = self.descriptor
        if d.size == 1:
            return _ready("comm:" + phase, stacked.read_only())
        clocks, full, rows, cols = self._gather("comm:" + phase, stacked)
        plan = self._plan("all_reduce", stacked.cube, rows, cols)
        cube = stacked_all_reduce_data(d.cube, d.axis, full, op)
        return self._issue(plan["duration"], phase, self._result(cube, plan), clocks)

    def all_gather(
        self, stacked, phase: str = "all_gather", pad: int | None = None
    ) -> PendingCollective:
        """All-gather along the shard row axis: every member of a group
        receives the group's shards concatenated (in member order) along
        data axis 0.  Members may hold ragged row extents (quasi-equal
        sub-sharding): the result is assembled from valid rows only, pad
        rows never land in the gathered payload.  ``pad`` is the result's
        row pad extent, the largest gathered block of the global geometry
        (default: the largest group's rows — the same on the whole cube, not
        on the held z-planes of a worker, whose X/Y groups see their own)."""
        stacked = CubeStack.of(stacked, self._cube)
        d = self.descriptor
        if d.size == 1:
            return _ready("comm:" + phase, stacked.read_only())
        clocks, full, rows, cols = self._gather("comm:" + phase, stacked)
        plan = self._plan("all_gather", stacked.cube, rows, cols, pad)
        if plan["even"]:
            cube = stacked_all_gather_data(d.cube, d.axis, full)
        else:
            first, *rest = _operand_chunks(d.cube, d.axis, full)
            cube = self._move(plan, np.concatenate([first, *rest]) if rest else first)
        return self._issue(plan["duration"], phase, self._result(cube, plan), clocks)

    def reduce_scatter(
        self, stacked, op: str = "sum", phase: str = "reduce_scatter"
    ) -> PendingCollective:
        """Reduce within every axis group, then scatter row blocks of the
        result along data axis 0: the member at coordinate ``j`` gets block
        ``j`` — a view of the reduction when the group's valid rows divide
        evenly, else quasi-equal blocks of them (the result stack is padded
        to the largest block)."""
        stacked = CubeStack.of(stacked, self._cube)
        _check_op(op)
        d = self.descriptor
        if d.size == 1:
            return _ready("comm:" + phase, stacked.read_only())
        clocks, full, rows, cols = self._gather("comm:" + phase, stacked)
        plan = self._plan("reduce_scatter", stacked.cube, rows, cols)
        if plan["even"]:
            cube = stacked_reduce_scatter_data(d.cube, d.axis, full, op)
        else:
            cube = self._move(plan, stacked_all_reduce_data(d.cube, d.axis, full, op))
        return self._issue(plan["duration"], phase, self._result(cube, plan), clocks)

