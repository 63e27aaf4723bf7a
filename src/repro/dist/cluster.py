"""The virtual cluster: rank clocks and phase accounting as numpy arrays.

Every rank of the simulation owns a scalar clock (simulated seconds), and
every clock advance is attributed to a phase label of the form
``"category:detail"`` (``"comp:spmm_fwd"``, ``"comm:all_reduce_h"``, ...).
The storage is *columnar*: one :class:`VirtualCluster` keeps a single
``(world,)`` clock vector plus one ``(world,)`` accumulator per phase label
and per category prefix, and each :class:`VirtualRank` is a lightweight
view onto index ``r`` of those arrays.  That layout is what lets the
rank-batched execution engine advance *every* rank of a collective step
with a handful of vectorized operations (`advance_all` and the
cube-reshaped straggler sync in ``repro.dist.collectives``) instead of
``world_size`` interpreter round-trips — the per-rank scalar API is kept
for tests and for code that genuinely acts on one rank.

The trainer queries ``category_totals("comm:")`` / ``("comp:")`` for every
rank on every epoch; those are single dict lookups returning the bucket
vector, O(1) in the number of recorded events, and memory stays constant no
matter how many epochs the simulation runs.

There is one cluster class for every backend: a cluster holds the ranks
*this process* simulates — the whole world in process, a contiguous slice
``[lo, hi)`` of the rank cube in a worker of ``repro.runtime``, which
reaches the other slices' clocks through the transport's byte mover.

Straggler semantics: :meth:`VirtualCluster.barrier` (and every collective
issued through ``repro.dist.comm``) lifts each participant to the group's
maximum clock — at issue for the scheduling decision, at ``wait()`` for the
charge — attributing the wait to a communication phase, which is how load
imbalance "ripples" into communication time exactly as the paper's timing
protocol observes (Sec. 6.2).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.dist.topology import LAPTOP, MachineSpec
from repro.errors import CollectiveMisuse
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics

__all__ = ["VirtualRank", "VirtualCluster"]


#: phase label -> "category:" prefix, shared across all timelines.  Phase
#: labels form a small fixed vocabulary, so caching the split turns the
#: hottest line of the accounting into a dict hit.
_CATEGORY_OF: dict[str, str] = {}


def _category(phase: str) -> str:
    cat = _CATEGORY_OF.get(phase)
    if cat is None:
        cat = phase.split(":", 1)[0] + ":"
        _CATEGORY_OF[phase] = cat
    return cat


class ClockStore:
    """Columnar clock/timeline state for a set of ranks.

    ``clocks`` is a ``(world,)`` float vector; ``by_phase`` and
    ``by_category`` map each label to its own ``(world,)`` accumulator.  The
    grand total is *derived* (sum over the handful of category buckets) so
    every recording touches exactly two accumulators — the hot path runs
    tens of times per simulated epoch.  All mutation funnels through the
    ``record_*`` methods so vectorized and scalar callers stay consistent.

    The store also carries the nonblocking-collective bookkeeping of
    ``repro.dist.comm``:

    * ``busy`` holds the simulated time each link is busy until, one float
      per *slot*: :meth:`link_slots` gives a link key its slot once (the
      key → slot map never forgets a key), and a slot never reserved holds
      −inf, which ``max(ready, ·)`` ignores — every ready time is ≥ 0.
      ``links`` is its keyed view (link key → busy-until time of every
      reserved link), built on demand.  Issuing a collective reserves the
      link from ``max(group ready time, link free time)``, which is what
      serializes two in-flight operations on the same axis link — they
      queue behind each other instead of magically overlapping — and the
      schedule kernel does it for every group of a collective with one
      gather and one scatter.
    * ``max_inflight`` optionally bounds the in-flight ops *per link*: when
      set (``PlexusOptions.max_inflight`` threads it here), each link keeps
      the newest ``max_inflight`` completion times of its ops (ascending: a
      link's transfers end in issue order) as its row of a ``(slots,
      width)`` array (:meth:`queues`), right-aligned and −inf-padded;
      ``link_queues`` is its keyed view.  Issuing on a saturated link
      *blocks* — the issuing group's clocks are lifted to the time a slot
      frees, with the wait charged to the collective's comm phase.  Intra-
      and inter-node links alike: no queue is shared between links
      (contention between links is Eq. 4.6's effective bandwidth, not a
      queue).  The transfer schedule itself is unchanged (ops already
      serialize on their link); what saturation costs is the *overlap*:
      compute that would have been issued behind the full queue can no
      longer start early.  ``None`` (the default) keeps the historical
      unbounded queue and records nothing.
    * ``outstanding`` registers every issued-but-not-yet-waited
      :class:`~repro.dist.comm.PendingCollective`; ``wait()`` deregisters.
      The trainer checks it at epoch end so a dropped handle (communication
      issued but never completed — accounting silently missing) surfaces as
      an error instead of a skewed breakdown.
    """

    __slots__ = (
        "world",
        "clocks",
        "by_phase",
        "by_category",
        "_slot_of",
        "busy",
        "_queues",
        "max_inflight",
        "outstanding",
        "trace",
    )

    def __init__(self, world: int) -> None:
        self.world = world
        self.clocks = np.zeros(world, dtype=np.float64)
        self.by_phase: dict[str, np.ndarray] = {}
        self.by_category: dict[str, np.ndarray] = {}
        #: link key -> slot (never forgets a key; ``reset`` keeps it)
        self._slot_of: dict[object, int] = {}
        #: slot -> busy-until time (-inf: never reserved)
        self.busy = np.empty(0)
        #: slot -> its newest completion times, ascending and right-aligned
        #: (-inf pads; only maintained while ``max_inflight`` is set)
        self._queues = np.empty((0, 0))
        #: bound on in-flight ops per link (None = unbounded, no tracking)
        self.max_inflight: int | None = None
        #: id(handle) -> in-flight PendingCollective (issued, not yet waited)
        self.outstanding: dict[int, object] = {}
        #: optional :class:`repro.obs.trace.SimSink` mirroring every charge;
        #: ``record_*`` funnel all mutation, so a sink here sees everything
        #: — detached (None) it costs one attribute check per record
        self.trace = None

    # -- bucket access ---------------------------------------------------------
    def phase_bucket(self, phase: str) -> np.ndarray:
        b = self.by_phase.get(phase)
        if b is None:
            b = self.by_phase[phase] = np.zeros(self.world, dtype=np.float64)
        return b

    def category_bucket(self, category: str) -> np.ndarray:
        b = self.by_category.get(category)
        if b is None:
            b = self.by_category[category] = np.zeros(self.world, dtype=np.float64)
        return b

    # -- accounting (clock updates stay with the caller) -----------------------
    def record_at(self, i: int, phase: str, duration: float) -> None:
        self.phase_bucket(phase)[i] += duration
        self.category_bucket(_category(phase))[i] += duration
        if self.trace is not None:
            self.trace.rec_at(i, phase, duration)

    def record_all(self, phase: str, durations: np.ndarray | float) -> None:
        """Attribute per-rank ``durations`` (scalar broadcasts) to ``phase``."""
        bucket = self.phase_bucket(phase)
        bucket += durations
        bucket = self.category_bucket(_category(phase))
        bucket += durations
        if self.trace is not None:
            self.trace.rec_all(phase, durations)

    def record_idx(self, idx: np.ndarray, phase: str, durations: np.ndarray | float) -> None:
        self.phase_bucket(phase)[idx] += durations
        self.category_bucket(_category(phase))[idx] += durations
        if self.trace is not None:
            self.trace.rec_idx(idx, phase, durations)

    # -- queries ---------------------------------------------------------------
    def prefix_totals(self, prefix: str) -> np.ndarray:
        """Fresh ``(world,)`` vector of seconds in phases matching ``prefix``."""
        hit = self.by_category.get(prefix)
        if hit is not None:
            return hit.copy()
        hit = self.by_phase.get(prefix)
        if hit is not None and not any(
            p.startswith(prefix) and p != prefix for p in self.by_phase
        ):
            return hit.copy()
        out = np.zeros(self.world, dtype=np.float64)
        for p, bucket in self.by_phase.items():
            if p.startswith(prefix):
                out += bucket
        return out

    # -- link slots (see repro.dist.comm._schedule) ---------------------------
    def link_slots(self, keys) -> np.ndarray:
        """The slots of these link keys, giving each new key the next free
        (unreserved) slot."""
        slot_of = self._slot_of
        for k in keys:
            if k not in slot_of:
                slot_of[k] = len(slot_of)
        grow = len(slot_of) - len(self.busy)
        if grow:
            self.busy = np.concatenate((self.busy, np.full(grow, -np.inf)))
            pad = np.full((grow, self._queues.shape[1]), -np.inf)
            self._queues = np.concatenate((self._queues, pad))
        return np.array([slot_of[k] for k in keys], dtype=np.intp)

    def queues(self, width: int) -> np.ndarray:
        """The in-flight queue rows, at least ``width`` wide (widened with
        −inf on the oldest side)."""
        q = self._queues
        if q.shape[1] < width:
            q = np.concatenate((np.full((len(q), width - q.shape[1]), -np.inf), q), axis=1)
            self._queues = q
        return q

    @property
    def links(self) -> dict:
        """Link key -> busy-until time of every reserved link (a fresh dict)."""
        busy = self.busy.tolist()
        return {k: busy[s] for k, s in self._slot_of.items() if busy[s] != -np.inf}

    @property
    def link_queues(self) -> dict:
        """Link key -> its newest completion times, ascending, of every link
        that queued an op under a bound (fresh lists)."""
        rows = self._queues.tolist()
        return {
            k: [t for t in rows[s] if t != -np.inf]
            for k, s in self._slot_of.items()
            if rows[s] and rows[s][-1] != -np.inf
        }

    # -- outstanding-op registry (see repro.dist.comm) -------------------------
    def register_outstanding(self, handle) -> None:
        self.outstanding[id(handle)] = handle

    def resolve_outstanding(self, handle) -> None:
        self.outstanding.pop(id(handle), None)

    def check_no_outstanding(self, allowed: tuple = ()) -> None:
        """Raise if any issued collective handle was never ``wait()``-ed.

        ``allowed`` lists handles that are *intentionally* in flight across
        the check (the trainer's cross-epoch prefetches): they are exempt,
        everything else still fails loudly.
        """
        pending = self.outstanding
        if allowed:
            exempt = {id(h) for h in allowed}
            pending = {k: h for k, h in pending.items() if k not in exempt}
        if pending:
            phases = ", ".join(sorted({h.phase for h in pending.values()}))
            raise CollectiveMisuse(
                f"{len(pending)} collective handle(s) issued but never "
                f"waited: {phases}; every PendingCollective must be wait()-ed "
                "before the epoch accounting closes"
            )

    # -- lifecycle -------------------------------------------------------------
    def reset(self) -> None:
        self.clocks[:] = 0.0
        self.by_phase.clear()
        self.by_category.clear()
        self.busy.fill(-np.inf)
        self._queues.fill(-np.inf)
        self.outstanding.clear()
        if self.trace is not None:
            self.trace.clear()

    def snapshot(self) -> dict:
        """Copies of the books — clocks, phase and category totals, link
        busy-until times and in-flight queues — plus the outstanding-handle
        registry.  The five books under these keys are what a checkpoint
        slice file and a worker's state report hold (``repro.runtime``)."""
        return {
            "clocks": self.clocks.copy(),
            "by_phase": {k: v.copy() for k, v in self.by_phase.items()},
            "by_category": {k: v.copy() for k, v in self.by_category.items()},
            "links": self.links,
            "link_queues": self.link_queues,
            "outstanding": dict(self.outstanding),
        }

    def restore(self, snap: dict) -> None:
        """Load the books of a :meth:`snapshot` (or of a checkpoint slice,
        which lists no outstanding handles) in place."""
        self.clocks[:] = snap["clocks"]
        for book, saved in (
            (self.by_phase, snap["by_phase"]),
            (self.by_category, snap["by_category"]),
        ):
            book.clear()
            book.update({k: v.copy() for k, v in saved.items()})
        # a link the snapshot does not list reads as unreserved again
        links, queued = snap["links"], snap["link_queues"]
        slots, rows = self.link_slots(links), self.link_slots(queued)
        self.busy.fill(-np.inf)
        self.busy[slots] = list(links.values())
        queues = self.queues(max(map(len, queued.values()), default=0))
        queues.fill(-np.inf)
        for row, times in zip(rows, queued.values()):
            if times:
                queues[row, -len(times) :] = times
        self.outstanding.clear()
        # reconcile rather than copy blindly: a handle that was waited
        # between snapshot and restore (e.g. consumed inside no_charge)
        # must not be resurrected as outstanding — it can never be waited
        # again, so re-registering it would wedge check_no_outstanding
        self.outstanding.update(
            {k: h for k, h in snap.get("outstanding", {}).items() if not h.waited}
        )


class VirtualRank:
    """One simulated GPU: a clock and its place in the machine.

    Clock and phase totals live in the owning cluster's :class:`ClockStore`
    (this object is a per-index view; ``cluster.category_totals(prefix)[r]``
    reads a rank's totals); a standalone ``VirtualRank`` gets a private
    single-rank store.
    """

    __slots__ = ("rank", "node", "device", "_store", "_i")

    def __init__(
        self,
        rank: int,
        node: int,
        device,
        store: ClockStore | None = None,
        index: int | None = None,
    ) -> None:
        self.rank = rank
        self.node = node
        self.device = device
        self._store = ClockStore(1) if store is None else store
        self._i = 0 if store is None else (rank if index is None else index)

    @property
    def clock(self) -> float:
        return float(self._store.clocks[self._i])

    @clock.setter
    def clock(self, value: float) -> None:
        self._store.clocks[self._i] = value

    def advance(self, duration: float, phase: str) -> None:
        """Move this rank's clock forward, attributing the time to ``phase``."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._store.clocks[self._i] += duration
        self._store.record_at(self._i, phase, duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualRank({self.rank}, node={self.node}, clock={self.clock:.6f})"


class VirtualCluster:
    """The virtual ranks one process holds, mapped onto a machine topology.

    ``VirtualCluster(n, machine)`` is a whole world: ranks ``0..n-1``.  A
    worker of the multi-process runtime holds the global ranks ``[lo, hi)``
    of a larger cube instead (each :class:`VirtualRank` keeps its global id
    and node; the :class:`ClockStore` indexes them from 0) and is given
    ``exchange``, the transport's byte mover (``bus.exchange``: post arrays,
    get every worker's parts back in rank order) — what :meth:`barrier` and
    the grid's worker-crossing Z axis (``repro.core.grid``) reach the other
    slices through.  The whole cube is the one-slice case: ``lo=0``, no mover.
    """

    def __init__(
        self, world_size: int, machine: MachineSpec = LAPTOP, lo: int = 0, exchange=None
    ) -> None:
        if world_size < 1 or lo < 0:
            raise ValueError("need world_size >= 1 and lo >= 0")
        self.world_size = world_size
        self.machine = machine
        self.lo, self.hi = lo, lo + world_size
        self.exchange = exchange
        self.store = ClockStore(world_size)
        self._ranks = [
            VirtualRank(r, machine.node_of(r), machine.device, store=self.store, index=r - lo)
            for r in range(lo, self.hi)
        ]

    def __getitem__(self, rank: int) -> VirtualRank:
        return self._ranks[rank]

    def __iter__(self):
        return iter(self._ranks)

    def __len__(self) -> int:
        return self.world_size

    @property
    def clocks(self) -> np.ndarray:
        """The live ``(world,)`` clock vector (mutate via advance_* only)."""
        return self.store.clocks

    def max_clock(self) -> float:
        """The slowest rank's simulated time (= the cluster's wall clock)."""
        return float(self.store.clocks.max())

    # -- batched advancement (the engine's hot path) ---------------------------
    def advance_all(self, durations: np.ndarray | float, phase: str) -> None:
        """Advance every rank at once; ``durations`` is scalar or ``(world,)``.

        Durations must be non-negative; arrays are trusted (the engine feeds
        precomputed kernel-time vectors, validated at construction), scalars
        are checked.
        """
        if not isinstance(durations, np.ndarray) and durations < 0:
            raise ValueError("duration must be non-negative")
        self.store.clocks += durations
        self.store.record_all(phase, durations)

    def barrier(self, phase: str = "comm:barrier") -> None:
        """Synchronize every clock to the cube-wide maximum — this process's
        own clocks, or behind a byte mover one exchange of every slice's —
        charging stragglers' wait to ``phase`` (a full ``"category:detail"``
        label)."""
        clocks = self.store.clocks
        if self.exchange is None:
            t = clocks.max()
        else:
            t0 = time.monotonic() if _trace.enabled else 0.0
            with _trace.span("barrier.exchange", phase=phase):
                (parts,) = self.exchange([clocks])
            if _trace.enabled:
                _metrics.observe("barrier_wait_s", time.monotonic() - t0)
            t = np.concatenate(parts).max()
        waits = t - clocks
        clocks[:] = t
        self.store.record_all(phase, waits)

    def reset(self) -> None:
        """Zero every clock and phase total (between independent runs)."""
        self.store.reset()

    def check_outstanding(self, allowed: tuple = ()) -> None:
        """Raise if a collective handle was issued but never ``wait()``-ed.

        The trainer calls this at epoch end: a dropped
        :class:`~repro.dist.comm.PendingCollective` means communication was
        issued whose completion cost never reached the timeline, so the
        epoch's comm/comp breakdown would silently under-report.  Handles in
        ``allowed`` (intentional cross-epoch prefetches) are exempt.
        """
        self.store.check_no_outstanding(allowed)

    @contextmanager
    def no_charge(self):
        """Context under which simulated time and phase totals do not change.

        Snapshots the clock/timeline state on entry and restores it on exit
        (including link occupancy and the outstanding-handle registry), so
        diagnostic passes (e.g. ``PlexusTrainer.evaluate``) can drive the
        full engine without polluting the experiment's epoch accounting.
        The trace sink is detached for the duration for the same reason:
        un-charged activity must not appear in the exported trace (whose
        per-phase sums are asserted bitwise against the buckets).
        """
        snap = self.store.snapshot()
        sink, self.store.trace = self.store.trace, None
        try:
            yield self
        finally:
            self.store.trace = sink
            self.store.restore(snap)

    def category_totals(self, prefix: str) -> np.ndarray:
        """Per-rank seconds in phases matching ``prefix`` as one fresh vector
        — the trainer's per-epoch comm/comp accounting in a single O(1)
        bucket lookup (plus a copy)."""
        return self.store.prefix_totals(prefix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualCluster({self.world_size}, {self.machine.name})"
