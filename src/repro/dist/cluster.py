"""The virtual cluster: rank clocks and phase accounting as numpy arrays.

Every rank of the simulation owns a scalar clock (simulated seconds) and a
:class:`Timeline` that attributes every clock advance to a phase label of
the form ``"category:detail"`` (``"comp:spmm_fwd"``, ``"comm:all_reduce_h"``,
...).  The storage is *columnar*: one :class:`VirtualCluster` keeps a single
``(world,)`` clock vector plus one ``(world,)`` accumulator per phase label
and per category prefix, and each :class:`VirtualRank` / :class:`Timeline`
is a lightweight view onto index ``r`` of those arrays.  That layout is what
lets the rank-batched execution engine advance *every* rank of a collective
step with a handful of vectorized operations (`advance_all`, `advance_at`,
and the cube-reshaped straggler sync in ``repro.dist.collectives``) instead
of ``world_size`` interpreter round-trips — the per-rank scalar API is kept
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
from dataclasses import dataclass

import numpy as np

from repro.dist.topology import LAPTOP, MachineSpec
from repro.errors import CollectiveMisuse
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics

__all__ = ["TimelineBreakdown", "Timeline", "VirtualRank", "VirtualCluster"]


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


@dataclass(frozen=True)
class TimelineBreakdown:
    """Seconds per category: modeled kernels, communication, everything else."""

    comp: float
    comm: float
    other: float

    @property
    def total(self) -> float:
        return self.comp + self.comm + self.other


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

    * ``links`` maps each process group's link key to the simulated time its
      link is busy until.  Issuing a collective reserves the link from
      ``max(group ready time, link free time)``, which is what serializes two
      in-flight operations on the same axis link — they queue behind each
      other instead of magically overlapping.
    * ``max_inflight`` optionally bounds the in-flight ops *per link*: when
      set (``PlexusOptions.max_inflight`` threads it here), ``link_queues``
      maps each link key to the newest ``max_inflight`` completion times of
      its ops (ascending: a link's transfers end in issue order), and
      issuing on a saturated link *blocks* — the issuing group's clocks are
      lifted to the time a slot frees, with the wait charged to the
      collective's comm phase.  Intra- and inter-node links alike: no queue
      is shared between links (contention between links is Eq. 4.6's
      effective bandwidth, not a queue).  The transfer schedule itself is
      unchanged (ops already serialize on their link); what saturation costs
      is the *overlap*: compute that would have been issued behind the full
      queue can no longer start early.  ``None`` (the default) keeps the
      historical unbounded queue and records nothing.
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
        "links",
        "link_queues",
        "max_inflight",
        "outstanding",
        "trace",
    )

    def __init__(self, world: int) -> None:
        self.world = world
        self.clocks = np.zeros(world, dtype=np.float64)
        self.by_phase: dict[str, np.ndarray] = {}
        self.by_category: dict[str, np.ndarray] = {}
        #: link key -> busy-until time
        self.links: dict[object, float] = {}
        #: link key -> its newest ``max_inflight`` completion times, ascending
        #: (only maintained while ``max_inflight`` is set)
        self.link_queues: dict[object, list[float]] = {}
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

    def grand_totals(self) -> np.ndarray:
        """Per-rank total seconds (fresh vector, summed over categories)."""
        out = np.zeros(self.world, dtype=np.float64)
        for bucket in self.by_category.values():
            out += bucket
        return out

    # -- accounting (clock updates stay with the caller) -----------------------
    def record_at(self, i: int, phase: str, duration: float) -> None:
        self.phase_bucket(phase)[i] += duration
        self.category_bucket(_category(phase))[i] += duration
        if self.trace is not None:
            self.trace.rec_at(i, phase, duration)

    def record_all(self, phase: str, durations: np.ndarray | float) -> None:
        """Attribute per-rank ``durations`` (scalar broadcasts) to ``phase``."""
        self.phase_bucket(phase)[:] += durations
        self.category_bucket(_category(phase))[:] += durations
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
        if not prefix:
            return self.grand_totals()
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
        self.links.clear()
        self.link_queues.clear()
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
            "links": dict(self.links),
            "link_queues": {k: list(v) for k, v in self.link_queues.items()},
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
        self.links.clear()
        self.links.update(snap["links"])
        self.link_queues.clear()
        self.link_queues.update({k: list(v) for k, v in snap["link_queues"].items()})
        self.outstanding.clear()
        # reconcile rather than copy blindly: a handle that was waited
        # between snapshot and restore (e.g. consumed inside no_charge)
        # must not be resurrected as outstanding — it can never be waited
        # again, so re-registering it would wedge check_no_outstanding
        self.outstanding.update(
            {k: h for k, h in snap.get("outstanding", {}).items() if not h.waited}
        )


class Timeline:
    """Phase-attributed time totals of one rank — a view into a ClockStore.

    ``total(prefix)`` hits the store's per-category / per-phase buckets for
    the common queries (empty prefix, a category prefix, an exact phase
    label) and only falls back to a scan over the *distinct* phase labels —
    a few dozen at most, independent of event count — for arbitrary
    prefixes.  A bare ``Timeline()`` owns a private single-rank store, so it
    still works standalone.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: ClockStore | None = None, index: int = 0) -> None:
        self._store = ClockStore(1) if store is None else store
        self._i = index

    def add(self, phase: str, duration: float) -> None:
        """Record ``duration`` seconds attributed to ``phase``."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._store.record_at(self._i, phase, duration)

    def total(self, prefix: str = "") -> float:
        """Total seconds of all phases whose label starts with ``prefix``."""
        store, i = self._store, self._i
        if not prefix:
            return float(sum(b[i] for b in store.by_category.values()))
        hit = store.by_category.get(prefix)
        if hit is not None:
            return float(hit[i])
        hit = store.by_phase.get(prefix)
        if hit is not None and not any(
            p.startswith(prefix) and p != prefix for p in store.by_phase
        ):
            return float(hit[i])
        return float(
            sum(b[i] for p, b in store.by_phase.items() if p.startswith(prefix))
        )

    def breakdown(self) -> TimelineBreakdown:
        """Comp/comm/other split of everything recorded so far."""
        store, i = self._store, self._i
        comp_b = store.by_category.get("comp:")
        comm_b = store.by_category.get("comm:")
        comp = float(comp_b[i]) if comp_b is not None else 0.0
        comm = float(comm_b[i]) if comm_b is not None else 0.0
        grand = float(sum(b[i] for b in store.by_category.values()))
        return TimelineBreakdown(comp=comp, comm=comm, other=grand - comp - comm)

    def reset(self) -> None:
        store, i = self._store, self._i
        for bucket in store.by_phase.values():
            bucket[i] = 0.0
        for bucket in store.by_category.values():
            bucket[i] = 0.0


class VirtualRank:
    """One simulated GPU: a clock, a timeline, and its place in the machine.

    Clock and timeline data live in the owning cluster's :class:`ClockStore`
    (this object is a per-index view); a standalone ``VirtualRank`` gets a
    private single-rank store.
    """

    __slots__ = ("rank", "node", "device", "timeline", "_store", "_i")

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
        self.timeline = Timeline(self._store, self._i)

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

    def advance_at(self, idx: np.ndarray, durations: np.ndarray | float, phase: str) -> None:
        """Advance the ranks in ``idx``; ``durations`` is scalar or matches ``idx``."""
        if not isinstance(durations, np.ndarray) and durations < 0:
            raise ValueError("duration must be non-negative")
        self.store.clocks[idx] += durations
        self.store.record_idx(idx, phase, durations)

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
        """Zero every clock and timeline (between independent runs)."""
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
