"""Shared-memory tensor transport for the multi-process runtime.

Workers of one :mod:`repro.runtime` session exchange tensors through
POSIX shared memory (``multiprocessing.shared_memory``): every worker owns
one *mailbox* segment all peers can read, plus per-message overflow
segments for payloads larger than a mailbox slot.  A mailbox holds **two
slots**, used alternately by message-sequence parity, and an exchange is a
single rendezvous around raw-byte traffic:

1. *post* — the worker packs its arrays into slot ``seq mod 2`` of its own
   mailbox (a direct ``np.copyto`` into the mapped buffer — no pickling),
   writes the record table and the checksum (:mod:`repro.runtime.frame`),
   and **publishes the slot's 8-byte sequence word last**;
2. *wait* — it polls every peer's sequence word for ``seq`` (a bounded
   spin, then ``os.sched_yield()``, then short sleeps, all under the bus
   ``timeout`` deadline);
3. *consume in place* — it runs the frame check on every peer frame and
   hands back, per posted array, the workers' parts in rank order: its own
   arrays as given (a worker never re-reads or re-checksums its own frame)
   and **read-only zero-copy views** of the peers' mapped slots or overflow
   segments.  Nothing is copied out: the caller (``dist/comm.py``'s data
   math) reduces or gathers straight from the mapped planes;
4. *release* — the views stay valid until the worker's **next**
   ``exchange()``, which first unmaps the peer overflow segments the
   previous message attached; its own overflow segment of message
   ``seq - 1`` is retired (unlinked) once message ``seq`` is complete.

No second rendezvous is needed because reuse is safe by construction: a
peer posts message ``s + 1`` only from its next ``exchange()``, i.e. after
it stopped reading message ``s``.  So a worker that overwrites slot
``s mod 2`` — after finishing exchange ``s - 1``, which required seeing
every peer's post of ``s - 1`` — knows every peer is done with ``s - 2``,
the previous tenant of that slot.  Overflow segments follow the same
two-generation lifetime (seeing every peer's post of ``s`` lets step 4 drop
the segment of ``s - 1``); a worker's *last* overflow segment, which no
later exchange vouches for, is left to the launcher's ``unlink`` sweep.

Memory-ordering assumption: the payload, record-table and checksum stores
precede the sequence-word store in program order, and a reader loads the
sequence word before the payload; x86-TSO keeps both orders, and the
aligned 8-byte sequence word is stored and loaded whole.  On a weaker
memory model a reader could observe the sequence word before the payload
it announces — the word sum of every peer frame is verified before its
views are handed out, so such a torn read raises
:class:`~repro.errors.PayloadCorruption` rather than corrupting numerics.

The bus moves bytes and knows no schedule: :meth:`ShmBus.exchange`
is the byte mover behind the one grid axis that crosses worker boundaries
(the cube's leading Z axis), whose communicator is the ordinary
:class:`~repro.dist.AxisCommunicator` :class:`~repro.core.grid.PlexusGrid`
builds over a cluster slice's mover — at issue the workers exchange
their clock slices and operand slices, with the operands' valid extents,
through it, one frame per worker per collective.  A collective re-issued
with a known duration (``AxisCommunicator.issue``: a frozen layer 0's replayed F0 gather) still
rendezvouses, but the exchange is **clocks only**: one frame per worker as
before, one array in it, no operand planes on the bus.  Which form a
collective takes is a function of the forwards run since the model was
built, never of anything worker-local — every recovery respawns the whole
pool — so all workers post the same array count at the same message (a
mismatch is a :class:`~repro.errors.RendezvousDesync`).  Because every
worker runs the same SPMD program order, collectives rendezvous in
identical sequence (a per-message sequence number makes desync loud),
overlap schedules included: handles can stay in flight across local
compute exactly as in-process.

Cleanup discipline: the launcher (segment creator) owns ``unlink``; workers
only ``close``.  Spawned workers share the launcher's stdlib resource
tracker, so segment registrations are deliberately left in place — a
worker's exit cannot tear down segments its peers still map (the tracker
only reclaims at tracker exit), and if the whole process tree dies hard the
tracker still unlinks everything.  :func:`cleanup_orphans` sweeps
``/dev/shm`` for leftover session segments (and unregisters them) — the CI
orphan guard and the crash-path backstop; the segments are the only
runtime state a pool keeps on the host.
"""

from __future__ import annotations

import math
import os
import struct
import time
import uuid
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import numpy as np

from repro.errors import BarrierTimeout, CollectiveMisuse
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics
from repro.runtime import frame

__all__ = [
    "SHM_PREFIX",
    "BusHandle",
    "ShmBus",
    "new_session_id",
    "cleanup_orphans",
]

#: every segment of every session starts with this (the orphan sweep key)
SHM_PREFIX = "plexus-rt-"

# slot layout (two per mailbox): fixed header, then 64-byte-aligned payloads
_SEQ_OFF = 0
_COUNT_OFF = 8  # u64 array count, then the u64 word sum of the arrays
_OVF_OFF = 24  # 64-byte ascii overflow-segment name ("" = inline payload)
_REC_OFF = 88  # the frame's record table, room for frame.MAX_ARRAYS records
_ALIGN = 64
#: first payload byte: the header rounded up so every payload stays aligned
_PAYLOAD_OFF = (_REC_OFF + frame.MAX_ARRAYS * frame.RECORD.size + _ALIGN - 1) // _ALIGN * _ALIGN

# waiting for a peer's sequence word: spin (peers usually arrive within a
# few hundred microseconds), then yield the core, then sleep with doubling
# back-off — a wedged or dead peer costs the survivors next to no CPU
_SPIN_S = 200e-6
_YIELD_S = 2e-3
_SLEEP_MIN_S = 50e-6
_SLEEP_MAX_S = 1e-3


def new_session_id() -> str:
    """A fresh session id, ``<prefix><launcher-pid>p<random>``.

    The embedded pid is the orphan sweep's liveness key: a sweep can tell a
    dead session's leftovers from a concurrently *running* sibling session
    (same prefix, different launcher) and leave the latter alone.
    """
    return f"{SHM_PREFIX}{os.getpid()}p{uuid.uuid4().hex[:10]}"


def _owner_pid(name: str) -> int | None:
    """The launcher pid embedded in a segment name, or None (old/foreign
    name shapes parse as ownerless and are treated as orphans)."""
    rest = name[len(SHM_PREFIX) :] if name.startswith(SHM_PREFIX) else name
    i = 0
    while i < len(rest) and rest[i].isdigit():
        i += 1
    if i == 0 or i >= len(rest) or rest[i] != "p":
        return None
    return int(rest[:i])


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    return True


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _offsets(sizes) -> tuple[list[int], int]:
    """Each payload's offset in a frame of payloads of ``sizes`` bytes, and
    the frame's end: every payload starts ``_ALIGN``-ed."""
    offsets, off = [], _PAYLOAD_OFF
    for n in sizes:
        offsets.append(off)
        off = _align(off + n)
    return offsets, off


def cleanup_orphans(prefix: str = SHM_PREFIX, include_live: bool = False) -> list[str]:
    """Unlink leftover session segments from ``/dev/shm``; returns names.

    The backstop for hard-killed runs (and the CI orphan guard): segment
    names are namespaced by :data:`SHM_PREFIX`, so the sweep can never touch
    another application's shared memory — and a session whose launcher
    process (the pid embedded in the session id) is still alive is a
    *running sibling*, not an orphan, so its segments are skipped unless
    ``include_live=True`` (used by :meth:`ShmBus.unlink`, which sweeps only
    its own session's prefix).  Swept names are also dropped from the
    stdlib resource tracker (best effort) so it does not re-unlink them at
    interpreter exit.

    Note on tracker discipline: a spawned worker shares its launcher's
    resource tracker, so segment registrations are deliberately left in
    place — if the whole process tree dies without running ``unlink``, the
    tracker still reclaims every segment.
    """
    removed = []
    root = Path("/dev/shm")
    if not root.is_dir():  # non-Linux: nothing to sweep
        return removed
    for p in root.glob(prefix + "*"):
        if not include_live:
            pid = _owner_pid(p.name)
            if pid is not None and _pid_alive(pid):
                continue  # a live session owns this segment
        try:
            p.unlink()
            removed.append(p.name)
        except OSError:
            continue
        try:  # private stdlib surface; a failed unregister only risks noise
            from multiprocessing import resource_tracker

            resource_tracker.unregister("/" + p.name, "shared_memory")
        except Exception:
            pass
    return removed


@dataclass
class BusHandle:
    """Picklable description of one session's bus (passed at spawn)."""

    session: str
    n_workers: int
    capacity: int  # bytes per mailbox slot (header + inline payload)
    timeout: float

    def mailbox_name(self, worker: int) -> str:
        return f"{self.session}-m{worker}"


class ShmBus:
    """One endpoint of the session bus (launcher or one worker).

    The launcher constructs with ``worker_id=None`` to *create* the
    mailboxes (and later :meth:`unlink` them); each worker attaches with
    its id and uses :meth:`exchange` for rendezvous traffic.

    Every frame header carries a 64-bit word sum of the posted payload
    arrays, and every read of a peer's frame verifies it — torn or
    corrupted shared memory raises :class:`~repro.errors.PayloadCorruption`
    at read time instead of propagating garbage numerics.  An optional
    :class:`~repro.runtime.faults.FaultInjector` hooks the rendezvous at
    its named points (chaos testing).
    """

    def __init__(
        self,
        handle: BusHandle,
        worker_id: int | None = None,
        faults=None,
    ) -> None:
        self.handle = handle
        self.worker_id = worker_id
        self.faults = faults
        self._seq = 0
        self._closed = False
        #: this worker's overflow segment per slot (two generations alive)
        self._my_overflow: list[SharedMemory | None] = [None, None]
        #: peer overflow segments the last exchange's views live in
        self._attached: list[SharedMemory] = []
        create = worker_id is None
        stride = _align(handle.capacity)
        self._mailboxes: list[SharedMemory] = []
        try:
            for w in range(handle.n_workers):
                shm = SharedMemory(
                    name=handle.mailbox_name(w), create=create, size=2 * stride
                )
                self._mailboxes.append(shm)
        except BaseException:
            # a mid-loop failure (ENOSPC, name collision) must not leave the
            # segments created so far behind — the guarantee holds even
            # before the launcher gets a bus object to close
            for shm in self._mailboxes:
                try:
                    shm.close()
                    if create:
                        shm.unlink()
                except OSError:
                    pass
            raise
        #: per worker, its two slots and their sequence words (one aligned
        #: native u64 each: stored and loaded whole)
        self._slots = [
            [box.buf[k * stride : (k + 1) * stride] for k in (0, 1)]
            for box in self._mailboxes
        ]
        self._seq_words = [
            [slot[_SEQ_OFF : _SEQ_OFF + 8].cast("Q") for slot in slots]
            for slots in self._slots
        ]

    # -- rendezvous ----------------------------------------------------------
    def _post(self, arrays: list[np.ndarray]) -> None:
        """Write this worker's frame — record table, payload, checksum —
        into slot ``seq mod 2``; everything but the sequence word."""
        slot = self._seq & 1
        buf = self._slots[self.worker_id][slot]
        frame.write_table(arrays, buf, _REC_OFF)
        self._offsets, total = _offsets(a.nbytes for a in arrays)
        if total <= self.handle.capacity:
            ovf_name = b""
            payload = buf
        else:
            name = f"{self.handle.session}-o{self.worker_id}-{self._seq}"
            ovf = self._my_overflow[slot] = SharedMemory(name=name, create=True, size=total)
            ovf_name = name.encode()
            payload = ovf.buf
        struct.pack_into("64s", buf, _OVF_OFF, ovf_name)
        # checksum each contiguous array copy — the alignment gaps between
        # payloads hold stale bytes from earlier messages and stay outside
        check = 0
        for a, o in zip(arrays, self._offsets):
            dst = np.frombuffer(payload, dtype=a.dtype, count=a.size, offset=o)
            np.copyto(dst.reshape(a.shape), a, casting="no")
            check += frame.word_sum(payload, o, a.nbytes)
        struct.pack_into("<QQ", buf, _COUNT_OFF, len(arrays), check % 2**64)
        if _trace.enabled:
            _metrics.count("frames_sent")
            _metrics.count("bytes_sent", total - _PAYLOAD_OFF)

    def _await_peers(self) -> None:
        """Block until every peer has published message ``seq``."""
        seq = self._seq
        slot = seq & 1
        pending = [
            (w, words[slot])
            for w, words in enumerate(self._seq_words)
            if w != self.worker_id
        ]
        start = time.monotonic()
        sleep_s = _SLEEP_MIN_S
        while True:
            waiting = []
            for w, word in pending:
                at = word[0]
                if at > seq:
                    raise frame.desync(w, seq, f"is at message {at}, expected {seq}")
                if at != seq:
                    waiting.append((w, word))
            if not waiting:
                return
            pending = waiting
            waited = time.monotonic() - start
            if waited < _SPIN_S:
                continue
            if waited < _YIELD_S:
                os.sched_yield()
                continue
            if waited > self.handle.timeout:
                lagging = ", ".join(
                    f"worker {w} is at message "
                    f"{max(word[0] for word in self._seq_words[w])}, expected {seq}"
                    for w, _ in pending
                )
                raise BarrierTimeout(
                    "shared-memory rendezvous timed out after "
                    f"{self.handle.timeout:g}s: {lagging} — a peer worker died "
                    f"or wedged (worker {self.worker_id} waiting)",
                    worker_id=self.worker_id,
                    last_seq=seq,
                )
            time.sleep(sleep_s)
            sleep_s = min(2 * sleep_s, _SLEEP_MAX_S)

    def _read_views(self, worker: int, count: int) -> list[np.ndarray]:
        """Frame-checked, read-only zero-copy views of peer ``worker``'s
        published message (its overflow segment stays attached for them)."""
        seq = self._seq
        buf = self._slots[worker][seq & 1]
        posted_count, posted = struct.unpack_from("<QQ", buf, _COUNT_OFF)
        records = frame.read_table(buf, _REC_OFF, posted_count, worker, seq)
        sizes = [math.prod(shape) * dtype.itemsize for dtype, shape in records]
        offsets, end = _offsets(sizes)
        (raw_name,) = struct.unpack_from("64s", buf, _OVF_OFF)
        ovf_name = raw_name.rstrip(b"\0").decode()
        payload = buf
        if ovf_name:
            self._attached.append(SharedMemory(name=ovf_name))
            payload = self._attached[-1].buf
        if end > len(payload):  # a torn or foreign record table
            raise frame.desync(worker, seq, f"posted a {end}-byte frame in {len(payload)} bytes")
        # checked before any view exists to pin the mapping from a traceback
        read = sum(frame.word_sum(payload, o, n) for o, n in zip(offsets, sizes))
        frame.check(worker, seq, "shm", posted_count, count, posted, read)
        payload = payload.toreadonly()
        return [
            np.frombuffer(payload, dtype=dtype, count=math.prod(shape), offset=o).reshape(shape)
            for o, (dtype, shape) in zip(offsets, records)
        ]

    def exchange(self, arrays: list[np.ndarray]) -> list[tuple[np.ndarray, ...]]:
        """Rendezvous with every peer; returns, per posted slot, the workers'
        arrays in worker (= rank) order: this worker's as given, the peers'
        as read-only views of their mapped frames, **valid until the next
        ``exchange()`` on this bus** — consume or copy them before that."""
        if self.worker_id is None:
            raise CollectiveMisuse("the launcher endpoint does not exchange")
        arrays = [np.ascontiguousarray(a) for a in arrays]
        # the caller is back, so it is done with the previous message's
        # views: unmap the peer overflow segments they lived in
        for ovf in self._attached:
            try:
                ovf.close()
            except BufferError:  # a view outlived its exchange; unmapped when it dies
                pass
        self._attached.clear()
        self._seq += 1
        self._post(arrays)
        if self.faults is not None:
            self.faults.fire("pre_barrier", self)
        # publish last: a peer that sees the word sees the whole frame
        self._seq_words[self.worker_id][self._seq & 1][0] = self._seq
        # the two span names predate the single rendezvous and stay: trace
        # consumers sum them as the wait and bracket an exchange with them
        with _trace.span("shm.barrier_a", seq=self._seq):
            self._await_peers()
        if self.faults is not None:
            self.faults.fire("mid_collective", self)
        per_worker = [
            arrays if w == self.worker_id else self._read_views(w, len(arrays))
            for w in range(self.handle.n_workers)
        ]
        with _trace.span("shm.barrier_b", seq=self._seq):
            # every peer published this message, so every peer finished
            # reading the previous one: its overflow segment can go
            previous = (self._seq - 1) & 1
            ovf = self._my_overflow[previous]
            if ovf is not None:
                self._my_overflow[previous] = None
                ovf.close()
                ovf.unlink()
        if self.faults is not None:
            self.faults.exchange_done()
        return list(zip(*per_worker))

    def corrupt_own_payload(self, array: int = 0, byte: int = 0) -> None:
        """Flip byte ``byte`` of array ``array`` of this worker's frame, after
        :meth:`_post` and before the sequence word is published (the
        ``corrupt`` fault action)."""
        slot = self._seq & 1
        ovf = self._my_overflow[slot]
        payload = ovf.buf if ovf is not None else self._slots[self.worker_id][slot]
        payload[self._offsets[array] + byte] ^= 0xFF

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release this endpoint's mappings (workers; idempotent)."""
        if self._closed:
            return
        self._closed = True
        # only unmapped, not unlinked: with a single rendezvous a peer may
        # not have attached this worker's last frame yet — the launcher's
        # unlink() sweeps the session's overflow segments
        segments = [ovf for ovf in (*self._my_overflow, *self._attached) if ovf is not None]
        self._my_overflow = [None, None]
        self._attached = []
        # sub-views first: a mapping with live exports refuses to close
        for per_worker in (*self._seq_words, *self._slots):
            for view in per_worker:
                try:
                    view.release()
                except BufferError:
                    pass
        for segment in (*segments, *self._mailboxes):
            try:
                segment.close()
            except (OSError, BufferError):
                pass

    def unlink(self) -> None:
        """Destroy the session's segments (launcher only; idempotent).

        Also sweeps the session's overflow segments: each worker's last
        one (left for peers still reading it) and any a crashed worker
        left behind.
        """
        self.close()
        for shm in self._mailboxes:
            try:
                shm.unlink()
            except OSError:
                pass
        cleanup_orphans(self.handle.session, include_live=True)
