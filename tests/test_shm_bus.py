"""The shared-memory bus on its own (no model): the single-rendezvous
exchange over double-buffered sequence-word mailboxes.

Three real worker processes (more than this host's cores) hammer
``ShmBus.exchange`` with payloads that encode ``(worker, seq)``:

* **no torn or stale slot** — with seeded random delays before each post
  and before each read of the returned peer views, every worker finds
  exactly the expected parts on every one of hundreds of back-to-back
  exchanges, across frames that alternate between the inline slot and
  overflow segments: the views are read-only windows into the peers'
  mapped frames (zero-copy, asserted) and stay valid until the next
  ``exchange()``; no overflow segment is older than two messages while the
  pool runs, and none outlives it;
* **typed, bounded failure** — a peer that never posts yields
  :class:`~repro.errors.BarrierTimeout` naming it (and the message it last
  published) within ``timeout``, the survivors asleep rather than spinning;
  a newer sequence than expected yields
  :class:`~repro.errors.RendezvousDesync`, and so does a record that
  claims more bytes than the peer's frame holds; a flipped byte in a
  peer's slot — any byte of any array — yields
  :class:`~repro.errors.PayloadCorruption`.

The any-count / any-dtype round trip runs on the tcp bus too: both buses
share one frame format and one frame check (``repro.runtime.frame``).
"""

from __future__ import annotations

import multiprocessing as mp
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_tcp_bus import _pool

from repro.errors import PayloadCorruption, RendezvousDesync
from repro.runtime import frame, shm
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.shm import BusHandle, ShmBus, new_session_id

WORKERS = 3
MAILBOX = 4096  # header 704 B: anything over 3392 payload bytes overflows
EXCHANGES = 240
SMALL_ROWS, LARGE_ROWS = 16, 600  # float64 rows: inline / overflow


def _rows(seq: int) -> int:
    """Payload length of message ``seq``: period 3 against the slots'
    period 2, so either slot carries both inline and overflow frames."""
    return LARGE_ROWS if seq % 3 == 0 else SMALL_ROWS


def _payload(worker: int, seq: int) -> list[np.ndarray]:
    tag = np.array([[worker, seq]], dtype=np.int64)
    body = np.full((_rows(seq), 2), worker * 1_000_000 + seq, dtype=np.float64)
    return [tag, body]


class _Jitter:
    """Duck-typed fault hook: a seeded random pause between observing the
    peers' frames and handing out views of them."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def fire(self, point: str, bus=None) -> None:
        if point == "mid_collective" and self.rng.random() < 0.5:
            time.sleep(self.rng.uniform(0.0, 4e-4))

    def exchange_done(self) -> None:
        pass


def _mapped(bus: ShmBus, worker: int) -> list[np.ndarray]:
    """Byte windows onto every mapping ``bus`` holds of ``worker``'s frames."""
    maps = [bus._mailboxes[worker].buf] + [
        o.buf for o in bus._attached if f"-o{worker}-" in o.name
    ]
    return [np.frombuffer(m, dtype=np.uint8) for m in maps]


def _stress_worker(worker: int, handle: BusHandle, conn) -> None:
    rng = random.Random(1000 + worker)
    bus = ShmBus(handle, worker_id=worker, faults=_Jitter(rng))
    bad = []
    try:
        for seq in range(1, EXCHANGES + 1):
            if rng.random() < 0.5:
                time.sleep(rng.uniform(0.0, 4e-4))
            mine = _payload(worker, seq)
            got = bus.exchange(mine)
            # the window in which a premature slot reuse or segment release
            # would show: the views are read *after* this pause, while fast
            # peers are already blocked in their next exchange
            if rng.random() < 0.5:
                time.sleep(rng.uniform(0.0, 4e-4))
            for k, parts in enumerate(got):
                for w, part in enumerate(parts):
                    ok = np.array_equal(part, _payload(w, seq)[k])
                    if w == worker:
                        ok = ok and part is mine[k]
                    else:  # read-only, and a window into the peer's mapped frame
                        ok = ok and not part.flags.writeable
                        ok = ok and any(np.shares_memory(part, m) for m in _mapped(bus, w))
                    if not ok:
                        bad.append((seq, k, w))
            if worker == 0:  # overflow segments live at most two messages
                for name in _session_segments(handle.session):
                    if "-o" in name and int(name.rsplit("-", 1)[1]) < seq - 1:
                        bad.append((seq, "stale segment", name))
            del got, parts, part
        conn.send(("done", bad))
    except BaseException as exc:  # reported, not swallowed: the test asserts on it
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        bus.close()
        conn.close()


def _failing_worker(worker: int, handle: BusHandle, conn, silent: int, skew: int) -> None:
    """Two exchanges; worker ``silent`` never posts the second one, and
    worker ``skew`` (if any) runs two messages ahead from the start."""
    bus = ShmBus(handle, worker_id=worker)
    t0, c0 = time.monotonic(), time.process_time()
    try:
        if worker == skew:
            bus._seq += 2
        bus.exchange(_payload(worker, 1))
        if worker == silent:
            time.sleep(2.5 * handle.timeout)
            conn.send(("silent", None))
            return
        t0, c0 = time.monotonic(), time.process_time()
        bus.exchange(_payload(worker, 2))
        conn.send(("done", None))
    except BaseException as exc:
        conn.send(
            (
                type(exc).__name__,
                {
                    "message": str(exc),
                    "worker_id": getattr(exc, "worker_id", None),
                    "last_seq": getattr(exc, "last_seq", None),
                    "elapsed": time.monotonic() - t0,
                    "cpu": time.process_time() - c0,
                },
            )
        )
    finally:
        bus.close()
        conn.close()


def _corrupting_worker(worker: int, handle: BusHandle, conn, rows: int) -> None:
    """Worker 1 flips a byte of its second frame before publishing it."""
    plan = FaultPlan(worker=1, point="pre_barrier", action="corrupt", exchange=1)
    faults = FaultInjector([plan]) if worker == 1 else None
    bus = ShmBus(handle, worker_id=worker, faults=faults)
    try:
        for seq in (1, 2):
            bus.exchange([np.full((rows,), float(worker + seq))])
        conn.send(("done", None))
    except BaseException as exc:
        conn.send((type(exc).__name__, {"worker_id": getattr(exc, "worker_id", None)}))
    finally:
        bus.close()
        conn.close()


def _session_segments(session: str) -> list[str]:
    return sorted(p.name for p in Path("/dev/shm").glob(session + "*"))


def _run_pool(target, n_workers: int, timeout: float, *args, wait: float = 60.0):
    """Create the bus, run ``target`` in ``n_workers`` processes, return
    every worker's report and the segments alive after the workers closed."""
    ctx = mp.get_context("spawn")
    handle = BusHandle(
        session=new_session_id(), n_workers=n_workers, capacity=MAILBOX, timeout=timeout
    )
    launcher = ShmBus(handle)
    procs, conns = [], []
    try:
        for w in range(n_workers):
            parent, child = ctx.Pipe()
            p = ctx.Process(target=target, args=(w, handle, child, *args), daemon=True)
            p.start()
            child.close()
            procs.append(p)
            conns.append(parent)
        reports = []
        for w, conn in enumerate(conns):
            assert conn.poll(wait), f"worker {w} sent no report within {wait}s"
            reports.append(conn.recv())
        for p in procs:
            p.join(timeout=10.0)
            assert not p.is_alive()
        return reports, _session_segments(handle.session)
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
        launcher.unlink()
        assert _session_segments(handle.session) == []


needs_dev_shm = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="POSIX shared memory is not listable here"
)


@needs_dev_shm
def test_back_to_back_exchanges_never_tear_or_go_stale():
    reports, segments = _run_pool(_stress_worker, WORKERS, 30.0)
    assert reports == [("done", [])] * WORKERS
    # the workers retired every overflow segment but their last (a peer may
    # still be reading it; the launcher's unlink sweeps it, checked above)
    overflow = [s for s in segments if "-o" in s]
    assert len(segments) - len(overflow) == WORKERS
    assert all(s.endswith(f"-{EXCHANGES}") for s in overflow), overflow


@needs_dev_shm
def test_peer_that_never_posts_times_out_named_and_asleep():
    timeout = 0.6
    reports, _ = _run_pool(_failing_worker, WORKERS, timeout, 2, -1)
    assert reports[2] == ("silent", None)
    for w in (0, 1):
        kind, info = reports[w]
        assert kind == "BarrierTimeout", reports[w]
        assert "worker 2 is at message 1, expected 2" in info["message"]
        assert f"worker {1 - w} is at" not in info["message"]  # the prompt peer is not blamed
        assert info["worker_id"] == w and info["last_seq"] == 2
        assert timeout <= info["elapsed"] < timeout + 2.0
        # the back-off reached its sleeps: the wait cost a fraction of a core
        assert info["cpu"] < 0.5 * info["elapsed"], info


@needs_dev_shm
def test_newer_sequence_than_expected_is_a_desync():
    reports, _ = _run_pool(_failing_worker, 2, 0.5, -1, 1)
    kind, info = reports[0]
    assert kind == "RendezvousDesync", reports[0]
    assert "worker 1 is at message 3, expected 1" in info["message"]
    assert info["worker_id"] == 1
    kind, info = reports[1]  # the worker that ran ahead sees a lagging peer
    assert kind == "BarrierTimeout", reports[1]
    assert "worker 0 is at message 1, expected 3" in info["message"]


@needs_dev_shm
@pytest.mark.parametrize("rows", [SMALL_ROWS, LARGE_ROWS], ids=["inline", "overflow"])
def test_flipped_byte_in_a_peer_slot_is_payload_corruption(rows):
    reports, _ = _run_pool(_corrupting_worker, WORKERS, 5.0, rows)
    assert reports[0] == ("PayloadCorruption", {"worker_id": 1})
    assert reports[2] == ("PayloadCorruption", {"worker_id": 1})
    # the corrupter never reads its own frame, so its exchange completes
    assert reports[1] == ("done", None)


class _FlipByte:
    """Duck-typed fault hook: flip byte ``byte`` of array ``array`` of the
    frame about to be published (shm: written, its sequence word not yet
    stored; tcp: not yet sent)."""

    def __init__(self, array: int, byte: int) -> None:
        self.flip = (array, byte)

    def fire(self, point: str, bus=None) -> None:
        if point == "pre_barrier":
            bus.corrupt_own_payload(*self.flip)

    def exchange_done(self) -> None:
        pass


class _TearRecord:
    """Duck-typed fault hook: before the frame just written is published,
    its first record claims a shape far past the mailbox slot."""

    def fire(self, point: str, bus=None) -> None:
        if point == "pre_barrier":
            slot = bus._slots[bus.worker_id][bus._seq & 1]
            frame.RECORD.pack_into(slot, shm._REC_OFF, b"<f8", 1, 10**6, 0, 0, 0, 0, 0)

    def exchange_done(self) -> None:
        pass


@needs_dev_shm
def test_a_record_past_its_frame_is_a_desync():
    got = _pool(
        2, lambda bus: bus.exchange([np.ones(4)]) and "exchanged", timeout=5.0,
        faults={1: _TearRecord()}, transport="shm", capacity=MAILBOX,
    )
    assert isinstance(got[0], RendezvousDesync) and got[0].worker_id == 1, got
    assert "posted a 8000704-byte frame in 4096 bytes" in str(got[0])
    assert got[1] == "exchanged"


_DTYPES = [np.uint8, np.int16, np.float32, np.float64, np.complex128]


@needs_dev_shm
@pytest.mark.parametrize("transport", ["shm", "tcp"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    arrays=st.lists(
        st.tuples(st.sampled_from(_DTYPES), st.integers(0, 41)), min_size=1, max_size=4
    ),
    data=st.data(),
)
def test_any_flipped_payload_byte_is_payload_corruption(transport, arrays, data):
    """Whatever the array count, dtypes and sizes (empty arrays and byte
    counts that are no multiple of 8 included; on shm inline and overflow),
    a frame arrives whole, and one flipped byte anywhere in any array trips
    the reader's word-sum check."""
    rng = np.random.default_rng(len(arrays))
    posted = [
        rng.integers(0, 256, size=n * np.dtype(dt).itemsize, dtype=np.uint8).view(dt)
        for dt, n in arrays
    ]
    capacity = data.draw(st.sampled_from([shm._PAYLOAD_OFF + 64, 1 << 16]), label="capacity")
    flips = [(k, b) for k, a in enumerate(posted) for b in range(a.nbytes)]
    flip = data.draw(st.sampled_from(flips), label="byte") if flips else None

    def body(bus):
        # copies of the peer's parts: no view of a mapped frame outlives the bus
        peer = 1 - bus.worker_id
        return [(p[peer].dtype, p[peer].shape, p[peer].tobytes()) for p in bus.exchange(posted)]

    # worker 1 flips a byte of its frame; worker 0's arrives whole
    got = _pool(
        2, body, timeout=5.0, faults={1: _FlipByte(*flip)} if flip else None,
        transport=transport, capacity=capacity,
    )
    sent = [(a.dtype, a.shape, a.tobytes()) for a in posted]
    assert got[1] == sent
    if flip:
        assert isinstance(got[0], PayloadCorruption), got[0]
        assert (got[0].worker_id, got[0].last_seq) == (1, 1)
    else:  # nothing but empty arrays: nothing to flip, the frame verifies
        assert got[0] == sent
