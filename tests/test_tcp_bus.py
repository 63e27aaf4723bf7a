"""The tcp bus on its own (no model, no launcher): three
:class:`~repro.runtime.net.TcpBus` endpoints in threads over loopback,
wired from their own :func:`~repro.runtime.net.peer_listener` sockets and a
hand-built manifest.

* **one phase per pair, deadlock-free** — back-to-back exchanges of frames
  larger than the sockets' buffers, each payload encoding ``(worker,
  seq)``: every worker gets exactly every peer's parts, in worker order.
  The lower rank of a pair sends first and the higher receives first, in
  one global pair order, so no pair can wait on a send the other side has
  not drained;
* **a lost connection is typed and fast** — ``drop_conn`` closes one
  worker's sockets: it and its peer raise
  :class:`~repro.errors.BarrierTimeout` naming each other at once, not
  after the exchange's deadline (the transport never reconnects; the
  pool's replay is ``checkpoint.train_to``'s);
* **formation is bounded** — a peer that never dials in is a
  ``BarrierTimeout`` naming it within :data:`~repro.runtime.net.POOL_FORMATION_S`;
* **one frame check on both buses** — a peer that posts another array
  count than ours is :class:`~repro.errors.RendezvousDesync` on both
  endpoints of the pair, over tcp as over shm (:func:`_pool` runs shm
  endpoints in threads too);
* **a record is bounded by its frame** — a record claiming more bytes than
  the frame's header carries is a desync before its receiver allocates.
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import BarrierTimeout, RendezvousDesync
from repro.runtime import frame, net
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.net import TcpBus
from repro.runtime.shm import BusHandle, ShmBus, new_session_id

KEY = b"k" * 32
BODY = 1 << 17  # float64 elements: a 1 MiB frame
#: the socket buffers the deadlock test pins (the kernel doubles it), far
#: below a frame: every send of a pair blocks until the peer reads
SOCK_BUF = 1 << 16


def _payload(worker: int, seq: int) -> list[np.ndarray]:
    tag = np.array([worker, seq], dtype=np.int64)
    return [tag, np.full(BODY, worker * 1_000 + seq, dtype=np.float64)]


def _pool(
    n: int, body, timeout: float = 30.0, faults: dict | None = None, start=None,
    transport: str = "tcp", capacity: int = 1 << 16,
) -> list:
    """Run ``body(bus)`` on ``n`` endpoints of ``transport`` in threads
    (``start``: which workers build one; default all; ``capacity``: a shm
    mailbox slot's bytes); returns each worker's result or exception.  Like
    a worker process, a thread closes its endpoint on the way out."""
    if transport == "shm":
        handle = BusHandle(new_session_id(), n, capacity, timeout)
        launcher = ShmBus(handle)
        listeners = []

        def open_bus(w: int, f) -> ShmBus:
            return ShmBus(handle, worker_id=w, faults=f)
    else:
        listeners = [net.peer_listener(n) for _ in range(n)]
        manifest = {w: ("127.0.0.1", s.getsockname()[1]) for w, s in enumerate(listeners)}

        def open_bus(w: int, f) -> TcpBus:
            return TcpBus(listeners[w], manifest, w, "sess", KEY, timeout, faults=f)
    results: list = [None] * n

    def run(w: int) -> None:
        bus = None
        try:
            bus = open_bus(w, (faults or {}).get(w))
            results[w] = body(bus)
        except Exception as exc:
            results[w] = exc
        finally:
            if bus is not None:
                bus.close()

    threads = [threading.Thread(target=run, args=(w,), daemon=True)
               for w in (range(n) if start is None else start)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(2 * timeout)
        assert not any(t.is_alive() for t in threads), f"a {transport} endpoint deadlocked"
    finally:
        for s in listeners:
            s.close()
        if transport == "shm":
            launcher.unlink()
            assert not list(Path("/dev/shm").glob(handle.session + "*")), "a segment outlived the pool"
    return results


def test_exchanges_of_frames_past_the_socket_buffers_arrive_whole_at_w3():
    exchanges = 20

    def body(bus: TcpBus):
        for sock in bus._socks.values():
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SOCK_BUF)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SOCK_BUF)
        for seq in range(1, exchanges + 1):
            tags, bodies = bus.exchange(_payload(bus.worker_id, seq))
            for w in range(3):
                assert tags[w].tolist() == [w, seq]
                assert bodies[w].shape == (BODY,) and (bodies[w] == w * 1_000 + seq).all()
        return max(
            sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            + sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            for sock in bus._socks.values()
        )

    # a short deadline: a schedule that deadlocks fails in seconds
    buffered = _pool(3, body, timeout=10.0)
    for got in buffered:
        assert isinstance(got, int), got
        assert got < 8 * BODY  # what a pair can hold in flight < one frame


def test_a_dropped_connection_is_a_barrier_timeout_naming_the_peer():
    plan = FaultPlan(worker=1, point="pre_barrier", action="drop_conn", epoch=0, exchange=1)
    t0 = time.monotonic()

    def body(bus: TcpBus):
        for seq in range(1, 4):
            bus.exchange(_payload(bus.worker_id, seq))
        return "finished"

    got = _pool(3, body, timeout=30.0, faults={1: FaultInjector([plan])})
    assert time.monotonic() - t0 < 10, "a lost connection waited for the deadline"
    assert all(isinstance(e, BarrierTimeout) for e in got), got
    assert (got[0].worker_id, got[1].worker_id) == (1, 0)
    for e in got:
        assert e.last_seq == 2 and "connection lost" in str(e)


def test_a_peer_that_never_dials_in_fails_formation_naming_it(monkeypatch):
    monkeypatch.setattr(net, "POOL_FORMATION_S", 0.5)
    t0 = time.monotonic()
    (got, _) = _pool(2, lambda bus: "formed", start=[0])
    assert time.monotonic() - t0 < 5
    assert isinstance(got, BarrierTimeout), got
    assert got.worker_id == 1 and "pool formation deadline expired" in str(got)


@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_an_array_count_mismatch_is_a_desync_on_both_ends(transport):
    """Worker 0 posts two arrays, worker 1 one: each reads the other's frame
    whole, and both raise the typed desync naming the other."""

    def body(bus):
        bus.exchange(_payload(bus.worker_id, 1)[: 2 - bus.worker_id])
        return "exchanged"

    got = _pool(2, body, timeout=10.0, transport=transport)
    assert all(isinstance(e, RendezvousDesync) for e in got), got
    assert [(e.worker_id, e.last_seq) for e in got] == [(1, 1), (0, 1)]
    assert "posted 1 arrays, expected 2" in str(got[0])
    assert "posted 2 arrays, expected 1" in str(got[1])


def test_a_record_claiming_more_than_its_frame_is_a_desync(monkeypatch):
    """Worker 0's first record claims 2**40 float64 (8 TiB) in a frame of
    about 1 MiB: worker 1 raises the typed desync naming it at once, and
    allocates nothing for the claim."""
    write_table = frame.write_table

    def rewrite(arrays, buf, offset=0):
        write_table(arrays, buf, offset)
        if arrays[0][0] == 0:  # worker 0's tag array
            frame.RECORD.pack_into(buf, offset, b"<f8", 1, 2**40, *[0] * (frame.MAX_NDIM - 1))

    monkeypatch.setattr(frame, "write_table", rewrite)
    t0 = time.monotonic()
    got = _pool(2, lambda bus: bus.exchange(_payload(bus.worker_id, 1)), timeout=10.0)
    assert time.monotonic() - t0 < 5, "the peer waited out the deadline"
    assert isinstance(got[1], RendezvousDesync), got
    assert (got[1].worker_id, got[1].last_seq) == (0, 1)
    assert f"posted records of {(8 << 40) + 8 * BODY} bytes in a frame of {16 + 8 * BODY}" in str(got[1])
    assert isinstance(got[0], BarrierTimeout) and got[0].worker_id == 1
