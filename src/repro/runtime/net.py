"""TCP tensor transport for the multi-process runtime (the multi-host fabric).

Drop-in peer of :mod:`repro.runtime.shm` behind the same bus surface:
:class:`TcpBus` exposes ``exchange`` exactly like
:class:`~repro.runtime.shm.ShmBus` — a byte mover that knows no schedule
and hands back the workers' parts uncopied (here the receive buffers) —
so the grid's worker-crossing Z-axis communicator, the epoch barrier
(``VirtualCluster.barrier``), and every collective call site work
unchanged, and results over loopback are bitwise identical to shm and
inproc.

Wire protocol — small, inspectable, and fail-fast:

* **Frames** (:mod:`repro.runtime.frame`, as on shm) are length-prefixed:
  a fixed header (magic, kind, array count, sequence number, word sum,
  payload bytes), the record table and the raw array bytes.  A record
  table whose arrays do not add up to the payload bytes is
  :class:`~repro.errors.RendezvousDesync` before anything is allocated —
  a stream has no slot to bound a record by.  Sends go straight from the
  operand's ``memoryview`` (no pickling, no staging copy); receives land
  via ``recv_into`` directly in the destination ``np.empty`` buffer.  The
  frame check runs once both frames of a pair are through, so a desynced
  pair fails typed at both ends.
* **The mesh** is wired once, within :data:`POOL_FORMATION_S`: each worker
  dials every lower rank and accepts every higher rank, and both ends of
  a connection prove the session key (an HMAC of the worker id) before it
  joins the mesh.  The listener closes once the mesh is wired.
* **Exchange** is one phase per peer pair: the lower rank sends its DATA
  frame and then receives, the higher rank receives and then sends, and
  every worker takes its pairs in ascending peer order — the one global
  ``(max_rank, min_rank)`` order, which makes the schedule deadlock-free
  for frames of any size.  TCP's ordered stream plus the per-frame
  sequence number is the same seq-desync detector as shm: a frame from
  the wrong exchange, or of the wrong kind, raises
  :class:`~repro.errors.RendezvousDesync`.
* **One deadline, one recovery path**: a bus exchange waits at most the
  launcher's ``timeout`` for its peers, and every socket wait inside it is
  bounded by what is left of that budget.  An expired deadline and a lost
  connection (EOF, reset, a closed socket) alike raise
  :class:`~repro.errors.BarrierTimeout` carrying the peer id and the frame
  sequence number; the transport never reconnects.  The pool fails, and
  :func:`~repro.runtime.checkpoint.train_to` replays from the last
  epoch-boundary checkpoint — the same path as a dead worker.
* **Fault injection**: the :class:`~repro.runtime.faults.FaultPlan`
  network action ``drop_conn`` closes every peer socket of this endpoint,
  and ``corrupt`` (:meth:`TcpBus.corrupt_own_payload`) flips a byte of the
  exchange's outgoing payloads, so each receiver's checksum trips.

Liveness beyond the data plane rides the *control* connection (the
rendezvous channel of :mod:`repro.runtime.rendezvous`): per-epoch
heartbeats flow launcher-ward there, so a worker no peer waits on at the
bus is still declared wedged by the launcher once it stays silent for
2 x ``timeout``.
"""

from __future__ import annotations

import hmac
import math
import socket
import struct
import time
from contextlib import contextmanager

import numpy as np

from repro.errors import BarrierTimeout, CollectiveMisuse
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics
from repro.runtime import frame

__all__ = ["POOL_FORMATION_S", "TcpBus", "peer_listener"]

_MAGIC = b"PXF1"
_HDR = struct.Struct("<4sBBxxQQQ")  # magic, kind, count, seq, word sum, payload bytes
_HELLO = struct.Struct("<32sI")  # auth digest, worker id
K_DATA, K_HELLO = 1, 2

#: deadline for forming a pool: every worker dialed in, the mesh wired
POOL_FORMATION_S = 60.0


def _left(deadline: float) -> float:
    """Seconds left before ``deadline``: a socket wait's timeout."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError
    return left


def _auth_token(key: bytes, session: str, worker: int) -> bytes:
    return hmac.new(key, f"{session}:peer:{worker}".encode(), "sha256").digest()


def peer_listener(n_peers: int) -> socket.socket:
    """A fresh ephemeral-port listen socket for one worker's peer plane
    (created *before* the rendezvous hello so the port can be advertised)."""
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    s.bind(("", 0))
    s.listen(max(4, n_peers))
    return s


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def _recv_exact(sock: socket.socket, view: memoryview, deadline: float) -> None:
    """Fill ``view`` from the socket by ``deadline``; EOF mid-frame is a
    lost connection."""
    while len(view):
        sock.settimeout(_left(deadline))
        n = sock.recv_into(view)
        if n == 0:
            raise ConnectionError("the peer closed the connection")
        view = view[n:]


def _send_all(sock: socket.socket, data, deadline: float) -> None:
    sock.settimeout(_left(deadline))
    sock.sendall(data)


def _send_data(
    sock: socket.socket, seq: int, arrays: list[np.ndarray], deadline: float,
    corrupt: tuple[int, int] | None = None,
) -> None:
    """One DATA frame: header + record table + raw array bytes off the
    operands' memoryviews.  ``corrupt = (array, byte)`` sends that byte
    flipped while the word sum still describes the original (the
    ``corrupt`` fault action)."""
    head = bytearray(_HDR.size + frame.RECORD.size * len(arrays))
    frame.write_table(arrays, head, _HDR.size)
    check = sum(frame.word_sum(a, 0, a.nbytes) for a in arrays)
    nbytes = sum(a.nbytes for a in arrays)
    _HDR.pack_into(head, 0, _MAGIC, K_DATA, len(arrays), seq, check % 2**64, nbytes)
    _send_all(sock, head, deadline)
    for i, a in enumerate(arrays):
        buf = memoryview(a).cast("B")
        if corrupt is not None and i == corrupt[0]:
            bad = bytearray(buf)
            bad[corrupt[1]] ^= 0xFF
            buf = memoryview(bad)
        _send_all(sock, buf, deadline)
    if _trace.enabled:
        _metrics.count("frames_sent")
        _metrics.count("bytes_sent", len(head) + nbytes)


def _recv_data(
    sock: socket.socket, peer: int, seq: int, deadline: float
) -> tuple[list[np.ndarray], int, int]:
    """Read exchange ``seq``'s DATA frame from ``peer`` into fresh buffers:
    its arrays, the posted word sum and the sum of the bytes read."""
    head = bytearray(_HDR.size)
    _recv_exact(sock, memoryview(head), deadline)
    magic, kind, count, got_seq, posted, nbytes = _HDR.unpack(head)
    if magic != _MAGIC or kind != K_DATA or got_seq != seq:
        raise frame.desync(peer, seq, f"sent a frame of kind {kind}, seq {got_seq} (magic {magic!r})")
    table = bytearray(frame.RECORD.size * count)
    _recv_exact(sock, memoryview(table), deadline)
    records = frame.read_table(table, 0, count, peer, seq)
    claimed = sum(dtype.itemsize * math.prod(shape) for dtype, shape in records)
    if claimed != nbytes:
        raise frame.desync(peer, seq, f"posted records of {claimed} bytes in a frame of {nbytes}")
    arrays, read = [], 0
    for dtype, shape in records:
        a = np.empty(shape, dtype=dtype)
        _recv_exact(sock, memoryview(a).cast("B"), deadline)
        read += frame.word_sum(a, 0, a.nbytes)
        arrays.append(a)
    return arrays, posted, read


def _send_hello(sock: socket.socket, key: bytes, session: str, me: int, deadline: float) -> None:
    _send_all(
        sock,
        _HDR.pack(_MAGIC, K_HELLO, 0, 0, 0, 0) + _HELLO.pack(_auth_token(key, session, me), me),
        deadline,
    )


def _recv_hello(sock: socket.socket, key: bytes, session: str, deadline: float) -> int:
    """The authenticated worker id of the peer's HELLO."""
    frame = bytearray(_HDR.size + _HELLO.size)
    _recv_exact(sock, memoryview(frame), deadline)
    magic, kind, *_ = _HDR.unpack_from(frame)
    if magic != _MAGIC or kind != K_HELLO:
        raise ConnectionError("peer handshake: not a HELLO frame")
    digest, wid = _HELLO.unpack_from(frame, _HDR.size)
    if not hmac.compare_digest(digest, _auth_token(key, session, wid)):
        raise ConnectionError(f"peer handshake: bad auth token for claimed worker {wid}")
    return wid


# ---------------------------------------------------------------------------
# the bus
# ---------------------------------------------------------------------------


class TcpBus:
    """One worker's endpoint of the TCP mesh (the :class:`ShmBus` drop-in).

    Constructed from the rendezvous manifest: the worker's own listen
    socket (opened before the hello so its port could be advertised) plus
    every peer's ``(host, port)``.  Construction wires the full mesh —
    dialing every lower rank, accepting every higher rank — within
    :data:`POOL_FORMATION_S`, and :meth:`exchange` then runs the one-phase
    pair rendezvous with each peer within ``timeout`` seconds, returning,
    per posted slot, the workers' arrays in worker (= rank) order, bitwise
    identical to the shared-memory bus.
    """

    def __init__(
        self,
        listener: socket.socket,
        manifest: dict[int, tuple[str, int]],
        worker_id: int,
        session: str,
        key: bytes,
        timeout: float,
        faults=None,
    ) -> None:
        self.worker_id = worker_id
        self.timeout = timeout
        self.faults = faults
        self._seq = 0
        self._closed = False
        self._corrupt_next: tuple[int, int] | None = None
        self._socks: dict[int, socket.socket] = {}
        deadline = time.monotonic() + POOL_FORMATION_S
        budget = f"the {POOL_FORMATION_S:g}s pool formation deadline"
        try:
            # every lower rank's listener predates the manifest: dial it
            for peer in sorted(p for p in manifest if p < worker_id):
                with self._rendezvous(peer, budget):
                    sock = socket.create_connection(tuple(manifest[peer]), timeout=_left(deadline))
                    self._socks[peer] = sock
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    _send_hello(sock, key, session, worker_id, deadline)
                    if _recv_hello(sock, key, session, deadline) != peer:
                        raise ConnectionError("its listener answered as another worker")
            # then accept every higher rank; a stranger is dropped
            want = {p for p in manifest if p > worker_id}
            while want:
                with self._rendezvous(min(want), budget):
                    listener.settimeout(_left(deadline))
                    sock, _ = listener.accept()
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    peer = _recv_hello(sock, key, session, deadline)
                    if peer not in want:
                        raise ConnectionError(f"unexpected HELLO from worker {peer}")
                    _send_hello(sock, key, session, worker_id, deadline)
                except OSError:
                    sock.close()
                    continue
                self._socks[peer] = sock
                want.discard(peer)
        except BaseException:
            self.close()
            raise
        finally:
            listener.close()

    @contextmanager
    def _rendezvous(self, peer: int, budget: str):
        """Raise a socket failure with ``peer`` as the typed error that
        names it and the frame seq: :class:`~repro.errors.BarrierTimeout`,
        whether ``budget`` expired or the connection was lost."""
        try:
            yield
        except OSError as err:
            why = f"{budget} expired" if isinstance(err, TimeoutError) else f"connection lost ({err})"
            raise BarrierTimeout(
                f"tcp rendezvous with worker {peer} failed at frame seq {self._seq}: "
                f"{why} (worker {self.worker_id})",
                worker_id=peer,
                last_seq=self._seq,
            ) from None

    # -- rendezvous ------------------------------------------------------------
    def exchange(self, arrays: list[np.ndarray]) -> list[tuple[np.ndarray, ...]]:
        """Rendezvous with every peer; returns, per posted slot, the workers'
        arrays in worker (= rank) order — the peers' as received (private
        buffers: unlike shm's mapped views they outlive the next exchange)."""
        if self._closed:
            raise CollectiveMisuse("the tcp bus endpoint is closed")
        arrays = [np.ascontiguousarray(a) for a in arrays]
        self._seq += 1
        seq = self._seq
        if self.faults is not None:
            self.faults.fire("pre_barrier", self)
        corrupt, self._corrupt_next = self._corrupt_next, None
        deadline = time.monotonic() + self.timeout
        per_worker: dict[int, list[np.ndarray]] = {self.worker_id: arrays}
        # pairs in ascending peer order == the global (max, min) pair order
        # shared by every worker: the deadlock-freedom invariant
        budget = f"the exchange's {self.timeout:g}s deadline"
        with _trace.span("tcp.exchange", seq=seq):
            for peer, sock in sorted(self._socks.items()):
                with self._rendezvous(peer, budget):
                    if self.worker_id < peer:
                        _send_data(sock, seq, arrays, deadline, corrupt)
                    got, posted, read = _recv_data(sock, peer, seq, deadline)
                    if self.worker_id > peer:
                        _send_data(sock, seq, arrays, deadline, corrupt)
                # checked once both frames are through: a desync fails both ends
                frame.check(peer, seq, "tcp", len(got), len(arrays), posted, read)
                per_worker[peer] = got
        if self.faults is not None:
            self.faults.fire("mid_collective", self)
            self.faults.exchange_done()
        return list(zip(*(per_worker[w] for w in sorted(per_worker))))

    # -- fault hooks -----------------------------------------------------------
    def corrupt_own_payload(self, array: int = 0, byte: int = 0) -> None:
        """Flip byte ``byte`` of array ``array`` of this exchange's outgoing
        frames (the ``corrupt`` fault action)."""
        self._corrupt_next = (array, byte)

    def inject_network_fault(self) -> None:
        """The ``drop_conn`` fault action: close every peer socket."""
        for sock in self._socks.values():
            sock.close()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release every socket of this endpoint (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for sock in self._socks.values():
            sock.close()
