"""TCP tensor transport for the multi-process runtime (the multi-host fabric).

Drop-in peer of :mod:`repro.runtime.shm` behind the same bus surface:
:class:`TcpBus` exposes ``exchange`` exactly like
:class:`~repro.runtime.shm.ShmBus` — a byte mover that knows no schedule
and hands back the workers' parts uncopied (here the receive buffers) —
so the grid's worker-crossing Z-axis communicator, the epoch barrier
(``VirtualCluster.barrier``), and every collective call site work
unchanged, and results
over loopback are bitwise identical to shm and inproc.

Wire protocol — small, inspectable, and hardened:

* **Frames** are length-prefixed by construction: a fixed header (magic,
  kind, array count, sequence number, CRC32) followed by per-array dtype/
  shape records and the raw array bytes.  Sends go straight from the
  operand's ``memoryview`` (no pickling, no staging copy); receives land
  via ``recv_into`` directly in the destination ``np.empty`` buffer.
  Every DATA frame carries a CRC32 over its payload, verified on receipt —
  a corrupted frame raises :class:`~repro.errors.PayloadCorruption` naming
  the sender instead of propagating garbage numerics.
* **Exchange** is a two-phase rendezvous per peer pair (shm needs only
  one phase: its double-buffered mailboxes make slot reuse safe without a
  receipt): for each pair the lower rank sends DATA then receives, then
  ACKs flow both ways — phase A (every peer's payload arrived) and phase B
  (every peer confirmed receipt, so both sides may advance) — with pairs
  processed in a single global order (sorted by ``(max_rank, min_rank)``),
  which makes the schedule deadlock-free.  The per-frame sequence number
  is the same seq-desync detector as shm: a frame from the wrong exchange
  raises :class:`~repro.errors.RendezvousDesync`.
* **Deadlines everywhere**: every socket operation runs under
  ``TcpConfig.io_timeout`` and every exchange under
  ``TcpConfig.exchange_timeout``; expiry surfaces as a typed
  :class:`~repro.errors.BarrierTimeout` carrying the peer id and the frame
  sequence number — never a silent hang.
* **Reconnect**: ``ECONNRESET`` / ``EPIPE`` / partial reads trigger
  bounded reconnection with exponential backoff plus jitter (the original
  dialer redials; the acceptor re-accepts).  The reconnect handshake
  exchanges a tiny SYNC record (current seq, which frames each side
  already holds), so the pair exchange resumes mid-epoch from the frame
  sequence number — each side re-sends only what the other is missing,
  and a peer that has already advanced past our seq proves our frames
  arrived.  The ACK phase guarantees neither side ever moves on while the
  peer might still need a frame, so no send cache is required.
* **Fault injection**: the :class:`~repro.runtime.faults.FaultPlan`
  network actions arm this transport directly — ``drop_conn`` severs every
  peer socket (exercising reconnect/resume) and ``partition`` makes every
  peer unreachable until the retry budget surfaces a typed error — and
  ``corrupt`` (:meth:`TcpBus.corrupt_own_payload`) flips a byte of the
  exchange's outgoing payloads, so each receiver's CRC trips.

Liveness beyond the data plane rides the *control* connection (the
rendezvous channel of :mod:`repro.runtime.rendezvous`): per-epoch
heartbeats flow launcher-ward there, so a wedged or partitioned worker is
detected by heartbeat staleness in seconds even when no data-plane
deadline is currently running.
"""

from __future__ import annotations

import hmac
import random
import socket
import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import BarrierTimeout, CollectiveMisuse, PayloadCorruption, RendezvousDesync
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics

__all__ = ["TcpConfig", "TcpBus", "peer_listener"]

_MAGIC = b"PXF1"
_HDR = struct.Struct("<4sBBxxQI")  # magic, kind, count, seq, crc32
_REC = struct.Struct("<16sQ6Q")  # dtype str, ndim, shape[6]
_HELLO = struct.Struct("<32sIQBB")  # auth digest, worker id, seq, have_data, have_ack
_MAX_NDIM = 6
K_DATA, K_ACK, K_HELLO = 1, 2, 3


@dataclass(frozen=True)
class TcpConfig:
    """Hardening knobs of the TCP fabric (picklable; shipped to workers).

    ``io_timeout`` bounds every single socket operation; ``exchange_timeout``
    bounds one whole bus exchange including reconnect attempts (it should
    stay well under the launcher's barrier ``timeout`` so a typed error
    wins the race against the generic deadline).  Reconnects back off
    exponentially from ``backoff_base`` up to ``backoff_max`` with
    ``jitter`` fractional randomization, at most ``max_retries`` times per
    exchange.
    """

    io_timeout: float = 30.0
    connect_timeout: float = 5.0
    exchange_timeout: float = 90.0
    rendezvous_timeout: float = 60.0
    max_retries: int = 5
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.25


class _ConnLost(Exception):
    """Internal: the peer connection dropped (reset/EOF/partial frame)."""


#: OS errors the reconnect path treats as a dropped connection
_RETRYABLE = (_ConnLost, ConnectionError, BrokenPipeError, OSError)


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


def _recv_exact(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the socket; EOF mid-frame is a lost connection."""
    while len(view):
        n = sock.recv_into(view)
        if n == 0:
            raise _ConnLost("peer closed the connection mid-frame")
        view = view[n:]


def _send_data(
    sock: socket.socket, seq: int, arrays: list[np.ndarray], corrupt: bool = False
) -> None:
    """One DATA frame: header + records + raw array bytes off the operands'
    memoryviews.  ``corrupt`` sends a copy of the first array with one byte
    flipped while the CRC still describes the original — every receiver's
    integrity check must trip (the ``corrupt`` fault action)."""
    if len(arrays) > 255:
        raise ValueError("at most 255 arrays per frame")
    crc = 0
    recs = []
    for a in arrays:
        if a.ndim > _MAX_NDIM:
            raise ValueError(f"at most {_MAX_NDIM} dimensions per array")
        crc = zlib.crc32(a, crc)
        shape = list(a.shape) + [0] * (_MAX_NDIM - a.ndim)
        recs.append(_REC.pack(a.dtype.str.encode(), a.ndim, *shape))
    head = _HDR.pack(_MAGIC, K_DATA, len(arrays), seq, crc) + b"".join(recs)
    sock.sendall(head)
    for i, a in enumerate(arrays):
        buf = memoryview(a).cast("B")
        if corrupt and i == 0 and len(buf):
            bad = bytearray(buf)
            bad[0] ^= 0xFF
            buf = memoryview(bad)
        sock.sendall(buf)
    if _trace.enabled:
        _metrics.count("frames_sent")
        _metrics.count("bytes_sent", len(head) + sum(a.nbytes for a in arrays))


def _send_control(sock: socket.socket, kind: int, seq: int) -> None:
    sock.sendall(_HDR.pack(_MAGIC, kind, 0, seq, 0))


def _recv_frame(sock: socket.socket, peer: int) -> tuple[int, int, list[np.ndarray]]:
    """Read one frame; returns ``(kind, seq, arrays)``.

    DATA payloads are received straight into freshly allocated destination
    buffers and CRC-verified; a mismatch raises
    :class:`~repro.errors.PayloadCorruption` naming the sending peer.
    """
    head = bytearray(_HDR.size)
    _recv_exact(sock, memoryview(head))
    magic, kind, count, seq, posted_crc = _HDR.unpack(bytes(head))
    if magic != _MAGIC:
        raise _ConnLost(f"bad frame magic {magic!r} from worker {peer}")
    if kind != K_DATA:
        return kind, seq, []
    recs = bytearray(_REC.size * count)
    _recv_exact(sock, memoryview(recs))
    arrays, crc = [], 0
    for i in range(count):
        dt_raw, ndim, *shape6 = _REC.unpack_from(recs, i * _REC.size)
        dtype = np.dtype(dt_raw.rstrip(b"\0").decode())
        a = np.empty(tuple(shape6[:ndim]), dtype=dtype)
        _recv_exact(sock, memoryview(a).cast("B"))
        crc = zlib.crc32(a, crc)
        arrays.append(a)
    if crc != posted_crc:
        if _trace.enabled:
            _trace.instant("crc_failure", worker=peer, seq=seq, transport="tcp")
            _metrics.count("crc_failures")
        raise PayloadCorruption(
            f"tcp frame from worker {peer} failed its CRC32 check (frame seq "
            f"{seq}: posted {posted_crc:#010x}, read {crc:#010x}) — the "
            "payload bytes were corrupted in flight",
            worker_id=peer,
            last_seq=seq,
        )
    if _trace.enabled:
        _metrics.count("frames_received")
    return kind, seq, arrays


def _send_hello(
    sock: socket.socket, key: bytes, session: str, me: int, sync: tuple[int, bool, bool]
) -> None:
    seq, have_data, have_ack = sync
    sock.sendall(
        _HDR.pack(_MAGIC, K_HELLO, 0, 0, 0)
        + _HELLO.pack(_auth_token(key, session, me), me, seq, have_data, have_ack)
    )


def _recv_hello(
    sock: socket.socket, key: bytes, session: str
) -> tuple[int, tuple[int, bool, bool]]:
    head = bytearray(_HDR.size)
    _recv_exact(sock, memoryview(head))
    magic, kind, _, _, _ = _HDR.unpack(bytes(head))
    if magic != _MAGIC or kind != K_HELLO:
        raise _ConnLost("peer handshake: not a HELLO frame")
    body = bytearray(_HELLO.size)
    _recv_exact(sock, memoryview(body))
    digest, wid, seq, have_data, have_ack = _HELLO.unpack(bytes(body))
    if not hmac.compare_digest(digest, _auth_token(key, session, wid)):
        raise _ConnLost(f"peer handshake: bad auth token for claimed worker {wid}")
    return wid, (seq, bool(have_data), bool(have_ack))


# ---------------------------------------------------------------------------
# one peer link
# ---------------------------------------------------------------------------


class _PeerLink:
    """One full-duplex connection of the mesh, with reconnect/resume.

    The higher rank of a pair is the *dialer* (it connects to the lower
    rank's listener and redials after a drop); the lower rank accepts, and
    re-accepts through the bus's shared accept pump.  All per-exchange
    state (what was sent/received this seq) lives here so a reconnect can
    resume exactly where the stream tore.
    """

    def __init__(self, bus: "TcpBus", peer: int, addr: tuple[str, int] | None) -> None:
        self.bus = bus
        self.peer = peer
        self.addr = addr  # None for accepted links (the peer dials us)
        self.dialer = bus.worker_id > peer
        self.sock: socket.socket | None = None
        self.adopted: tuple[socket.socket, tuple[int, bool, bool]] | None = None
        # current-exchange state
        self.seq = 0
        self._out: list[np.ndarray] = []
        self._in: list[np.ndarray] | None = None
        self._sent_data = self._got_data = False
        self._sent_ack = self._got_ack = False

    # -- state helpers ---------------------------------------------------------
    def sync_state(self) -> tuple[int, bool, bool]:
        return (self.seq, self._got_data, self._got_ack)

    def _apply_sync(self, peer_sync: tuple[int, bool, bool]) -> None:
        """Resume rules after a reconnect handshake (see module docstring)."""
        p_seq, p_have_data, p_have_ack = peer_sync
        if p_seq > self.seq:
            # the peer advanced past this exchange: it could only do so
            # after receiving our DATA and completing the ACK phase, and
            # symmetric ordering means we must already hold its DATA
            if not self._got_data:
                raise RendezvousDesync(
                    f"tcp reconnect: worker {self.peer} is at frame seq "
                    f"{p_seq}, past ours ({self.seq}), yet we never received "
                    "its payload — the SPMD collective order diverged",
                    worker_id=self.peer,
                    last_seq=self.seq,
                )
            self._sent_data = self._sent_ack = self._got_ack = True
        elif p_seq == self.seq:
            # re-send whatever the peer is missing for this exchange
            self._sent_data = p_have_data
            self._sent_ack = p_have_ack
        else:
            # the peer is behind: its old pair is implicitly complete (we
            # advanced), and it holds nothing of this exchange yet
            self._sent_data = self._sent_ack = False

    # -- connection management -------------------------------------------------
    def _tune(self, sock: socket.socket) -> None:
        sock.settimeout(self.bus.cfg.io_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        for s in (self.sock, self.adopted[0] if self.adopted else None):
            if s is not None:
                try:
                    s.close()
                except OSError:
                    pass
        self.sock = None
        self.adopted = None

    def connect(self, deadline: float) -> None:
        """Establish (or re-establish) the link, resuming per-exchange state."""
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None
        bus = self.bus
        if bus._partitioned:
            raise _ConnLost("injected network partition")
        if self.dialer:
            sock = socket.create_connection(
                self.addr, timeout=min(bus.cfg.connect_timeout, max(0.1, deadline - time.monotonic()))
            )
            self._tune(sock)
            try:
                _send_hello(sock, bus.key, bus.session, bus.worker_id, self.sync_state())
                _, peer_sync = _recv_hello(sock, bus.key, bus.session)
            except BaseException:
                sock.close()
                raise
            self.sock = sock
            self._apply_sync(peer_sync)
        else:
            if self.adopted is None:
                bus._pump_accept(deadline, want_peer=self.peer)
            sock, peer_sync = self.adopted  # type: ignore[misc]
            self.adopted = None
            self.sock = sock
            self._apply_sync(peer_sync)

    # -- the pair exchange -----------------------------------------------------
    def exchange(self, seq: int, arrays: list[np.ndarray], corrupt: bool = False) -> list[np.ndarray]:
        """Two-phase pair rendezvous for one bus exchange; returns the
        peer's arrays.  Retries across connection drops with exponential
        backoff + jitter, resuming from the frame sequence number."""
        cfg = self.bus.cfg
        self.seq = seq
        self._out = arrays
        self._in = None
        self._sent_data = self._got_data = False
        self._sent_ack = self._got_ack = False
        deadline = time.monotonic() + cfg.exchange_timeout
        attempts = 0
        while True:
            try:
                if self.sock is None:
                    with _trace.span("tcp.reconnect", peer=self.peer, seq=seq):
                        self.connect(deadline)
                self._run_steps(corrupt)
                return self._in  # type: ignore[return-value]
            except TimeoutError:
                self._raise_deadline("a socket deadline expired")
            except PayloadCorruption:
                raise
            except _RETRYABLE as err:
                attempts += 1
                if _trace.enabled:
                    _trace.instant("conn_lost", peer=self.peer, seq=seq,
                                   attempt=attempts, error=str(err))
                    _metrics.count("reconnects")
                if self.sock is not None:
                    try:
                        self.sock.close()
                    except OSError:
                        pass
                    self.sock = None
                if attempts > cfg.max_retries or time.monotonic() >= deadline:
                    self._raise_deadline(
                        f"connection lost and not recovered within "
                        f"{attempts - 1} reconnect attempt(s): {err}"
                    )
                delay = min(cfg.backoff_max, cfg.backoff_base * 2 ** (attempts - 1))
                with _trace.span("tcp.backoff", peer=self.peer, attempt=attempts):
                    time.sleep(delay * (1.0 + cfg.jitter * random.random()))

    def _raise_deadline(self, why: str):
        raise BarrierTimeout(
            f"tcp rendezvous with worker {self.peer} failed at frame seq "
            f"{self.seq}: {why} (worker {self.bus.worker_id})",
            worker_id=self.peer,
            last_seq=self.seq,
        )

    def _run_steps(self, corrupt: bool) -> None:
        """The ordered pair schedule; every step is skipped once satisfied,
        which is exactly what makes reconnect-resume possible."""
        first = self.bus.worker_id < self.peer
        if first:
            self._step_send_data(corrupt)
            self._step_recv(expect_data=True)
            self._step_send_ack()
            self._step_recv(expect_data=False)
        else:
            self._step_recv(expect_data=True)
            self._step_send_data(corrupt)
            self._step_recv(expect_data=False)
            self._step_send_ack()

    def _step_send_data(self, corrupt: bool) -> None:
        if self._sent_data:
            return
        if self.bus._partitioned:
            raise _ConnLost("injected network partition")
        _send_data(self.sock, self.seq, self._out, corrupt=corrupt)
        self._sent_data = True

    def _step_send_ack(self) -> None:
        if self._sent_ack:
            return
        _send_control(self.sock, K_ACK, self.seq)
        self._sent_ack = True

    def _step_recv(self, expect_data: bool) -> None:
        while (expect_data and not self._got_data) or (
            not expect_data and not self._got_ack
        ):
            if self.bus._partitioned:
                raise _ConnLost("injected network partition")
            kind, seq, arrays = _recv_frame(self.sock, self.peer)
            if seq != self.seq:
                raise RendezvousDesync(
                    f"tcp rendezvous out of sync: worker {self.peer} sent "
                    f"frame seq {seq}, expected {self.seq} — the SPMD "
                    "collective order diverged between workers",
                    worker_id=self.peer,
                    last_seq=self.seq,
                )
            if kind == K_DATA:
                # a duplicate after reconnect is benign: the acceptor's
                # handshake SYNC is captured at adoption time and can
                # under-report what later drained from the old socket's
                # buffer, making the peer re-send bytes we already hold
                self._in = arrays
                self._got_data = True
            elif kind == K_ACK:
                self._got_ack = True
            else:
                raise _ConnLost(f"unexpected frame kind {kind} from worker {self.peer}")


# ---------------------------------------------------------------------------
# the bus
# ---------------------------------------------------------------------------


class TcpBus:
    """One worker's endpoint of the TCP mesh (the :class:`ShmBus` drop-in).

    Constructed from the rendezvous manifest: the worker's own listen
    socket (opened before the hello so its port could be advertised) plus
    every peer's ``(host, port)``.  Construction wires the full mesh —
    dialing every lower rank, accepting every higher rank — and
    :meth:`exchange` then runs the two-phase pair rendezvous with each
    peer, returning, per posted slot, the workers' arrays in worker
    (= rank) order, bitwise identical to the shared-memory bus.
    """

    def __init__(
        self,
        listener: socket.socket,
        manifest: dict[int, tuple[str, int]],
        worker_id: int,
        session: str,
        key: bytes,
        cfg: TcpConfig | None = None,
        faults=None,
    ) -> None:
        self.worker_id = worker_id
        self.n_workers = len(manifest)
        self.session = session
        self.key = key
        self.cfg = cfg or TcpConfig()
        self.faults = faults
        self._listener = listener
        self._seq = 0
        self._closed = False
        self._partitioned = False
        self._corrupt_next = False
        self._links: dict[int, _PeerLink] = {}
        deadline = time.monotonic() + self.cfg.rendezvous_timeout
        try:
            for peer in sorted(manifest):
                if peer == worker_id:
                    continue
                addr = tuple(manifest[peer]) if peer < worker_id else None
                self._links[peer] = _PeerLink(self, peer, addr)
            # dial every lower rank (their listeners predate the manifest),
            # then pump accepts until every higher rank has dialed in
            for peer in sorted(p for p in self._links if p < worker_id):
                self._links[peer].connect(deadline)
            for peer in sorted(p for p in self._links if p > worker_id):
                self._links[peer].connect(deadline)
        except BaseException:
            self.close()
            raise

    # -- accept pump -----------------------------------------------------------
    def _pump_accept(self, deadline: float, want_peer: int) -> None:
        """Accept incoming peer (re)connections until ``want_peer`` has one.

        Connections from *other* peers arriving meanwhile (their end of a
        drop noticed first) are handshaken and parked on their link's
        ``adopted`` slot — the link swaps them in the next time its old
        socket errors.  Unauthenticated connections are dropped silently.
        """
        while True:
            link = self._links[want_peer]
            if link.adopted is not None:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._partitioned:
                raise _ConnLost(
                    f"no (re)connection from worker {want_peer} before the deadline"
                )
            self._listener.settimeout(min(1.0, remaining))
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError as e:
                raise _ConnLost(f"listener failed while awaiting worker {want_peer}: {e}")
            try:
                sock.settimeout(self.cfg.io_timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                wid, peer_sync = _recv_hello(sock, self.key, self.session)
                if wid not in self._links or wid == self.worker_id:
                    raise _ConnLost(f"handshake from unknown worker {wid}")
                peer_link = self._links[wid]
                _send_hello(sock, self.key, self.session, self.worker_id, peer_link.sync_state())
            except (TimeoutError, *_RETRYABLE):
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            if peer_link.adopted is not None:  # flapping peer: keep the newest
                try:
                    peer_link.adopted[0].close()
                except OSError:
                    pass
            peer_link.adopted = (sock, peer_sync)

    # -- rendezvous ------------------------------------------------------------
    def exchange(self, arrays: list[np.ndarray]) -> list[tuple[np.ndarray, ...]]:
        """Rendezvous with every peer; returns, per posted slot, the workers'
        arrays in worker (= rank) order — the peers' as received (private
        buffers: unlike shm's mapped views they outlive the next exchange)."""
        if self._closed:
            raise CollectiveMisuse("the tcp bus endpoint is closed")
        arrays = [np.ascontiguousarray(a) for a in arrays]
        self._seq += 1
        if self.faults is not None:
            self.faults.fire("pre_barrier", self)
        corrupt, self._corrupt_next = self._corrupt_next, False
        per_worker: dict[int, list[np.ndarray]] = {self.worker_id: arrays}
        # pairs in ascending peer order == the global (max, min) pair order
        # shared by every worker: the deadlock-freedom invariant
        with _trace.span("tcp.exchange", seq=self._seq):
            for peer in sorted(self._links):
                per_worker[peer] = self._links[peer].exchange(self._seq, arrays, corrupt=corrupt)
        if self.faults is not None:
            self.faults.fire("mid_collective", self)
        if self.faults is not None:
            self.faults.exchange_done()
        return list(zip(*(per_worker[w] for w in sorted(per_worker))))

    # -- fault hooks -----------------------------------------------------------
    def corrupt_own_payload(self) -> None:
        """Flip a byte of this exchange's outgoing payloads (the ``corrupt``
        fault action): every receiver's CRC check trips."""
        self._corrupt_next = True

    def inject_network_fault(self, plan) -> None:
        """Arm one :class:`~repro.runtime.faults.FaultPlan` network action."""
        if plan.action == "drop_conn":
            for link in self._links.values():
                link.close()
        else:  # "partition"
            self._partitioned = True

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release every socket of this endpoint (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for link in self._links.values():
            link.close()
        try:
            self._listener.close()
        except OSError:
            pass

    def unlink(self) -> None:  # the ShmBus surface: nothing persistent to unlink
        self.close()
