"""Rendezvous and launcher protocol: the control plane of every pool.

How a pool forms, on both transports (shm and tcp; a multi-host pool is
tcp):

1. The launcher opens one :class:`RendezvousListener` (``--rendezvous
   host:port``; port 0 picks an ephemeral port) for as long as the pool
   forms.  Its session id also names a shm pool's segments.  The session
   key is the deployment's ``$PLEXUS_AUTHKEY`` (hex) when set, else a
   random one; a pool with remote slots needs the former and an explicit
   port, because a second launcher (``repro host --rendezvous
   host:port``, on any machine) dials that address with that key — like
   ``torchrun``'s master address.  A respawned pool listens at the same
   address again.
2. Every worker dials the rendezvous, authenticates (the stdlib
   ``multiprocessing`` HMAC challenge — both directions), and sends a
   hello.  A tcp worker opens its own peer-plane listen socket first and
   advertises where peers can reach it; a shm worker's hello carries no
   address (its bus is the session's shared memory).  The challenge and
   the hello are read under the formation deadline, so a dialer that
   connects and stays silent is dropped when the deadline passes.
3. Once all ``n`` workers are in, the launcher assigns worker ids and
   sends each a **signed membership manifest** — canonical JSON over the
   session id and every tcp worker's ``(host, port)``, HMAC-SHA256-signed
   with the session key — so a worker connects only to peers the launcher
   actually admitted (a tampered or replayed manifest fails verification
   with a typed error).
4. tcp workers peer-connect into the :class:`~repro.runtime.net.TcpBus`
   mesh, shm workers attach the :class:`~repro.runtime.shm.ShmBus`; the
   rendezvous connection stays open as the *control plane*: the workload
   spec, the command loop, per-epoch heartbeats, and error reports all
   ride it (a ``multiprocessing.connection.Connection``, which the
   launcher's pump waits on), and its EOF is how the launcher learns a
   worker is gone.  Both ends set ``TCP_NODELAY``: a command and its small
   reply go out at once, not after a delayed ACK.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import struct
import time
from multiprocessing.connection import Connection, answer_challenge, deliver_challenge

from repro.errors import BarrierTimeout, PlexusRuntimeError, RendezvousDesync
from repro.obs import trace as _trace
from repro.runtime.shm import new_session_id

__all__ = [
    "RendezvousListener",
    "connect_rendezvous",
    "signed_manifest",
    "verify_manifest",
    "parse_address",
    "env_authkey",
    "resolve_rendezvous",
]


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` as ``(host, port)``; an empty host is loopback."""
    host, _, port = address.rpartition(":")
    return host or "127.0.0.1", int(port)


def env_authkey() -> bytes | None:
    """The deployment's session key, ``$PLEXUS_AUTHKEY`` (hex); ``None``
    when it is unset or empty."""
    key_hex = os.environ.get("PLEXUS_AUTHKEY", "")
    try:
        return bytes.fromhex(key_hex) if key_hex else None
    except ValueError:
        raise ValueError("$PLEXUS_AUTHKEY must be a hex string") from None


def resolve_rendezvous(rendezvous: str) -> tuple[str, int, bytes]:
    """A ``repro host`` rendezvous argument, ``host:port``, and the key to
    dial it with: ``(host, port, key)``."""
    host, port = parse_address(rendezvous)
    key = env_authkey()
    if key is None or port == 0:
        raise ValueError(
            "--rendezvous needs the launcher's host:port (a non-zero port) "
            "and its session key in $PLEXUS_AUTHKEY (hex)"
        )
    return host, port, key


# ---------------------------------------------------------------------------
# the signed membership manifest
# ---------------------------------------------------------------------------


def signed_manifest(
    authkey: bytes, session: str, peers: dict[int, tuple[str, int]]
) -> tuple[bytes, bytes]:
    """Canonical manifest bytes + their HMAC-SHA256 signature."""
    blob = json.dumps(
        {"session": session, "peers": {str(w): list(a) for w, a in sorted(peers.items())}},
        sort_keys=True,
    ).encode()
    return blob, hmac.new(authkey, blob, "sha256").digest()


def verify_manifest(authkey: bytes, blob: bytes, sig: bytes) -> dict:
    """Check the signature and parse; a bad signature is a typed refusal."""
    if not hmac.compare_digest(hmac.new(authkey, blob, "sha256").digest(), sig):
        raise RendezvousDesync(
            "membership manifest signature check failed: the manifest was "
            "not signed with this session's auth key (tampered, replayed, "
            "or from a different session) — refusing to peer-connect"
        )
    return json.loads(blob)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def _as_connection(sock: socket.socket) -> Connection:
    """Wrap an OS socket as a ``multiprocessing`` Connection (which then
    owns the fd): pickled messages, on an object the launcher's
    ``multiprocessing.connection.wait`` pump can wait on."""
    fd = sock.detach()
    return Connection(fd)


def _read_deadline(conn: Connection, deadline: float | None) -> None:
    """Bound each blocking read on ``conn`` by the time left until
    ``deadline`` (``time.monotonic()``; a read past it raises ``OSError``);
    ``None`` lifts the bound."""
    left = 0.0 if deadline is None else max(deadline - time.monotonic(), 1e-3)
    timeval = struct.pack("ll", int(left), int(left % 1 * 1e6))
    with socket.fromfd(conn.fileno(), socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)


def connect_rendezvous(
    host: str, port: int, authkey: bytes, timeout: float = 20.0
) -> tuple[Connection, str]:
    """Dial a rendezvous and mutually authenticate; returns the control
    connection plus the local address the dial used (the address this
    worker should advertise its peer listener under)."""
    deadline = time.monotonic() + timeout
    last_err: Exception | None = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError as err:  # launcher not listening yet: keep dialing
            last_err = err
            time.sleep(0.05)
            continue
        local_host = sock.getsockname()[0]
        sock.settimeout(None)  # Connection I/O is blocking
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _as_connection(sock)
        try:
            answer_challenge(conn, authkey)
            deliver_challenge(conn, authkey)
        except Exception as err:
            conn.close()
            raise PlexusRuntimeError(
                f"rendezvous authentication with {host}:{port} failed: {err}"
            ) from None
        return conn, local_host
    raise BarrierTimeout(
        f"could not reach the rendezvous at {host}:{port} within {timeout:.0f}s: "
        f"{last_err}"
    )


class RendezvousListener:
    """The launcher's rendezvous endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        authkey: bytes,
        session: str | None = None,
    ) -> None:
        self.session = session or new_session_id()
        self.authkey = authkey
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = False

    def accept(self, deadline: float, idle=None) -> Connection:
        """One authenticated control connection (or typed timeout).

        ``idle()`` runs every 0.2 s no worker dials in; whatever it raises
        ends the wait (the launcher's check for a dead local worker).  The
        challenge is read under ``deadline``, and reads on the returned
        connection stay bounded by it until :func:`_read_deadline` lifts
        the bound: a dialer that connects and sends nothing cannot hold
        the wait past it.
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BarrierTimeout(
                    f"rendezvous {self.host}:{self.port}: not every worker "
                    "dialed in before the deadline"
                )
            self._sock.settimeout(min(0.2, remaining))
            try:
                sock, _ = self._sock.accept()
            except TimeoutError:
                if idle is not None:
                    idle()
                continue
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _as_connection(sock)
            try:
                _read_deadline(conn, deadline)
                deliver_challenge(conn, self.authkey)
                answer_challenge(conn, self.authkey)
            except Exception:  # unauthenticated dialer: drop, keep listening
                conn.close()
                continue
            return conn

    def gather(self, n_workers: int, timeout: float, idle=None) -> dict[int, Connection]:
        """Admit ``n_workers`` workers, assign ids, send signed manifests.

        A worker's hello may carry a preferred id (launcher-spawned locals
        pin their slice index); remote workers take the lowest free id in
        arrival order.  A hello without a peer address (a shm worker: its
        bus is the session's shared memory) leaves that worker out of the
        manifest's peers.  A dialer whose hello has not arrived by the
        deadline is dropped.  Each hello is traced as a ``launcher.hello``
        instant at its arrival.  ``idle`` is :meth:`accept`'s; on any error
        the connections admitted so far are closed.  Returns the control
        connections keyed by worker id.
        """
        deadline = time.monotonic() + timeout
        hellos: list[tuple[Connection, int | None, tuple[str, int] | None, int]] = []
        try:
            while len(hellos) < n_workers:
                conn = self.accept(deadline, idle)
                try:
                    kind, preferred, addr = conn.recv()
                    if kind != "hello":
                        raise ValueError(kind)
                except (EOFError, ValueError, OSError):
                    conn.close()
                    continue
                _read_deadline(conn, None)  # the control plane reads block
                if addr is not None:
                    addr = (str(addr[0]), int(addr[1]))
                hellos.append((conn, preferred, addr, time.monotonic_ns()))
            conns: dict[int, Connection] = {}
            peers: dict[int, tuple[str, int]] = {}
            taken = {p for _, p, _, _ in hellos if p is not None}
            free = iter(w for w in range(n_workers) if w not in taken)
            for conn, preferred, addr, t_ns in hellos:
                wid = preferred if preferred is not None else next(free)
                if wid in conns or not 0 <= wid < n_workers:
                    raise RendezvousDesync(
                        f"rendezvous: conflicting or out-of-range worker id {wid} "
                        f"claimed (pool size {n_workers})"
                    )
                conns[wid] = conn
                if addr is not None:
                    peers[wid] = addr
                if _trace.enabled:
                    _trace.emit("i", "launcher.hello", {"worker": wid}, t_ns)
            blob, sig = signed_manifest(self.authkey, self.session, peers)
            for wid, conn in conns.items():
                conn.send(("welcome", wid, blob, sig))
        except BaseException:
            for conn, *_ in hellos:
                conn.close()
            raise
        return conns

    def close(self) -> None:
        """Stop listening (idempotent); admitted connections stay open."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
