"""Rendezvous and launcher protocol: the control plane of every pool.

How a pool forms, on both transports (shm and tcp; a multi-host pool is
tcp):

1. The launcher opens one :class:`RendezvousListener` (``--rendezvous
   host:port``; port 0 picks an ephemeral port).  Its session id also
   names a shm pool's segments.  With remote slots to fill it drops a
   *port file* in the temp directory — session-named, launcher pid
   embedded — holding the address and the session auth key, so a second
   launcher on the same machine (``repro host --rendezvous auto``) can
   discover and join it without copying flags.
2. Every worker dials the rendezvous, authenticates (the stdlib
   ``multiprocessing`` HMAC challenge — both directions), and sends a
   hello.  A tcp worker opens its own peer-plane listen socket first and
   advertises where peers can reach it; a shm worker's hello carries no
   address (its bus is the session's shared memory).
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

Port files are swept by :func:`cleanup_stale_rendezvous` —
pid-liveness-aware exactly like the shm segment sweep, and wired into
:func:`~repro.runtime.shm.cleanup_orphans` so one call cleans both kinds
of leftover state from a killed launcher.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import tempfile
import time
from multiprocessing.connection import Connection, answer_challenge, deliver_challenge
from pathlib import Path

from repro.errors import BarrierTimeout, PlexusRuntimeError, RendezvousDesync
from repro.obs import trace as _trace
from repro.runtime.shm import SHM_PREFIX, _owner_pid, _pid_alive, new_session_id

__all__ = [
    "RendezvousListener",
    "connect_rendezvous",
    "signed_manifest",
    "verify_manifest",
    "write_port_file",
    "read_port_file",
    "discover_port_file",
    "resolve_rendezvous",
    "cleanup_stale_rendezvous",
]

#: port files live in the temp dir as ``<session-id>.rdv``
PORT_FILE_SUFFIX = ".rdv"


def rendezvous_dir() -> Path:
    return Path(tempfile.gettempdir())


def write_port_file(session: str, host: str, port: int, authkey: bytes) -> Path:
    """Publish a session's rendezvous address (key included — mode 0600)."""
    path = rendezvous_dir() / f"{session}{PORT_FILE_SUFFIX}"
    payload = json.dumps({"host": host, "port": port, "authkey": authkey.hex()})
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.write(fd, payload.encode())
    finally:
        os.close(fd)
    return path


def read_port_file(path: Path | str) -> tuple[str, int, bytes]:
    try:
        info = json.loads(Path(path).read_text())
        return info["host"], int(info["port"]), bytes.fromhex(info["authkey"])
    except (OSError, ValueError, KeyError) as err:
        raise PlexusRuntimeError(f"unreadable rendezvous port file {path}: {err}") from None


def discover_port_file(prefix: str = SHM_PREFIX) -> Path:
    """The newest port file whose launcher is still alive (``--rendezvous
    auto``); raises typed when no live session is published."""
    live = []
    for p in rendezvous_dir().glob(f"{prefix}*{PORT_FILE_SUFFIX}"):
        pid = _owner_pid(p.name[: -len(PORT_FILE_SUFFIX)])
        if pid is not None and _pid_alive(pid):
            try:
                live.append((p.stat().st_mtime, p))
            except OSError:
                continue
    if not live:
        raise PlexusRuntimeError(
            "no live rendezvous found: no port file in "
            f"{rendezvous_dir()} names a running launcher — start the "
            "primary with transport='tcp' first, or pass an explicit "
            "--rendezvous host:port"
        )
    return max(live)[1]


def resolve_rendezvous(rendezvous: str) -> tuple[str, int, bytes]:
    """Turn a ``repro host`` rendezvous argument into (host, port, key).

    ``"auto"`` discovers the newest live port file on this machine; a path
    reads that port file; ``host:port`` dials directly, taking the session
    auth key (hex) from ``$PLEXUS_AUTHKEY``.
    """
    if rendezvous == "auto":
        return read_port_file(discover_port_file())
    if os.path.sep in rendezvous or rendezvous.endswith(PORT_FILE_SUFFIX):
        return read_port_file(rendezvous)
    host, _, port = rendezvous.rpartition(":")
    key_hex = os.environ.get("PLEXUS_AUTHKEY", "")
    if not key_hex:
        raise PlexusRuntimeError(
            "--rendezvous host:port needs the session auth key in "
            "$PLEXUS_AUTHKEY (hex); on the launcher's machine use "
            "--rendezvous auto or pass the port file path instead"
        )
    return host or "127.0.0.1", int(port), bytes.fromhex(key_hex)


def cleanup_stale_rendezvous(
    prefix: str = SHM_PREFIX, include_live: bool = False
) -> list[str]:
    """Remove port files of dead launchers; returns the removed names.

    The half-open listener sockets such a launcher leaked died with its
    process — the file is the only state that persists, and a stale one
    would misdirect ``--rendezvous auto`` dials (they fail the liveness
    check, but sweeping keeps the temp dir honest).  Same liveness rule as
    the shm sweep: a file whose embedded launcher pid is alive belongs to
    a running sibling and is skipped unless ``include_live``.
    """
    removed = []
    for p in rendezvous_dir().glob(f"{prefix}*{PORT_FILE_SUFFIX}"):
        if not include_live:
            pid = _owner_pid(p.name[: -len(PORT_FILE_SUFFIX)])
            if pid is not None and _pid_alive(pid):
                continue
        try:
            p.unlink()
            removed.append(p.name)
        except OSError:
            continue
    return removed


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
    """The launcher's rendezvous endpoint (+ its port file, once
    :meth:`publish` wrote it)."""

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
        self._port_file: Path | None = None
        self._closed = False

    def publish(self) -> None:
        """Write the port file ``repro host --rendezvous auto`` discovers."""
        self._port_file = write_port_file(self.session, self.host, self.port, self.authkey)

    def accept(self, deadline: float, idle=None) -> Connection:
        """One authenticated control connection (or typed timeout).

        ``idle()`` runs every 0.2 s no worker dials in; whatever it raises
        ends the wait (the launcher's check for a dead local worker).
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
        manifest's peers.  Each hello is traced as a ``launcher.hello`` instant
        at its arrival.  ``idle`` is :meth:`accept`'s; on any error the
        connections admitted so far are closed.  Returns the control
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

    def close(self, unlink: bool = True) -> None:
        """Close the listener; ``unlink`` also retires the port file."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        if unlink and self._port_file is not None:
            try:
                self._port_file.unlink()
            except OSError:
                pass
