"""Launcher side of the multi-process runtime.

:class:`MultiprocTrainer` is the ``backend="multiproc"`` counterpart of
:class:`~repro.core.trainer.PlexusTrainer`: it spawns one OS process per
worker (each running the in-process program on a contiguous z-slice of the
rank cube, see :mod:`repro.runtime.worker`), wires them together over the
shared-memory bus (:mod:`repro.runtime.shm`) or the tcp fabric, and drives
the epoch loop through per-worker control connections.  ``train(epochs)``
returns the same :class:`TrainResult` the in-process trainer produces —
losses, epoch times and the comm/comp breakdown are assembled from the
workers' raw per-rank vectors so they are *bitwise identical* to
``backend="inproc"`` on the same workload.

Pool formation takes about one worker import, whatever the pool size: a
worker starts from its id and a way to reach the launcher only, so every
``start()`` returns at once and the workers import side by side.  On both
transports the control plane is the launcher's authenticated rendezvous
(:mod:`repro.runtime.rendezvous`): each worker dials it once it has
imported and says hello, and the launcher admits the pool, then sends the
``("spec", spec, timeout)`` message — pickled once, the same bytes to
every worker — and waits for every ready report.  Only the byte mover
differs: a shm worker attaches the session's bus, a tcp worker wires the
peer mesh.  All of it is bounded by the larger of
:data:`~repro.runtime.net.POOL_FORMATION_S` and 2 x ``timeout``; a worker
lost before its spec is a typed :class:`~repro.errors.WorkerCrashed`.  A
tcp pool's ``remote_workers`` slots are filled the same way by workers
:func:`host_workers` (``repro host``) starts on another machine: they dial
the rendezvous's ``host:port`` with the deployment's ``$PLEXUS_AUTHKEY``.

Supervision has one deadline, the trainer's ``timeout``.  A bus exchange
waits at most ``timeout`` for its peers on either transport, so a worker
that dies or wedges mid-collective is reported by the peer waiting on it.
The message pump blocks in one ``connection.wait`` over every control
connection, draining per-epoch heartbeat beacons as they arrive — a dead
worker, local or remote, surfaces *mid-epoch* as a typed
:class:`~repro.errors.WorkerCrashed` (worker id, exit code when local,
last completed epoch) at EOF on its control connection.  The launcher's
own backstop comes later than any bus deadline, so it speaks only for a
worker no peer waits on: a worker whose reply is awaited and that has sent
nothing for 2 x ``timeout`` is declared wedged, a
:class:`~repro.errors.BarrierTimeout` naming it.  Worker-raised
exceptions arrive as structured reports and re-raise as the
:mod:`repro.errors` runtime error of the same name (anything else:
:class:`~repro.errors.WorkerFailed`) carrying the worker's original
traceback text.  Every failure leaves through one path
(:meth:`MultiprocTrainer._fail`): trace flushed, pool stopped, per-worker
liveness table appended.

Checkpoints: the pool has the in-process trainer's checkpoint surface.
``save_checkpoint`` has each worker write its own slice file and seals the
directory with a manifest; ``load_checkpoint`` has each worker restore its
slice (re-cut from whatever layout wrote it) and continue its epoch
counter; ``restart()`` replaces a failed pool with a fresh one, its fault
plans stripped.  The policy — resume, checkpointed stretches, backoff and
replay after a failure — is one loop for both backends,
:func:`repro.runtime.checkpoint.train_to`; ``train()`` itself never
recovers.

Cleanup discipline (the no-leaked-``/dev/shm`` guarantee): the launcher
creates every segment and is the only unlinker.  ``close()`` — also run
from ``__exit__``, the ``atexit`` hook, and the failure path of every
command — stops workers with an escalation ladder (close command →
``terminate()`` → ``kill()``, logging who ignored what), joins with a
timeout, unlinks the session's segments and sweeps any overflow blocks a
crashed worker left behind.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import secrets
import socket
import time
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import NoReturn

import numpy as np
import scipy.sparse as sp

from repro import errors
from repro.core.configs import PlexusOptions
from repro.core.grid import GridConfig
from repro.core.trainer import ALLOC_PINS, EpochStats, TrainResult
from repro.dist.topology import PERLMUTTER, MachineSpec
from repro.errors import (
    BarrierTimeout,
    PlexusRuntimeError,
    RendezvousDesync,
    WorkerCrashed,
    WorkerFailed,
)
from repro.obs import TraceCollector, format_liveness
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.obs.metrics import registry as _metrics
from repro.runtime import checkpoint as ckpt
from repro.runtime.faults import NETWORK_ACTIONS, FaultPlan
from repro.runtime.net import POOL_FORMATION_S
from repro.runtime.rendezvous import RendezvousListener, env_authkey, parse_address, resolve_rendezvous
from repro.runtime.shm import BusHandle, ShmBus
from repro.runtime.worker import NOT_JOINED, build_worker, worker_main, worker_slice
from repro.sparse.ops import cpu_share, parallelism

__all__ = [
    "WorkloadSpec",
    "MultiprocTrainer",
    "build_trainer",
    "host_workers",
]

logger = get_logger(__name__)

#: a shm pool's per-worker mailbox size; payloads beyond it take the overflow path
DEFAULT_MAILBOX_BYTES = 8 << 20

#: how long failure reports that only echo a lost peer wait for the death
#: behind them: a dead worker's EOF can reach the launcher a few
#: milliseconds after its peers' reports
_ECHO_GRACE_S = 0.5

#: glibc malloc for the workers, pinned from their first allocation on
_ALLOC_VARS = {var: str(value) for var, _, value in ALLOC_PINS}

#: a worker-reported exception re-raises as the runtime error of its name:
#: the strict subclasses of PlexusRuntimeError in repro.errors (anything
#: else, the base included, is WorkerFailed)
_TYPED = {
    name: cls
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and PlexusRuntimeError in cls.__mro__[1:]
}


@dataclass
class WorkloadSpec:
    """Everything a worker needs to build its slice of the model.

    Exactly one data source: the in-memory arrays, or ``shard_dir`` — a
    :func:`~repro.graph.shardio.save_sharded` directory holding the
    *normalized* adjacency, from which each worker reads only the file
    blocks holding its own shards' node rows (under a node permutation:
    every block).

    ``faults`` optionally carries a chaos schedule — a
    :class:`~repro.runtime.faults.FaultPlan` (or a sequence of them) fired
    deterministically inside the targeted workers.
    """

    config: GridConfig
    layer_dims: list[int]
    workers: int
    machine: MachineSpec = PERLMUTTER
    options: PlexusOptions = field(default_factory=PlexusOptions)
    adjacency: sp.csr_matrix | None = None
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    train_mask: np.ndarray | None = None
    shard_dir: str | None = None
    faults: tuple = ()
    #: enable span tracing + metrics collection inside the workers (the
    #: launcher sets this when constructed with ``trace_dir``)
    trace: bool = False

    def __post_init__(self) -> None:
        in_memory = self.adjacency is not None
        if in_memory == (self.shard_dir is not None):
            raise ValueError("provide either in-memory arrays or shard_dir, not both")
        if in_memory and (
            self.features is None or self.labels is None or self.train_mask is None
        ):
            raise ValueError("in-memory data needs adjacency, features, labels, train_mask")
        if self.shard_dir is not None and self.train_mask is None:
            raise ValueError("shard_dir data still needs the (small) train_mask array")
        if isinstance(self.faults, FaultPlan):
            self.faults = (self.faults,)
        else:
            self.faults = tuple(self.faults or ())


@contextmanager
def _worker_env():
    """The environment worker processes are spawned under: glibc's allocator
    pinned (:data:`_ALLOC_VARS`).  Its *dynamic* mmap/trim thresholds follow
    the largest temporary a process frees, so an unpinned worker maps and
    unmaps its per-epoch temporaries: thousands of minor page faults per
    epoch where the ``minor_faults`` gauge should read ≈0.  A variable the
    user set wins; the launcher's environment is restored on exit (children
    capture ``os.environ`` at ``start()``).  BLAS is :mod:`repro`'s to pin.
    """
    added = [v for v in _ALLOC_VARS if v not in os.environ]
    for v in added:
        os.environ[v] = _ALLOC_VARS[v]
    try:
        yield
    finally:
        for v in added:
            del os.environ[v]


def _validate_spec(spec: WorkloadSpec, transport: str) -> None:
    """Fail in the launcher, with a clear message, before spawning: a bad
    worker count, or a fault plan that could never fire on this pool."""
    worker_slice(spec.config, spec.workers, 0)  # validates the worker count
    for plan in spec.faults:
        if not 0 <= plan.worker < spec.workers or min(plan.epoch, plan.exchange) < 0:
            raise ValueError(
                f"{plan} never fires on {spec.workers} workers: it needs "
                "0 <= worker < workers and a non-negative epoch and exchange"
            )
        if plan.action in NETWORK_ACTIONS and transport != "tcp":
            raise ValueError(
                f"fault action {plan.action!r} acts on transport='tcp' connections "
                f"and cannot fire over transport={transport!r} (actions "
                "'die'/'raise'/'delay'/'hang'/'corrupt' work on both)"
            )


def _start_workers(
    procs: list, ctx, target, args_of: list[tuple], name: str = "plexus-runtime-worker"
) -> None:
    """Start one daemon worker process per entry of ``args_of`` under
    :func:`_worker_env`, appending each to ``procs`` as it starts (a failure
    midway leaves the started ones where the caller's teardown finds them).
    Each gets this host's CPU share per worker as its last argument: its
    thread budget, the cap on its splits (its BLAS runs one thread)."""
    share = cpu_share(len(args_of))
    with _worker_env():
        for w, args in enumerate(args_of):
            p = ctx.Process(target=target, args=(*args, share), name=f"{name}-{w}", daemon=True)
            p.start()
            procs.append(p)


class MultiprocTrainer:
    """Drives epochs across a pool of worker processes (one rank-cube slice
    each) with the :class:`~repro.core.trainer.PlexusTrainer` surface,
    checkpoints included; :func:`~repro.runtime.checkpoint.train_to` adds
    resume and replay.

    ``timeout`` (seconds) is the one deadline: a bus exchange waits at most
    that long for its peers, and a worker whose reply the launcher awaits
    is declared wedged after 2 x ``timeout`` without a message from it (a
    pool forms within the larger of 2 x ``timeout`` and
    :data:`~repro.runtime.net.POOL_FORMATION_S`).

    The session key is ``$PLEXUS_AUTHKEY`` (hex) when set, else random.
    ``remote_workers`` slots are filled by ``repro host`` launchers dialing
    ``rendezvous`` with that key (:func:`host_workers`), so they need
    ``transport="tcp"``, an explicit non-zero port and the key.
    """

    backend = "multiproc"

    def __init__(
        self,
        spec: WorkloadSpec,
        timeout: float = 120.0,
        transport: str = "shm",
        rendezvous: str | tuple[str, int] | None = None,
        remote_workers: int = 0,
        trace_dir: str | Path | None = None,
    ) -> None:
        if transport not in ("shm", "tcp"):
            raise ValueError(f"unknown transport {transport!r} (known: shm, tcp)")
        _validate_spec(spec, transport)
        if transport != "tcp" and (rendezvous is not None or remote_workers):
            raise ValueError("rendezvous / remote_workers require transport='tcp'")
        if not 0 <= remote_workers <= spec.workers:
            raise ValueError(
                f"remote_workers must be in [0, workers={spec.workers}], "
                f"got {remote_workers}"
            )
        self.transport = transport
        self.remote_workers = int(remote_workers)
        if isinstance(rendezvous, str):
            rendezvous = parse_address(rendezvous)
        self.rendezvous = rendezvous or ("127.0.0.1", 0)
        authkey = env_authkey()
        if remote_workers and (authkey is None or self.rendezvous[1] == 0):
            raise ValueError(
                "remote_workers need an address and a key a remote host can "
                "dial with: an explicit non-zero rendezvous port and "
                "$PLEXUS_AUTHKEY (hex)"
            )
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._collector: TraceCollector | None = None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self._collector = TraceCollector()
            _trace.enable("launcher")
            spec = replace(spec, trace=True)
        self.spec = spec
        self.workers = spec.workers
        self.timeout = timeout
        self._closed = False
        self._epochs_done = 0
        self._bus: ShmBus | None = None  # shm: the creator endpoint
        self._authkey = authkey or secrets.token_bytes(32)
        self._session = ""
        self._procs: list = []
        self._conns: list = []
        #: per worker: when its last message arrived (or the current wait began)
        self._heard: list[float] = []
        atexit.register(self.close)
        try:
            self._spawn_pool()
        except BaseException:
            self.close()
            raise

    # -- pool lifecycle --------------------------------------------------------
    def _spawn_pool(self) -> None:
        """Open the rendezvous (and, for shm, the bus), start the local
        workers, admit every worker, send the spec, wait for every ready
        report — under one deadline (see the module docstring).

        A fresh session per (re)spawn: a killed pool's state can never be
        confused with the new one's.  The rendezvous listens only while the
        pool forms, at the same address each time: a ``repro host`` launcher
        (:func:`host_workers`) finds it closed once the pool has formed or
        ended, and open again when a respawned pool waits for its slots.
        Local workers pin their slice index as the preferred worker id;
        ``remote_workers`` slots are filled by workers dialing in from other
        launchers.  A local worker that exits before it is admitted is
        :class:`~repro.errors.WorkerCrashed` within 0.2 s of its exit.
        """
        deadline = time.monotonic() + max(POOL_FORMATION_S, 2 * self.timeout)
        self._procs = []
        self._conns = []
        self._heard = [time.monotonic()] * self.workers
        self._inbox: list[deque] = [deque() for _ in range(self.workers)]
        #: workers found gone by the pump, not yet raised
        self._gone: set[int] = set()
        self._worker_epoch = [self._epochs_done] * self.workers
        with _trace.span(
            "launcher.spawn_pool", workers=self.workers, transport=self.transport
        ):
            # the pool admits no one once formed: the listener closes here
            with closing(RendezvousListener(*self.rendezvous, authkey=self._authkey)) as listener:
                self._session = listener.session
                handle = None
                if self.transport == "shm":
                    handle = BusHandle(self._session, self.workers, DEFAULT_MAILBOX_BYTES, self.timeout)
                    self._bus = ShmBus(handle)  # creator endpoint: owns unlink
                dial = (listener.host, listener.port, self._authkey, handle)
                n_local = self.workers - self.remote_workers
                _start_workers(
                    self._procs, mp.get_context("spawn"), worker_main,
                    [(w, *dial) for w in range(n_local)],
                )
                self._procs += [None] * self.remote_workers  # remote slots: no local process

                def idle() -> None:  # no dialer for 0.2 s: did a local worker exit?
                    self._gone.update(
                        w for w, p in enumerate(self._procs)
                        if p is not None and p.exitcode is not None
                    )
                    self._raise_if_gone()

                conns = listener.gather(self.workers, deadline - time.monotonic(), idle)
            self._conns = [conns[w] for w in range(self.workers)]
            blob = ForkingPickler.dumps(("spec", self.spec, self.timeout))
            self._broadcast(blob)
            _trace.instant("launcher.spec", bytes=len(blob))
            # every ("ready", w), or the build error
            self._replies(deadline - time.monotonic())

    def _stop_pool(self, graceful: bool) -> None:
        """Stop the workers and release every connection and segment of
        this pool — the one place the session's segments are unlinked.
        ``graceful=False`` is the path after a failure: the rendezvous is
        already broken, so workers are terminated, not asked, and the
        trainer itself stays open — recovery may respawn."""
        self._stop_procs(graceful)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._conns = []
        self._procs = []
        if self._bus is not None:
            self._bus.unlink()
            self._bus = None

    def _stop_procs(self, graceful: bool) -> None:
        """The stop ladder: optional close command, then SIGTERM, then
        SIGKILL (5 s joins), logging which workers needed escalation.
        Remote workers (no local process) get the close command only; their
        own launcher supervises their exit."""
        local = [(w, p) for w, p in enumerate(self._procs) if p is not None]
        if graceful:
            for conn in self._conns:
                try:
                    conn.send(("close",))
                except (OSError, ValueError):
                    pass
            for _, p in local:
                p.join(timeout=5.0)
        for sig, stop in (("SIGTERM", "terminate"), ("SIGKILL", "kill")):
            local = [(w, p) for w, p in local if p.is_alive()]
            if local and (graceful or sig == "SIGKILL"):
                logger.warning(
                    "workers %s ignored the %s; escalated to %s",
                    [w for w, _ in local],
                    "close command" if sig == "SIGTERM" else "SIGTERM",
                    sig,
                )
            for _, p in local:
                getattr(p, stop)()
            for _, p in local:
                p.join(timeout=5.0)

    # -- message pump / supervision --------------------------------------------
    def _pump(self, timeout: float) -> bool:
        """Drain every ready control connection into the per-worker inboxes
        and note which workers are gone, in one ``wait`` over the
        connections; False when no connection is left to wait on.

        Any message marks its worker as heard from; heartbeat beacons also
        record the worker's last completed epoch, trace payloads go to the
        collector, and everything else queues for :meth:`_replies`.  A
        worker, local or remote, is gone at EOF on its control connection.
        An error report is a worker's last word: its connection is not read
        again, so the EOF that follows is not a crash.
        """
        waiting = {
            c: w
            for w, c in enumerate(self._conns)
            if w not in self._gone and not any(m[0] == "error" for m in self._inbox[w])
        }
        if not waiting:
            return False
        for conn in mp_connection.wait(list(waiting), timeout):
            w = waiting[conn]
            self._heard[w] = time.monotonic()
            while True:
                try:
                    if not conn.poll(0):
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._gone.add(w)
                    break
                if msg[0] == "beat":
                    self._worker_epoch[w] = msg[2]
                elif msg[0] == "trace":
                    if self._collector is not None:
                        self._collector.add_worker_payload(f"worker {w}", msg[2])
                else:
                    if msg[0] == "ready":  # pool formation, per worker
                        _trace.instant("launcher.ready", worker=w)
                    self._inbox[w].append(msg)
                    if msg[0] == "error":
                        break
        return True

    def _replies(self, patience: float) -> list:
        """Every worker's next reply, in worker order.

        Waits as long as the pool is alive: the pump drains every control
        connection.  A worker's error report re-raises typed; a
        gone worker is :class:`~repro.errors.WorkerCrashed`, reported before
        a peer's ``BarrierTimeout`` (over tcp the peer's rendezvous with a
        failed worker breaks at once, its echo; echoes alone wait up to
        :data:`_ECHO_GRACE_S` for the death behind them); a worker whose
        reply is missing and that has sent nothing for ``patience`` seconds
        (2 x ``timeout`` for a command: later than any bus deadline, so a
        peer waiting on it at the bus reports first) is declared wedged.
        """
        self._heard = [time.monotonic()] * self.workers
        settle = None  # until when echoes alone wait for a death
        while True:
            reports = [q[0][1] for q in self._inbox if q and q[0][0] == "error"]
            if reports:
                # a worker's own failure first, then a death, then its echoes
                own = [r for r in reports if r["etype"] != "BarrierTimeout"]
                if not own:
                    self._raise_if_gone()
                    settle = settle or time.monotonic() + _ECHO_GRACE_S
                    left = settle - time.monotonic()
                    if left > 0 and self._pump(left):
                        continue
                report = (own or reports)[0]
                w, etype = report["worker"], report["etype"]
                if self._collector is not None and "trace" in report:
                    # the worker's crash-flushed telemetry
                    self._collector.add_worker_payload(f"worker {w}", report.pop("trace"))
                self._fail(
                    _TYPED.get(etype, WorkerFailed),
                    w,
                    f"worker {w} raised {etype}: {report['message']}",
                    traceback_text=report["traceback"],
                )
            if all(self._inbox):
                return [q.popleft()[1] for q in self._inbox]
            self._raise_if_gone()
            now = time.monotonic()
            for w, q in enumerate(self._inbox):
                if not q and now - self._heard[w] > patience:
                    self._fail(
                        BarrierTimeout,
                        w,
                        f"worker {w} sent nothing for {now - self._heard[w]:.1f}s "
                        f"(> {patience:g}s) while its reply was awaited — wedged "
                        f"after epoch {self._worker_epoch[w]}",
                    )
            self._pump(0.2)

    def _raise_if_gone(self) -> None:
        """:class:`~repro.errors.WorkerCrashed` for the lowest gone worker
        the pump found, if any."""
        if not self._gone:
            return
        w = min(self._gone)
        p = self._procs[w]
        if p is None:
            how, exitcode = "dropped its control connection (remote worker lost)", None
        else:
            p.join(timeout=1.0)  # EOF can precede the exit
            how, exitcode = f"died (exit code {p.exitcode})", p.exitcode
        why = f"worker {w} {how} after epoch {self._worker_epoch[w]}"
        self._fail(WorkerCrashed, w, why, exitcode=exitcode)

    def _fail(
        self, cls: type[PlexusRuntimeError], w: int | None, why: str, **context
    ) -> NoReturn:
        """The one way out of a broken pool: flush the trace (the spans
        leading up to the failure survive), stop the pool, and raise ``cls``
        attributed to worker ``w`` with the per-worker liveness table."""
        table = format_liveness(self._flush_trace())
        self._stop_pool(graceful=False)
        raise cls(
            f"multiproc runtime failed: {why}\n{table}",
            worker_id=w,
            last_epoch=None if w is None else self._worker_epoch[w],
            **context,
        )

    def _drain_trace(self) -> None:
        """Move the launcher's own span buffer and a metrics row into the
        collector (cheap: nothing is rendered)."""
        if self._collector is None:
            return
        self._collector.add_wall("launcher", _trace.drain())
        _metrics.gauge("epochs_done", float(self._epochs_done))
        _metrics.gauge_process(*parallelism())
        self._collector.add_metrics("launcher", self._epochs_done, _metrics.snapshot())

    def _flush_trace(self) -> list[tuple[int, str, float, int]]:
        """Rewrite the merged trace artifacts in ``trace_dir`` (idempotent);
        returns the per-worker liveness rows ``(worker, tags, silent_s,
        last_epoch)`` they record.

        Renders every artifact from the whole collector, so it runs where
        the files must be on disk — on a failure and from ``close()`` — and
        not per ``train()`` call, which only drains (a traced ``train(1)``
        loop would otherwise be quadratic).
        """
        now = time.monotonic()
        rows = [
            (
                w,
                " [remote]" * (w < len(self._procs) and self._procs[w] is None)
                + " [connection closed]" * (w in self._gone),
                now - heard,
                self._worker_epoch[w],
            )
            for w, heard in enumerate(self._heard)
        ]
        if self._collector is not None:
            self._drain_trace()
            try:
                self._collector.write(self.trace_dir, liveness=rows)
            except OSError as err:  # disk trouble must not mask the training error
                logger.warning(
                    "failed to write trace artifacts to %s: %s", self.trace_dir, err
                )
        return rows

    def _broadcast(self, blob) -> None:
        """Send one pickled message, the same bytes, to every worker."""
        for w, conn in enumerate(self._conns):
            try:
                conn.send_bytes(blob)
            except (OSError, ValueError):
                self._gone.add(w)  # a broken connection: _replies reports it

    def _command(self, *msg) -> list:
        if self._closed:
            raise PlexusRuntimeError("multiproc trainer is closed")
        self._broadcast(ForkingPickler.dumps(msg))
        return self._replies(2 * self.timeout)

    # -- trainer surface -------------------------------------------------------
    def train(self, epochs: int) -> TrainResult:
        """Run ``epochs`` across the pool; identical result to inproc.

        Per epoch, every worker reports ``(loss, t0, t1, comm, comp)`` with
        the per-rank second vectors of its slice; losses and epoch bounds
        are cube-global (the loss is all-reduced, the epoch barrier lifts
        every rank to the cube max) so their bits must agree across
        workers — asserted here — and the breakdown means are taken over
        the assembled ``(world,)`` vectors, bitwise like the inproc trainer.
        A failure raises typed with the pool stopped.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        with _trace.span("launcher.train_stretch", n=epochs, start_epoch=self._epochs_done):
            per_worker = self._command("train", epochs)
        result = TrainResult()
        for e in range(epochs):
            loss, t0, t1 = per_worker[0][e][:3]
            # bitwise, so a NaN loss agrees with itself
            if len({np.array(per_worker[w][e][:3]).tobytes() for w in range(self.workers)}) > 1:
                self._fail(
                    RendezvousDesync,
                    None,
                    f"epoch {self._epochs_done + e}: workers disagree on "
                    "(loss, t0, t1) — the SPMD execution diverged",
                )
            comm = np.concatenate([per_worker[w][e][3] for w in range(self.workers)])
            comp = np.concatenate([per_worker[w][e][4] for w in range(self.workers)])
            result.epochs.append(EpochStats.from_raw(loss, t0, t1, comm, comp))
        self._epochs_done += epochs
        self._drain_trace()
        return result

    def save_checkpoint(self, root: str | Path, epoch: int, history: list[EpochStats] = ()) -> Path:
        """Write the epoch-``epoch`` checkpoint under ``root``, the layout
        :meth:`PlexusTrainer.save_checkpoint` writes: the workers write
        their own slice files into a temp directory (parallel I/O), the
        launcher seals it with the manifest and renames it into place.
        Returns the checkpoint path."""
        return ckpt.seal_checkpoint(
            root,
            epoch,
            lambda tmp: [list(ack) for ack in self._command("checkpoint", str(tmp))],
            backend=self.backend,
            world=self.spec.config.total,
            layer_dims=self.spec.layer_dims,
            history=history,
            tag=f"-{self._session[-8:]}",
        )

    def load_checkpoint(self, path: str | Path) -> dict:
        """Restore the pool from a checkpoint directory written by either
        backend on any worker layout, for this world and these layer dims
        (else :class:`~repro.errors.CheckpointError`): each worker loads
        its slice and continues its epoch counter from the checkpoint's.
        Returns the checkpoint's manifest."""
        manifest = ckpt.read_manifest(path, self.spec.config.total, self.spec.layer_dims)
        epoch = manifest["epoch"]
        self._command("load", str(path), epoch)
        self._epochs_done = epoch
        self._worker_epoch = [epoch] * self.workers
        return manifest

    def restart(self) -> None:
        """Stop the pool (a failure already has) and spawn a fresh one at
        epoch 0, without fault plans: injected faults model transient
        failures, so a replay runs clean."""
        if self._closed:
            raise PlexusRuntimeError("multiproc trainer is closed")
        self._stop_pool(graceful=False)
        self.spec = replace(self.spec, faults=())
        self._epochs_done = 0
        self._spawn_pool()

    @property
    def epochs_done(self) -> int:
        """Epochs completed so far (counting from a loaded checkpoint's)."""
        return self._epochs_done

    def state(self) -> dict:
        """Assembled cube-wide state for parity checks and reporting.

        Returns ``clocks`` (world,), ``by_phase``/``by_category`` label ->
        (world,) vectors, ``weights`` name -> (world, rows, cols) stacks,
        and ``load_reports`` (per worker; None without ``shard_dir``).
        """
        states = sorted(self._command("state"), key=lambda s: s["lo"])
        return {
            **ckpt.assemble_slices(states),
            "load_reports": [s["load_report"] for s in states],
        }

    def evaluate(self, mask_global) -> float:
        """Distributed accuracy on a global node mask, off the books like
        :meth:`PlexusTrainer.evaluate`: every worker runs it on its slice
        (the accuracy collectives cross the bus like any other), and the
        value is cube-global — identical on all of them."""
        return self._command("evaluate", mask_global)[0]

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Stop the pool and release every shared-memory segment.

        Idempotent, and the single place the session's segments are
        unlinked — run on clean exit, on any command failure, at interpreter
        exit, and from ``__exit__`` (so KeyboardInterrupt in a ``with``
        block cannot leak ``/dev/shm``)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)  # a closed trainer must be collectable
        try:
            self._flush_trace()
            self._stop_pool(graceful=True)
        finally:
            if self._collector is not None:
                _trace.disable()  # (discards the buffer: after the flush)

    def __enter__(self) -> "MultiprocTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def host_workers(rendezvous: str, workers: int = 1, rediscover_grace: float = 10.0) -> int:
    """The ``repro host`` secondary launcher: fill a primary's remote slots.

    Serves pool sessions at ``rendezvous``, the primary's ``host:port``,
    dialing with the key in ``$PLEXUS_AUTHKEY``.  Before each session it
    waits up to ``rediscover_grace`` seconds for that address to accept a
    TCP connection, then spawns ``workers`` processes that dial it and
    serve as pool members (the primary must reserve as many
    ``remote_workers`` slots), and joins them.  A primary that respawns its
    pool after a failure listens at the same address again, so the next
    session rejoins it.  A session counts once its workers joined; when
    none of them did (each exits :data:`~repro.runtime.worker.NOT_JOINED`
    after naming the rendezvous error on stderr — another key, say), the
    loop stops.  Returns the number of sessions served once the address
    stays closed (the primary is done or dead) or a session failed to join.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    host, port, authkey = resolve_rendezvous(rendezvous)
    ctx = mp.get_context("spawn")
    served = 0
    while _accepts(host, port, rediscover_grace):
        procs: list = []
        _start_workers(
            procs, ctx, worker_main, [(None, host, port, authkey, None)] * workers,
            name="plexus-remote-worker",
        )
        for p in procs:
            p.join()
        refused = sum(p.exitcode == NOT_JOINED for p in procs)
        if refused == workers:
            logger.error("no worker joined the pool at %s:%s (%d served)", host, port, served)
            break
        if not refused:
            served += 1
        logger.info("pool session at %s:%s ended (%d served)", host, port, served)
    return served


def _accepts(host: str, port: int, grace: float) -> bool:
    """Whether ``host:port`` accepts a TCP connection within ``grace`` s."""
    deadline = time.monotonic() + grace
    while True:
        try:
            socket.create_connection((host, port), timeout=1.0).close()
            return True
        except OSError:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.1)


def build_trainer(spec: WorkloadSpec, backend: str = "inproc", **kwargs):
    """The backend seam: one workload description, either trainer.

    ``"inproc"`` builds the whole cube in this process — a
    :class:`~repro.core.trainer.PlexusTrainer`, the parity oracle: the
    whole-cube, no-bus call of the builder every worker runs
    (:func:`~repro.runtime.worker.build_worker`), so a ``shard_dir`` spec
    loads the same way; ``"multiproc"`` launches the worker pool (``kwargs``
    pass through to :class:`MultiprocTrainer`: timeout, transport, the
    rendezvous, tracing).
    """
    if backend == "multiproc":
        return MultiprocTrainer(spec, **kwargs)
    if backend != "inproc":
        raise ValueError(f"unknown backend {backend!r} (known: inproc, multiproc)")
    if kwargs:
        raise ValueError(f"backend='inproc' takes no launcher options: {sorted(kwargs)}")
    return build_worker(spec).trainer
