"""Launcher side of the multi-process runtime.

:class:`MultiprocTrainer` is the ``backend="multiproc"`` counterpart of
:class:`~repro.core.trainer.PlexusTrainer`: it spawns one OS process per
worker (each running the in-process program on a contiguous z-slice of the
rank cube, see :mod:`repro.runtime.worker`), wires them together over the
shared-memory bus (:mod:`repro.runtime.shm`) or the tcp fabric, and drives
the epoch loop through per-worker command pipes.  ``train(epochs)`` returns
the same :class:`TrainResult` the in-process trainer produces — losses,
epoch times and the comm/comp breakdown are assembled from the workers' raw
per-rank vectors so they are *bitwise identical* to ``backend="inproc"`` on
the same workload.

Supervision: the message pump blocks in one ``connection.wait`` over every
control pipe and every local worker's process sentinel, draining per-epoch
heartbeat beacons as they arrive — a dead worker surfaces *mid-epoch* as a
typed :class:`~repro.errors.WorkerCrashed` (worker id, exit code, last
completed epoch) when its sentinel fires (a remote worker: at EOF on its
control connection) instead of waiting out the bus barrier timeout, and a
wedged worker that stops beating trips
:class:`~repro.errors.BarrierTimeout` when ``heartbeat_timeout`` is set.
Worker-raised exceptions arrive as structured reports and re-raise as
typed exceptions carrying the worker's original traceback text.

Fault tolerance: with ``checkpoint_dir`` set, the pool checkpoints every
``checkpoint_every`` epochs (each worker writes its own slice file, the
launcher seals the directory with a manifest) and ``train()`` gains
respawn-and-replay — on a recoverable failure the whole pool is torn down
(the rendezvous is broken anyway), respawned from the latest checkpoint
after an exponential backoff (at most ``max_restarts`` times), and the
remaining epochs replayed.  Because every piece of state that feeds the
simulation is restored — weights, Adam moments, clocks, link reservations,
the in-flight prefetch inventory — the replayed run is **bitwise
identical** to an uninterrupted one.

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
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.configs import PlexusOptions
from repro.core.grid import GridConfig
from repro.core.trainer import ALLOC_PINS, EpochStats, TrainResult
from repro.dist.topology import PERLMUTTER, MachineSpec
from repro.errors import (
    BarrierTimeout,
    CheckpointError,
    PayloadCorruption,
    PlexusRuntimeError,
    RendezvousDesync,
    UnsupportedWorkload,
    WorkerCrashed,
    WorkerFailed,
)
from repro.graph.shardio import LoadReport
from repro.obs import TraceCollector, format_liveness
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.obs.metrics import registry as _metrics
from repro.runtime import checkpoint as ckpt
from repro.runtime.faults import FaultPlan
from repro.runtime.net import TcpConfig
from repro.runtime.shm import BusHandle, ShmBus, new_session_id
from repro.runtime.worker import build_worker, worker_main, worker_main_tcp, worker_slice

__all__ = [
    "WorkloadSpec",
    "MultiprocTrainer",
    "build_trainer",
    "host_workers",
]

logger = get_logger(__name__)

#: default per-worker mailbox size; payloads beyond it take the overflow path
DEFAULT_MAILBOX_BYTES = 8 << 20

#: the BLAS/OpenMP pool-size variables a numerical library reads at import
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: glibc malloc for the workers, pinned from their first allocation on
_ALLOC_VARS = {var: str(value) for var, _, value in ALLOC_PINS}

#: failures the respawn-and-replay policy treats as transient
_RECOVERABLE = (WorkerCrashed, BarrierTimeout, PayloadCorruption, RendezvousDesync)

#: worker-reported exception types that map onto their own launcher-side class
_ETYPE_MAP = {
    "BarrierTimeout": BarrierTimeout,
    "CheckpointError": CheckpointError,
    "PayloadCorruption": PayloadCorruption,
    "RendezvousDesync": RendezvousDesync,
    "UnsupportedWorkload": UnsupportedWorkload,
    "WorkerCrashed": WorkerCrashed,
}


@dataclass
class WorkloadSpec:
    """Everything a worker needs to build its slice of the model.

    Exactly one data source: the in-memory arrays, or ``shard_dir`` — a
    :func:`~repro.graph.shardio.save_sharded` directory holding the
    *normalized* adjacency, from which each worker reads only the file
    blocks overlapping its own shard rows.

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
def _worker_env(local_workers: int):
    """The environment worker processes are spawned under: each worker's
    BLAS/OpenMP pool gets its share of the host's cores, and glibc's
    allocator is pinned (:data:`_ALLOC_VARS`).

    Unpinned, every worker imports numpy with a pool of ``cpu_count``
    threads, so W workers run W x C threads on C cores and the pool is
    slower than one process; and glibc's *dynamic* mmap/trim thresholds
    follow the largest temporary a process frees, so a worker maps and
    unmaps its per-epoch temporaries — thousands of minor page faults per
    epoch where the requirement (the ``minor_faults`` gauge) is ≈0.  A
    variable the user already set wins; the launcher's own environment is
    restored on exit (spawned children capture ``os.environ`` at
    ``start()``).
    """
    share = str(max(1, (os.cpu_count() or 1) // max(1, local_workers)))
    wanted = {**dict.fromkeys(_THREAD_VARS, share), **_ALLOC_VARS}
    added = [v for v in wanted if v not in os.environ]
    for v in added:
        os.environ[v] = wanted[v]
    try:
        yield
    finally:
        for v in added:
            del os.environ[v]


def _validate_spec(spec: WorkloadSpec, transport: str) -> None:
    """Fail in the launcher, with a clear message, before spawning."""
    worker_slice(spec.config, spec.workers, 0)  # validates the worker count
    plan = next((p for p in spec.faults if p.transport not in (None, transport)), None)
    if plan is not None:
        raise UnsupportedWorkload(
            f"fault action {plan.action!r} acts on transport={plan.transport!r} "
            f"frames and cannot fire over transport={transport!r} (actions "
            "'die'/'raise'/'delay'/'hang' work on both; 'corrupt_frame' is "
            "tcp's 'corrupt')"
        )


def _start_workers(
    procs: list, ctx, target, args_of: list[tuple], name: str = "plexus-runtime-worker"
) -> None:
    """Start one daemon worker process per entry of ``args_of`` under
    :func:`_worker_env`, appending each to ``procs`` as it starts (a failure
    midway leaves the started ones where the caller's teardown finds them)."""
    with _worker_env(len(args_of)):
        for w, args in enumerate(args_of):
            p = ctx.Process(target=target, args=args, name=f"{name}-{w}", daemon=True)
            p.start()
            procs.append(p)


class MultiprocTrainer:
    """Drives epochs across a pool of worker processes (one rank-cube slice
    each) with the :class:`~repro.core.trainer.PlexusTrainer` surface.

    With ``checkpoint_dir`` set the trainer checkpoints every
    ``checkpoint_every`` epochs, resumes from the newest complete
    checkpoint found in the directory at construction, and recovers from
    transient worker failures by respawning the pool from the latest
    checkpoint (at most ``max_restarts`` times, exponential backoff from
    ``restart_backoff`` seconds) and replaying — bitwise identical to an
    uninterrupted run.  ``heartbeat_timeout`` (seconds, default off) bounds
    how long a worker may train without emitting its per-epoch heartbeat
    before it is declared wedged.
    """

    backend = "multiproc"

    def __init__(
        self,
        spec: WorkloadSpec,
        mailbox_bytes: int = DEFAULT_MAILBOX_BYTES,
        timeout: float = 120.0,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 1,
        max_restarts: int = 2,
        restart_backoff: float = 0.25,
        heartbeat_timeout: float | None = None,
        keep_checkpoints: int = 2,
        transport: str = "shm",
        rendezvous: str | tuple[str, int] | None = None,
        remote_workers: int = 0,
        tcp_config: TcpConfig | None = None,
        trace_dir: str | Path | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
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
            host, _, port = rendezvous.rpartition(":")
            rendezvous = (host or "127.0.0.1", int(port))
        self.rendezvous = rendezvous or ("127.0.0.1", 0)
        self.tcp_config = tcp_config or TcpConfig(
            exchange_timeout=min(timeout * 0.75, TcpConfig.exchange_timeout)
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
        self._mailbox_bytes = int(mailbox_bytes)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.heartbeat_timeout = heartbeat_timeout
        self.keep_checkpoints = keep_checkpoints
        self._closed = False
        self._history: list[EpochStats] = []
        #: absolute epoch of _history[0] — nonzero when resuming from a
        #: manifest that carries no (or partial) epoch history
        self._hist_base = 0
        self._epochs_done = 0
        self._restarts_used = 0
        self._training = False
        self._bus: ShmBus | None = None
        self._listener = None  # tcp: the RendezvousListener (+ its port file)
        self._authkey = secrets.token_bytes(32)
        self._session = ""
        self._procs: list = []
        self._conns: list = []
        atexit.register(self.close)
        restore = None
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            found = ckpt.latest_checkpoint(self.checkpoint_dir)
            if found is not None:
                epoch, path = found
                manifest = ckpt.read_manifest(path)
                self._check_manifest(manifest)
                self._epochs_done = epoch
                self._history = ckpt.manifest_history(manifest, epoch)
                self._hist_base = epoch - len(self._history)
                restore = (str(path), epoch)
        try:
            self._spawn_pool(restore, clean=False)
        except BaseException:
            self.close()
            raise

    # -- pool lifecycle --------------------------------------------------------
    def _spawn_pool(self, restore: tuple[str, int] | None, clean: bool) -> None:
        """Create the bus, spawn the workers, wait for every ready report.

        ``restore`` is ``(checkpoint_path, epoch)`` for resume/recovery;
        ``clean=True`` (the recovery respawn) strips the fault plans —
        injected faults model transient failures, so replay runs clean.
        """
        spec = self.spec
        if clean and spec.faults:
            spec = replace(spec, faults=())
        ctx = mp.get_context("spawn")
        self._procs = []
        self._conns = []
        self._inbox: list[deque] = [deque() for _ in range(self.workers)]
        self._eof: set[int] = set()
        #: workers found gone by the pump, not yet raised
        self._gone: set[int] = set()
        self._worker_epoch = [self._epochs_done] * self.workers
        self._last_beat = [time.monotonic()] * self.workers
        with _trace.span(
            "launcher.spawn_pool", workers=self.workers, transport=self.transport
        ):
            if self.transport == "tcp":
                self._spawn_tcp(ctx, spec, restore)
            else:
                self._spawn_shm(ctx, spec, restore)
            for w in range(self.workers):
                self._recv(w)  # ("ready", w) or the build/restore error

    def _spawn_shm(self, ctx, spec: WorkloadSpec, restore) -> None:
        self._bus_handle = BusHandle(
            session=new_session_id(),
            n_workers=self.workers,
            capacity=self._mailbox_bytes,
            timeout=self.timeout,
        )
        self._session = self._bus_handle.session
        self._bus = ShmBus(self._bus_handle)  # creator endpoint: owns unlink
        pipes = [ctx.Pipe() for _ in range(self.workers)]
        self._conns = [parent for parent, _ in pipes]
        try:
            _start_workers(
                self._procs,
                ctx,
                worker_main,
                [(w, self._bus_handle, spec, child, restore) for w, (_, child) in enumerate(pipes)],
            )
        finally:
            for _, child in pipes:
                child.close()

    def _spawn_tcp(self, ctx, spec: WorkloadSpec, restore) -> None:
        """Rendezvous-based pool formation (the multi-host path).

        A fresh session + port file per (re)spawn: a killed pool's state
        can never be confused with the new one's, and a ``repro host``
        secondary rediscovers the new rendezvous through the port file.
        Locally spawned workers pin their slice index as the preferred
        worker id; ``remote_workers`` slots are filled by workers dialing
        in from other launchers.  The workload spec (and any restore
        checkpoint) ships over the authenticated control connections, which
        afterwards carry the command loop and the heartbeats.
        """
        from repro.runtime.rendezvous import RendezvousListener

        host, port = self.rendezvous
        self._listener = RendezvousListener(host, port, authkey=self._authkey)
        self._session = self._listener.session
        dial = (self._listener.host, self._listener.port, self._authkey)
        n_local = self.workers - self.remote_workers
        _start_workers(self._procs, ctx, worker_main_tcp, [(w, *dial) for w in range(n_local)])
        self._procs += [None] * self.remote_workers  # remote slots: no local process
        conns = self._listener.gather(
            self.workers, timeout=self.tcp_config.rendezvous_timeout
        )
        self._conns = [conns[w] for w in range(self.workers)]
        for conn in self._conns:
            conn.send(("spec", spec, restore, self.tcp_config))

    def _stop_pool(self, graceful: bool) -> None:
        """Flush the trace (so spans leading up to a failure survive), stop
        the workers, and release every connection, segment and listener of
        this pool — the one place the session's segments are unlinked.
        ``graceful=False`` is the path after a failure: the rendezvous is
        already broken, so workers are terminated, not asked, and the
        trainer itself stays open — recovery may respawn."""
        self._flush_trace()
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
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _stop_procs(self, graceful: bool) -> None:
        """The stop ladder: optional close command, then SIGTERM, then
        SIGKILL — logging which workers needed escalation.  Remote workers
        (no local process) get the close command only; their own launcher
        supervises their exit."""
        if graceful:
            for conn in self._conns:
                try:
                    conn.send(("close",))
                except (OSError, ValueError):
                    pass
            for p in self._procs:
                if p is not None:
                    p.join(timeout=5.0)
        need_term = [
            w for w, p in enumerate(self._procs) if p is not None and p.is_alive()
        ]
        for w in need_term:
            self._procs[w].terminate()
        for w in need_term:
            self._procs[w].join(timeout=5.0)
        need_kill = [w for w in need_term if self._procs[w].is_alive()]
        for w in need_kill:
            self._procs[w].kill()
        for w in need_kill:
            self._procs[w].join(timeout=5.0)
        if graceful and need_term:
            logger.warning(
                "workers %s ignored the close command; escalated to SIGTERM",
                need_term,
            )
        if need_kill:
            logger.warning(
                "workers %s ignored SIGTERM during the 5 s join; escalated "
                "to SIGKILL",
                need_kill,
            )

    # -- message pump / supervision --------------------------------------------
    def _pump(self, timeout: float) -> None:
        """Drain every ready control pipe into the per-worker inboxes and
        note which workers are gone, in one ``wait`` over the pipes and the
        local workers' process sentinels.

        Heartbeat beacons are consumed here (liveness timestamps + the
        per-worker last-completed-epoch record); everything else queues for
        :meth:`_recv`.  A worker is gone when its sentinel fires; a remote
        one (no local process) at EOF on its control connection — a local
        worker's EOF only retires the pipe, its sentinel follows.
        """
        waiting = {c: w for w, c in enumerate(self._conns) if w not in self._eof}
        waiting.update(
            (p.sentinel, w)
            for w, p in enumerate(self._procs)
            if p is not None and w not in self._gone
        )
        if not waiting:
            return
        for ready in mp_connection.wait(list(waiting), timeout):
            w = waiting[ready]
            conn = self._conns[w]
            if ready is not conn:  # a sentinel: the process exited
                self._gone.add(w)
                continue
            while True:
                try:
                    if not conn.poll(0):
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._eof.add(w)
                    if self._procs[w] is None:
                        self._gone.add(w)
                    break
                if msg[0] == "beat":
                    self._last_beat[msg[1]] = time.monotonic()
                    self._worker_epoch[msg[1]] = msg[2]
                elif msg[0] == "trace":
                    if self._collector is not None:
                        self._collector.add_worker_payload(f"worker {msg[1]}", msg[2])
                else:
                    self._inbox[w].append(msg)

    def _liveness_rows(self) -> list[tuple[int, str, float, int]]:
        """Per-worker ``(worker, tags, heartbeat_age_s, last_epoch)`` rows —
        the shared shape behind timeout messages and trace summaries."""
        now = time.monotonic()
        rows = []
        for w, beat in enumerate(self._last_beat):
            tag = " [remote]" if w < len(self._procs) and self._procs[w] is None else ""
            tag += " [pipe closed]" if w in self._eof else ""
            rows.append((w, tag, now - beat, self._worker_epoch[w]))
        return rows

    def _straggler_report(self) -> str:
        """Per-worker liveness table for timeout messages: heartbeat age and
        last completed epoch, so a timeout names the straggler."""
        return format_liveness(self._liveness_rows())

    def _drain_trace(self) -> None:
        """Move the launcher's own span buffer and a metrics row into the
        collector (cheap: nothing is rendered)."""
        if self._collector is None:
            return
        self._collector.add_wall("launcher", _trace.drain())
        _metrics.gauge("epochs_done", float(self._epochs_done))
        _metrics.gauge("restarts_used", float(self._restarts_used))
        _metrics.gauge_rusage()
        self._collector.add_metrics("launcher", self._epochs_done, _metrics.snapshot())

    def _flush_trace(self) -> None:
        """Rewrite the merged trace artifacts in ``trace_dir`` (idempotent).

        Renders every artifact from the whole collector, so it runs where
        the files must be on disk — on pool teardown (a failing command: the
        spans leading up to it survive) and from ``close()`` — and not per
        ``train()`` call, which only drains (a traced ``train(1)`` loop
        would otherwise be quadratic).
        """
        if self._collector is None:
            return
        self._drain_trace()
        rows = self._liveness_rows() if hasattr(self, "_last_beat") else None
        try:
            self._collector.write(self.trace_dir, liveness=rows)
        except OSError as err:  # disk trouble must not mask the training error
            logger.warning(
                "failed to write trace artifacts to %s: %s", self.trace_dir, err
            )

    def _check_failures(self) -> None:
        """Convert a gone worker / stale heartbeat into a typed raise."""
        if self._gone:
            self._worker_down(min(self._gone))
        if self._training and self.heartbeat_timeout is not None:
            now = time.monotonic()
            for w, beat in enumerate(self._last_beat):
                stale = now - beat
                if stale > self.heartbeat_timeout:
                    last = self._worker_epoch[w]
                    report = self._straggler_report()
                    self._stop_pool(graceful=False)
                    raise BarrierTimeout(
                        f"multiproc runtime failed: worker {w} heartbeat "
                        f"stale for {stale:.1f}s (> {self.heartbeat_timeout}s) "
                        f"— wedged mid-epoch after epoch {last}\n{report}",
                        worker_id=w,
                        last_epoch=last,
                    )

    def _worker_down(self, w: int):
        """A worker is gone: drain its final words, then raise typed."""
        self._pump(0)
        inbox = self._inbox[w]
        while inbox:
            kind, payload = inbox.popleft()
            if kind == "error":
                self._raise_worker_error(payload)
        last = self._worker_epoch[w]
        p = self._procs[w]
        lost = p is None
        if not lost:
            # a ready sentinel can precede waitpid by a moment (is_alive()
            # still true, exitcode None): reap before reading the exit code
            p.join(timeout=1.0)
        exitcode = None if lost else p.exitcode
        report = self._straggler_report()
        self._stop_pool(graceful=False)
        raise WorkerCrashed(
            f"multiproc runtime failed: worker {w} "
            + (
                "dropped its control connection (remote worker lost)"
                if lost
                else f"died (exit code {exitcode})"
            )
            + f" after epoch {last}\n{report}",
            worker_id=w,
            exitcode=exitcode,
            last_epoch=last,
        )

    def _raise_worker_error(self, payload):
        """Re-raise a worker's structured error report launcher-side, as the
        matching typed exception carrying the original traceback text.

        A tracing run's report carries the worker's crash-flushed telemetry
        buffers under ``"trace"`` — folded into the collector here so spans
        leading up to the failure survive into the exported trace.
        """
        report = self._straggler_report()
        if self._collector is not None:
            flushed = payload.pop("trace", None)
            if flushed is not None:
                self._collector.add_worker_payload(
                    f"worker {payload.get('worker')}", flushed
                )
        self._stop_pool(graceful=False)
        w = payload.get("worker")
        etype = payload.get("etype", "Exception")
        cls = _ETYPE_MAP.get(etype, WorkerFailed)
        message = (
            f"multiproc runtime failed: worker {w} raised {etype}: "
            f"{payload.get('message')}"
        )
        if cls is BarrierTimeout:  # a timeout names the straggler
            message += f"\n{report}"
        raise cls(
            message,
            worker_id=w,
            last_epoch=self._worker_epoch[w] if w is not None else None,
            traceback_text=payload.get("traceback"),
        )

    def _recv(self, w: int):
        """Wait for worker ``w``'s reply; liveness-based, not deadline-based.

        A long ``train`` command legitimately stays quiet between heartbeat
        beacons, so the launcher waits as long as the pool is healthy: the
        pump drains every pipe and watches every process sentinel while the
        failure checks act on what it found and (when enabled) on heartbeat
        staleness — a dead or wedged worker ends the wait in well under the
        bus barrier timeout.
        """
        inbox = self._inbox[w]
        while not inbox:
            self._pump(0.2)
            if not inbox:
                self._check_failures()
        kind, payload = inbox.popleft()
        if kind == "error":
            self._raise_worker_error(payload)
        return payload

    def _command(self, *msg) -> list:
        if self._closed:
            raise PlexusRuntimeError("multiproc trainer is closed")
        for w, conn in enumerate(self._conns):
            try:
                conn.send(msg)
            except (OSError, ValueError):
                self._worker_down(w)
        return [self._recv(w) for w in range(self.workers)]

    # -- trainer surface -------------------------------------------------------
    def train(self, epochs: int) -> TrainResult:
        """Run ``epochs`` across the pool; identical result to inproc.

        Per epoch, every worker reports ``(loss, t0, t1, comm, comp)`` with
        the per-rank second vectors of its slice; losses and epoch bounds
        are cube-global (the loss is all-reduced, the epoch barrier lifts
        every rank to the cube max) so they must agree across workers —
        asserted here — and the breakdown means are taken over the
        assembled ``(world,)`` vectors, bitwise like the inproc trainer.

        With ``checkpoint_dir`` set, training proceeds in
        ``checkpoint_every``-sized stretches with a checkpoint after each,
        and a recoverable worker failure triggers respawn-and-replay from
        the latest checkpoint instead of raising (until ``max_restarts``
        is exhausted).
        """
        if self._closed:
            raise PlexusRuntimeError("multiproc trainer is closed")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        start = self._epochs_done
        goal = start + epochs
        while self._epochs_done < goal:
            try:
                self._train_stretch(goal)
            except _RECOVERABLE as err:
                self._recover(err)
        self._drain_trace()
        result = TrainResult()
        result.epochs.extend(
            self._history[start - self._hist_base : goal - self._hist_base]
        )
        return result

    def _train_stretch(self, goal: int) -> None:
        """One train command (up to ``checkpoint_every`` epochs) + the
        checkpoint that seals it."""
        n = goal - self._epochs_done
        if self.checkpoint_dir is not None:
            n = min(n, self.checkpoint_every)
        self._training = True
        self._last_beat = [time.monotonic()] * self.workers
        try:
            with _trace.span(
                "launcher.train_stretch", n=n, start_epoch=self._epochs_done
            ):
                per_worker = self._command("train", n)
        finally:
            self._training = False
        stretch: list[EpochStats] = []
        for e in range(n):
            loss, t0, t1 = per_worker[0][e][:3]
            for w in range(1, self.workers):
                if per_worker[w][e][:3] != (loss, t0, t1):
                    self._stop_pool(graceful=False)
                    raise RendezvousDesync(
                        f"multiproc runtime failed: epoch "
                        f"{self._epochs_done + e}: workers disagree on "
                        "(loss, t0, t1) — the SPMD execution diverged"
                    )
            comm = np.concatenate([per_worker[w][e][3] for w in range(self.workers)])
            comp = np.concatenate([per_worker[w][e][4] for w in range(self.workers)])
            stretch.append(EpochStats.from_raw(loss, t0, t1, comm, comp))
        self._history.extend(stretch)
        self._epochs_done += n
        if self.checkpoint_dir is not None:
            self._save_checkpoint()

    def _recover(self, err: PlexusRuntimeError) -> None:
        """Respawn-and-replay: bounded retries with exponential backoff."""
        if self.checkpoint_dir is None:
            raise err
        if self._restarts_used >= self.max_restarts:
            logger.error(
                "giving up after %d restart(s): %s",
                self._restarts_used,
                type(err).__name__,
            )
            raise err
        self._restarts_used += 1
        if _trace.enabled:
            _trace.instant(
                "launcher.recover",
                error=type(err).__name__,
                worker=err.worker_id,
                restart=self._restarts_used,
            )
        found = ckpt.latest_checkpoint(self.checkpoint_dir)
        epoch, restore = (0, None) if found is None else (found[0], (str(found[1]), found[0]))
        delay = self.restart_backoff * (2 ** (self._restarts_used - 1))
        logger.warning(
            "worker failure (%s: worker %s, last epoch %s); restart %d/%d "
            "from epoch %d after %.2fs backoff",
            type(err).__name__,
            err.worker_id,
            err.last_epoch,
            self._restarts_used,
            self.max_restarts,
            epoch,
            delay,
        )
        time.sleep(delay)
        if restore is None:
            self._hist_base = 0  # full replay from scratch re-records everything
        del self._history[max(0, epoch - self._hist_base) :]
        self._epochs_done = epoch
        self._spawn_pool(restore, clean=True)

    def _save_checkpoint(self) -> None:
        """Checkpoint the pool at the current epoch boundary.

        Workers write their own slice files into a temp directory (parallel
        I/O); the launcher seals it with the manifest and renames it into
        place, so a torn checkpoint is never mistaken for a complete one.
        """
        epoch = self._epochs_done

        def write_slices(tmp: Path) -> list:
            with _trace.span("launcher.checkpoint", epoch=epoch):
                return [list(ack) for ack in self._command("checkpoint", str(tmp))]

        ckpt.seal_checkpoint(
            self.checkpoint_dir,
            epoch,
            write_slices,
            backend=self.backend,
            world=self.spec.config.total,
            layer_dims=self.spec.layer_dims,
            history=self._history,
            keep=self.keep_checkpoints,
            tag=f"-{self._session[-8:]}",
        )

    def _check_manifest(self, manifest: dict) -> None:
        if manifest.get("world") != self.spec.config.total or list(
            manifest.get("layer_dims", [])
        ) != list(self.spec.layer_dims):
            raise CheckpointError(
                f"checkpoint in {self.checkpoint_dir} was written for "
                f"world={manifest.get('world')}, "
                f"dims={manifest.get('layer_dims')} — this workload is "
                f"world={self.spec.config.total}, dims={list(self.spec.layer_dims)}"
            )

    @property
    def epochs_done(self) -> int:
        """Epochs completed so far (including any resumed from checkpoint)."""
        return self._epochs_done

    @property
    def history(self) -> list[EpochStats]:
        """Completed epochs' stats, oldest first.  Starts at epoch 0 unless
        the trainer resumed from a manifest with missing epoch history (a
        checkpoint written without it), in which case the leading resumed
        epochs are absent."""
        return list(self._history)

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

    def load_reports(self) -> list[LoadReport | None]:
        return self.state()["load_reports"]

    def ping(self) -> list[int]:
        """Liveness round-trip on every control pipe; returns worker ids."""
        return self._command("ping")

    def reset(self) -> None:
        """Zero every worker's clocks and timelines (between runs)."""
        self._command("reset")
        self._history = []
        self._hist_base = 0
        self._epochs_done = 0

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
            self._stop_pool(graceful=True)
        finally:
            if self._collector is not None:
                _trace.disable()  # (discards the buffer: after the flush)

    def __enter__(self) -> "MultiprocTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - backstop only
        try:
            self.close()
        except Exception:
            pass

    # -- test hook -------------------------------------------------------------
    def _crash_worker(self, w: int) -> None:
        """Hard-kill one worker (``os._exit``) — the crash-cleanup tests."""
        self._conns[w].send(("crash",))
        if self._procs[w] is not None:
            self._procs[w].join(timeout=self.timeout)


def host_workers(
    rendezvous: str = "auto", workers: int = 1, rediscover_grace: float = 10.0
) -> int:
    """The ``repro host`` secondary launcher: attach workers to a primary.

    Spawns ``workers`` local processes that dial the primary launcher's
    rendezvous and serve as pool members (the primary must run with
    ``remote_workers`` > 0 so slots are left for them).  When the pool ends
    — clean close, or the primary respawning after a failure — the worker
    processes exit and this loop rediscovers the rendezvous: a respawned
    primary publishes a fresh port file, so recovery re-attaches
    automatically.  Returns the number of pool sessions served, once no
    live rendezvous reappears within ``rediscover_grace`` seconds (primary
    done or dead).  With an explicit ``host:port`` (no port file to watch)
    a single session is served.
    """
    from repro.runtime.rendezvous import resolve_rendezvous

    if workers < 1:
        raise ValueError("workers must be >= 1")
    ctx = mp.get_context("spawn")
    served = 0
    while True:
        deadline = time.monotonic() + rediscover_grace
        while True:
            try:
                host, port, authkey = resolve_rendezvous(rendezvous)
                break
            except PlexusRuntimeError:
                if served and time.monotonic() < deadline:
                    time.sleep(0.25)  # a recovering primary may republish
                    continue
                return served
        procs: list = []
        _start_workers(
            procs, ctx, worker_main_tcp, [(None, host, port, authkey)] * workers,
            name="plexus-remote-worker",
        )
        for p in procs:
            p.join()
        served += 1
        logger.info("pool session at %s:%s ended (%d served)", host, port, served)
        if rendezvous != "auto" and not (
            os.path.sep in rendezvous or rendezvous.endswith(".rdv")
        ):
            return served  # direct address: nothing to rediscover
        time.sleep(0.2)  # let a closing primary retire its port file


def build_trainer(spec: WorkloadSpec, backend: str = "inproc", **kwargs):
    """The backend seam: one workload description, either trainer.

    ``"inproc"`` builds the whole cube in this process — a
    :class:`~repro.core.trainer.PlexusTrainer`, the parity oracle: the
    whole-cube, no-bus call of the builder every worker runs
    (:func:`~repro.runtime.worker.build_worker`), so a ``shard_dir`` spec
    loads the same way; ``"multiproc"`` launches the worker pool (``kwargs``
    pass through to :class:`MultiprocTrainer`: checkpointing, supervision,
    timeouts).
    """
    if backend == "multiproc":
        return MultiprocTrainer(spec, **kwargs)
    if backend != "inproc":
        raise ValueError(f"unknown backend {backend!r} (known: inproc, multiproc)")
    if kwargs:
        raise ValueError(f"backend='inproc' takes no launcher options: {sorted(kwargs)}")
    return build_worker(spec).trainer
