"""Worker side of the multi-process runtime.

Plexus is SPMD, and so is this runtime: a worker process runs the program
the in-process backend runs — :class:`~repro.dist.cluster.VirtualCluster`,
:class:`~repro.core.grid.PlexusGrid`, :class:`~repro.core.model.PlexusGCN`,
:class:`~repro.core.trainer.PlexusTrainer` — on a contiguous slice of the
rank cube.  Slices are whole z-planes (:func:`worker_slice`), so under the
``(Gz, Gx, Gy)`` cube layout every X- and Y-axis process group is
worker-local and only the Z axis and the epoch barrier cross workers; both
reach the other slices through the transport bus's ``exchange`` byte mover
the cluster is given.  The whole cube in one process is the one-slice,
no-bus case of the same builder.

* :func:`build_worker` — the one path from a workload spec to a trainer:
  cluster, data (in-memory from the spec, or only this slice's blocks of a
  :class:`~repro.graph.shardio.ShardedDataLoader` directory), model,
  trainer.  ``launch.build_trainer(spec, "inproc")`` is its whole-cube
  call.
* :func:`worker_main` — the one spawned-process entry point, both
  transports.  A worker starts from its preferred id, the launcher's
  rendezvous address and key, the shm bus handle (``None`` on tcp) and its
  share of its host's CPUs (the cap on its SpMM splits) only, dials the
  rendezvous once it has imported (its hello), then reads the workload
  spec from that control connection, opens the bus, builds the slice, and
  serves the launcher's command loop (train / checkpoint / load /
  evaluate / state / close).  The bus is closed on *any* exit path.

Parity: the slice-local execution is bitwise identical to the in-process
run restricted to those ranks — X/Y collectives reduce the same operand
sub-cubes in the same order, Z collectives replicate the full-cube math
(see :mod:`repro.runtime.shm`), and all per-rank state (weights, Adam
moments, clocks, phase totals) lives at the same values.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.configs import PlexusOptions
from repro.core.grid import GridConfig, PlexusGrid, axis_roles
from repro.core.model import PlexusGCN
from repro.core.permutation import build_scheme
from repro.core.sharding import LayerSharding
from repro.core.trainer import PlexusTrainer
from repro.dist.cluster import VirtualCluster
from repro.errors import PlexusRuntimeError
from repro.graph.shardio import LoadReport, ShardedDataLoader
from repro.obs import trace as _trace
from repro.obs.log import set_worker as _set_log_worker
from repro.obs.metrics import registry as _metrics
from repro.runtime import checkpoint as ckpt
from repro.runtime import net
from repro.runtime import rendezvous as rdv
from repro.runtime.faults import build_injector
from repro.runtime.shm import BusHandle, ShmBus
from repro.sparse.ops import parallelism, set_cpu_share
from repro.sparse.partition import block_slice

__all__ = ["WorkerContext", "build_worker", "worker_slice", "worker_main", "NOT_JOINED"]

#: the exit code of a worker that never joined its pool (the rendezvous
#: refused it, never answered or sent no welcome); it names the error on
#: stderr first
NOT_JOINED = 3


def worker_slice(config: GridConfig, n_workers: int, worker_id: int) -> tuple[int, int]:
    """Global rank bounds ``[lo, hi)`` of one worker's cube slice.

    Workers split the cube's leading (Z) axis into contiguous quasi-equal
    plane chunks, so a worker always owns whole z-planes and only Z-axis
    collectives cross worker boundaries.
    """
    if not 1 <= n_workers <= config.gz:
        raise ValueError(
            f"workers must be in [1, Gz={config.gz}] (each worker owns at "
            f"least one whole z-plane), got {n_workers}"
        )
    plane = config.gx * config.gy
    zs = block_slice(config.gz, n_workers, worker_id)
    return zs.start * plane, zs.stop * plane


# ---------------------------------------------------------------------------
# data construction
# ---------------------------------------------------------------------------


@dataclass
class WorkerContext:
    """What a built slice holds between launcher commands: the trainer
    (whose ``model`` has the cluster and the grid) and how its data was read."""

    trainer: PlexusTrainer
    load_report: LoadReport | None


def load_worker_shards(
    loader: ShardedDataLoader,
    grid: PlexusGrid,
    layer_dims: list[int],
    options: PlexusOptions,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Read only the file row blocks holding the node rows the grid's held
    ranks need (Sec. 5.4; every block, for the whole cube).

    A shard's rows are rows of a permuted matrix; the run's permutation
    scheme — the one :class:`~repro.core.model.PlexusGCN` draws — maps them
    back to node ids, which the loader reads wherever they sit: under a
    permutation scattered over every block, without one the blocks of the
    held ranks' row ranges.  Returns globally-shaped ``(a_norm, features,
    labels)`` in node order whose rows outside those node ids are zero — the
    model builder only ever cuts the held ranks' rows, so the zero filler
    is never read.  The directory must hold the *normalized* adjacency.
    """
    n = loader.n_nodes
    scheme = build_scheme(n, options.permutation, options.seed)
    n_layers = len(layer_dims) - 1
    shardings = [
        LayerSharding(grid.config, axis_roles(i), n, layer_dims[i], layer_dims[i + 1])
        for i in range(n_layers)
    ]

    def node_ids(perm: np.ndarray, cut) -> np.ndarray:
        return np.unique(np.concatenate([perm[cut(grid, r)] for r in range(grid.world_size)]))

    # adjacency: whole rows of every layer's A-row slices (A's columns
    # rotate through every block across layers), placed at their node ids
    rows = np.unique(
        np.concatenate(
            [node_ids(scheme.layer_row_perm(i), sh.a_row_slice) for i, sh in enumerate(shardings)]
        )
    )
    band = loader.load_adjacency(rows, slice(0, n))
    indptr = np.zeros(n + 1, dtype=band.indptr.dtype)
    indptr[rows + 1] = np.diff(band.indptr)
    a_norm = sp.csr_matrix((band.data, band.indices, np.cumsum(indptr, out=indptr)), shape=(n, n))
    # features: the layer-0 z-sub-sharded input rows; labels: the final
    # layer's output rows
    features = np.zeros((n, layer_dims[0]), dtype=np.dtype(loader.manifest["feature_dtype"]))
    ids = node_ids(scheme.input_perm(), shardings[0].f_row_subslice_z)
    features[ids] = loader.load_features(ids)
    labels = np.zeros(n, dtype=np.int64)
    ids = node_ids(scheme.output_perm(n_layers), shardings[-1].out_row_slice)
    labels[ids] = loader.load_labels(ids)
    return a_norm, features, labels


def build_worker(spec, worker_id: int = 0, bus=None) -> WorkerContext:
    """The one path from a workload spec to a trainer: cluster, data, model.

    Behind a transport ``bus`` the cluster holds worker ``worker_id``'s
    slice of the cube and reaches the others through ``bus.exchange``;
    without one it holds the whole cube (the in-process backend, which
    ignores ``spec.workers``).  ``spec.trace`` mirrors every simulated-clock
    charge into a :class:`~repro.obs.trace.SimSink` (worker 0's becomes the
    merged trace's simulated tracks; the others deduplicate launcher-side).
    """
    if bus is None:
        cluster = VirtualCluster(spec.config.total, spec.machine)
    else:
        lo, hi = worker_slice(spec.config, spec.workers, worker_id)
        cluster = VirtualCluster(hi - lo, spec.machine, lo=lo, exchange=bus.exchange)
    if spec.trace:
        cluster.store.trace = _trace.SimSink()
    load_report = None
    if spec.shard_dir is not None:
        loader = ShardedDataLoader(spec.shard_dir)
        a_norm, features, labels = load_worker_shards(
            loader, PlexusGrid(cluster, spec.config), spec.layer_dims, spec.options
        )
        load_report = loader.report
    else:
        a_norm, features, labels = spec.adjacency, spec.features, spec.labels
    model = PlexusGCN(
        cluster,
        spec.config,
        a_norm,
        features,
        labels,
        spec.train_mask,
        spec.layer_dims,
        spec.options,
    )
    return WorkerContext(trainer=PlexusTrainer(model), load_report=load_report)


# ---------------------------------------------------------------------------
# process entry point
# ---------------------------------------------------------------------------


def _worker_state(ctx: WorkerContext) -> dict:
    """The slice-local state the launcher assembles for parity checks: the
    books and weights as a checkpoint slice captures them, plus the load
    report."""
    return {**ckpt.capture_books(ctx.trainer.model), "load_report": ctx.load_report}


def _drain_trace_payload(cluster: VirtualCluster | None, epochs_done: int) -> dict:
    """This process's telemetry since the last drain, as one picklable dict
    (``cluster`` is ``None`` when the build never got that far).

    Ships the wall-clock event buffer, a cumulative metrics snapshot
    (per-phase simulated totals refreshed as gauges), and — when a
    :class:`~repro.obs.trace.SimSink` is attached — the simulated-clock
    charge mirror and link-occupancy windows.
    """
    sim: list = []
    links: list = []
    lo = 0
    world = None
    if cluster is not None:
        sink = cluster.store.trace
        if sink is not None:
            sim, links = sink.drain()
        for ph, bucket in cluster.store.by_phase.items():
            _metrics.gauge("sim_phase:" + ph, float(bucket.sum()))
        # the store indexes the held ranks from 0; the collector rebases
        lo = cluster.lo
        world = cluster.world_size
    _metrics.gauge("last_epoch", epochs_done)
    _metrics.gauge_process(*parallelism())
    return {
        "events": _trace.drain(),
        "metrics": _metrics.snapshot(),
        "sim": sim,
        "links": links,
        "lo": lo,
        "world": world,
        "epoch": epochs_done,
    }


def _report_error(
    conn, worker_id: int, exc: BaseException, cluster: VirtualCluster | None = None,
    epochs_done: int = -1,
) -> None:
    """Best-effort structured failure report to the launcher.

    When tracing is on, the dying worker's undrained telemetry rides the
    error payload — the crash-flush guarantee: the last trace of a worker
    that raises survives into the merged trace.  (A ``"die"`` fault is
    ``os._exit`` by design and flushes nothing, like a real SIGKILL.)
    """
    payload = {
        "worker": worker_id,
        "etype": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }
    if _trace.enabled:
        try:
            payload["trace"] = _drain_trace_payload(cluster, epochs_done)
        except Exception:
            pass
    try:
        conn.send(("error", payload))
    except Exception:
        pass


def _serve(worker_id: int, conn, open_bus) -> None:
    """What every transport's worker does once it knows its id: read the
    launcher's ``("spec", spec, timeout)`` message, build the fault
    injector, open the bus (``open_bus(faults, timeout)``), build the slice,
    serve the command loop.

    A ``("load", path, epoch)`` command restores the slice from a
    checkpoint, and the epoch counter (heartbeat beacons, fault targeting)
    continues from ``epoch``.

    The loop sends a ``("beat", worker, epochs_done)`` heartbeat after
    every epoch of a ``train`` command — the supervisor's liveness signal
    and its record of where replay must resume (the beats ride the
    rendezvous control connection).  Failures — of the bus, the build
    or a command — are reported as a structured dict (exception type,
    message, and the full traceback text) so the launcher can re-raise a
    typed exception carrying the original traceback.  Every exit path —
    clean close, a raised error (including the trainer's
    ``check_outstanding``), or KeyboardInterrupt — closes this endpoint's
    bus (shared-memory mappings or sockets); the launcher owns segment
    unlinking.
    """
    bus = cluster = None
    epochs_done = 0
    _set_log_worker(worker_id)
    try:
        kind, spec, timeout = conn.recv()
        if kind != "spec":
            raise PlexusRuntimeError(f"launcher protocol: expected spec, got {kind!r}")
        if spec.trace:
            _trace.enable(f"worker {worker_id}")
        faults = build_injector(spec.faults, worker_id)
        bus = open_bus(faults, timeout)
        ctx = build_worker(spec, worker_id, bus)
        trainer = ctx.trainer
        cluster = trainer.model.cluster
        conn.send(("ready", worker_id))
        while True:
            msg = conn.recv()
            cmd, args = msg[0], msg[1:]
            if cmd == "train":
                raws = []
                for _ in range(args[0]):
                    if faults is not None:
                        faults.start_epoch(epochs_done)
                    with _trace.span("worker.epoch", epoch=epochs_done):
                        raws.append(trainer.train_epoch_raw())
                    epochs_done += 1
                    if faults is not None:
                        faults.fire("post_epoch", bus)
                    conn.send(("beat", worker_id, epochs_done))
                    # flush telemetry at the epoch barrier, piggybacked on
                    # the heartbeat cadence of the control plane
                    if _trace.enabled:
                        conn.send(
                            ("trace", worker_id, _drain_trace_payload(cluster, epochs_done))
                        )
                conn.send(("epochs", raws))
            elif cmd == "checkpoint":
                ckpt.write_worker_state(args[0], ckpt.model_state(trainer.model))
                conn.send(("ok", (cluster.lo, cluster.hi)))
            elif cmd == "load":
                trainer.load_checkpoint(args[0])
                epochs_done = args[1]
                conn.send(("ok", None))
            elif cmd == "evaluate":
                conn.send(("value", trainer.evaluate(args[0])))
            elif cmd == "state":
                conn.send(("state", _worker_state(ctx)))
            elif cmd == "close":
                conn.send(("ok", None))
                return
            else:
                raise PlexusRuntimeError(f"unknown worker command {cmd!r}")
    except BaseException as exc:
        _report_error(conn, worker_id, exc, cluster, epochs_done)
    finally:
        if bus is not None:
            bus.close()
        try:
            conn.close()
        except Exception:
            pass


def worker_main(
    preferred_id: int | None,
    host: str,
    port: int,
    authkey: bytes,
    bus_handle: BusHandle | None,
    share: int,
) -> None:
    """Spawned-process entry, both transports: rendezvous, then serve.

    Dials the launcher's rendezvous (its hello), authenticates, and
    receives the worker id and the signed membership manifest over the
    control connection — which then carries the spec message
    :func:`_serve` reads, the command loop and the heartbeats.  With a
    ``bus_handle`` the worker attaches that shm session and opens no peer
    listener (its hello carries no address); without one (tcp, and every
    ``repro host`` worker) it opens its peer-plane listener *first*, so its
    port can be advertised, and wires the tcp mesh from the manifest.
    ``share`` is this worker's share of the CPUs of the host that spawned
    it, its one thread budget: the cap on its splits (its BLAS runs one
    thread, pinned by :mod:`repro`).  A worker that never joins exits
    :data:`NOT_JOINED`.

    The arguments are small on purpose: spawn's ``start()`` writes them into
    a pipe the child reads only after its imports, so a large argument (the
    spec) would make the launcher wait for each worker's imports in turn.
    """
    set_cpu_share(share)
    # the tcp bus closes the listener once it owns it; ``with`` covers every
    # path on which it never does
    with nullcontext() if bus_handle is not None else net.peer_listener(16) as listener:
        conn = None
        wid = preferred_id if preferred_id is not None else -1
        try:
            conn, local_host = rdv.connect_rendezvous(host, port, authkey)
            addr = None if listener is None else (local_host, listener.getsockname()[1])
            conn.send(("hello", preferred_id, addr))
            kind, wid, blob, sig = conn.recv()
            if kind != "welcome":
                raise PlexusRuntimeError(f"rendezvous protocol: expected welcome, got {kind!r}")
            info = rdv.verify_manifest(authkey, blob, sig)
        except BaseException as exc:
            if conn is not None:
                _report_error(conn, wid, exc)
                try:
                    conn.close()
                except Exception:
                    pass
            print(f"plexus worker: never joined the pool at {host}:{port}: {exc}", file=sys.stderr)
            raise SystemExit(NOT_JOINED) from None
        if bus_handle is not None:
            def open_bus(faults, _timeout):  # the bus timeout is the handle's
                return ShmBus(bus_handle, worker_id=wid, faults=faults)
        else:
            peers = {int(k): (h, int(p)) for k, (h, p) in info["peers"].items()}

            def open_bus(faults, timeout):
                return net.TcpBus(listener, peers, wid, info["session"], authkey, timeout, faults=faults)
        _serve(wid, conn, open_bus)
