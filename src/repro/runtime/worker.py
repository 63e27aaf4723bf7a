"""Worker side of the multi-process runtime.

Each worker process owns a contiguous slice of the rank cube — whole
z-planes, so under the ``(Gz, Gx, Gy)`` cube layout every X- and Y-axis
process group is worker-local and only Z-axis collectives cross workers:

* :class:`WorkerCluster` — a :class:`~repro.dist.cluster.VirtualCluster`
  whose :class:`~repro.dist.cluster.ClockStore` covers only the local ranks
  (each :class:`VirtualRank` keeps its *global* rank id and node), and whose
  ``barrier`` is the true global barrier: clock slices rendezvous over the
  bus and every rank is lifted to the cube-wide maximum.
* :class:`WorkerGrid` — the grid seam handed to :class:`PlexusGCN`: it
  exposes the ``PlexusGrid`` surface (``world_size``, ``coord``,
  ``comm(axis)``) for the local slice, building real in-process
  communicators for the X and Y axes and the same
  :class:`~repro.dist.comm.AxisCommunicator` for ``comm(Z)``, fed through
  the transport bus's ``exchange`` byte mover.  Every
  ``range(grid.world_size)`` loop in the model then builds local shards
  only, and every collective call site works unchanged.
* :func:`worker_main` — the spawned process entry point: builds data
  (in-memory from the spec, or reading only its own blocks of a
  :class:`~repro.graph.shardio.ShardedDataLoader` directory), constructs
  the model, and serves the launcher's command loop (train / evaluate /
  state / reset / close) over a pipe.  The bus is closed on *any* exit path.

Parity: the slice-local execution is bitwise identical to the in-process
run restricted to those ranks — X/Y collectives reduce the same operand
sub-cubes in the same order, Z collectives replicate the full-cube math
(see :mod:`repro.runtime.shm`), and all per-rank state (weights, Adam
moments, clocks, phase totals) lives at the same values.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.batch import stack_data
from repro.core.configs import PlexusOptions
from repro.core.grid import Axis, GridConfig, _grid_coords, axis_roles
from repro.core.model import PlexusGCN
from repro.core.sharding import LayerSharding
from repro.core.trainer import PlexusTrainer
from repro.dist.cluster import ClockStore, VirtualCluster, VirtualRank
from repro.dist.collectives import AxisComm
from repro.dist.comm import AxisCommunicator
from repro.dist.group import ProcessGroup, axis_bandwidth
from repro.dist.topology import MachineSpec
from repro.errors import PlexusRuntimeError, UnsupportedWorkload
from repro.graph.shardio import LoadReport, ShardedDataLoader
from repro.obs import trace as _trace
from repro.obs.log import set_worker as _set_log_worker
from repro.obs.metrics import registry as _metrics
from repro.runtime import checkpoint as ckpt
from repro.runtime.faults import build_injector
from repro.runtime.shm import BusHandle, ShmBus
from repro.sparse.partition import block_slices

__all__ = ["WorkerCluster", "WorkerGrid", "worker_slice", "worker_main", "worker_main_tcp"]


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
    zs = block_slices(config.gz, n_workers)[worker_id]
    return zs.start * plane, zs.stop * plane


class WorkerCluster(VirtualCluster):
    """The local slice ``[lo, hi)`` of a world-sized virtual cluster."""

    def __init__(
        self, machine: MachineSpec, lo: int, hi: int, bus: ShmBus | None = None
    ) -> None:
        if not 0 <= lo < hi:
            raise ValueError("need 0 <= lo < hi")
        self.world_size = hi - lo  # local world: sized like the store
        self.machine = machine
        self.lo, self.hi = lo, hi
        self.store = ClockStore(hi - lo)
        self._bus = bus
        self._ranks = [
            VirtualRank(r, machine.node_of(r), machine.device, store=self.store, index=r - lo)
            for r in range(lo, hi)
        ]

    def barrier(self, phase: str = "comm:barrier") -> None:
        """The *global* barrier: every rank of the cube is lifted to the
        cube-wide maximum clock, stragglers' wait charged to ``phase``."""
        if self._bus is None:
            return super().barrier(phase)
        t0 = time.monotonic() if _trace.enabled else 0.0
        with _trace.span("barrier.exchange", phase=phase):
            (parts,) = self._bus.exchange([self.store.clocks])
        if _trace.enabled:
            _metrics.observe("barrier_wait_s", time.monotonic() - t0)
        t = np.concatenate(parts).max()
        clocks = self.store.clocks
        waits = t - clocks
        clocks[:] = t
        self.store.record_all(phase, waits)


class WorkerGrid:
    """The local-slice grid view handed to :class:`PlexusGCN`.

    ``world_size`` is the *local* rank count, and indices into this grid are
    local (0-based within the slice); ``coord`` translates them to global
    cube coordinates, so the :class:`~repro.core.sharding.LayerSharding`
    slicers produce each local rank's correct global shard slices.
    """

    backend = "multiproc"

    def __init__(self, cluster: WorkerCluster, config: GridConfig, bus: ShmBus) -> None:
        plane = config.gx * config.gy
        if cluster.lo % plane or cluster.hi % plane:
            raise ValueError("worker slice must cover whole z-planes")
        self.cluster = cluster
        self.config = config
        self.world_size = cluster.hi - cluster.lo
        self._coords = _grid_coords(config.gx, config.gy, config.gz)[cluster.lo : cluster.hi]
        local_z = self.world_size // plane
        #: the *local* rank cube (this worker's z-planes) the model's stacked
        #: tensors are laid out on — ``PlexusGrid.cube`` of the slice
        self.cube = (local_z, config.gx, config.gy)
        machine = cluster.machine
        self._groups: dict[Axis, list[ProcessGroup]] = {}
        for axis in (Axis.X, Axis.Y):
            self._build_axis_groups(axis)
        self._axis_comms = {
            axis: AxisComm(
                store=cluster.store,
                cube=self.cube,
                axis=(1, 2)[axis == Axis.Y],
                size=config.size(axis),
                bandwidth=self._groups[axis][0].bandwidth,
                latency=self._groups[axis][0].latency,
            )
            for axis in (Axis.X, Axis.Y)
        }
        # the worker-crossing axis: the full-cube Z descriptor over the
        # local store, its clocks and operand planes moved by the bus
        z_comm = AxisComm(
            store=cluster.store,
            cube=(config.gz, config.gx, config.gy),
            axis=0,
            size=config.gz,
            bandwidth=axis_bandwidth(machine, config.gz, config.inner_size(Axis.Z)),
            latency=machine.latency,
        )
        self._comms: dict[Axis, AxisCommunicator] = {
            Axis.Z: AxisCommunicator(
                z_comm,
                issue_overhead_s=machine.issue_overhead_s,
                exchange=bus.exchange,
                z0=cluster.lo // plane,
            )
        }

    # -- rank mapping (local index -> global coordinates) ----------------------
    def coords(self, rank: int) -> tuple[int, int, int]:
        return self._coords[rank]

    def coord(self, rank: int, axis: Axis) -> int:
        return self._coords[rank][axis]

    # -- groups / communicators ------------------------------------------------
    def _build_axis_groups(self, axis: Axis) -> None:
        cfg = self.config
        bw = axis_bandwidth(self.cluster.machine, cfg.size(axis), cfg.inner_size(axis))
        buckets: dict[tuple, list[int]] = {}
        for li, c in enumerate(self._coords):
            key = tuple(v for a, v in zip(Axis, c) if a != axis)
            buckets.setdefault(key, []).append(li)
        groups = []
        for key, members in sorted(buckets.items()):
            members.sort(key=lambda li: self._coords[li][axis])
            groups.append(
                ProcessGroup(
                    members=[self.cluster[li] for li in members],
                    machine=self.cluster.machine,
                    bandwidth=bw,
                    name=f"{axis.name.lower()}{key}",
                )
            )
        self._groups[axis] = groups

    def comm(self, axis: Axis):
        comm = self._comms.get(axis)
        if comm is None:
            comm = self._comms[axis] = AxisCommunicator(
                self._axis_comms[axis],
                self._groups[axis],
                issue_overhead_s=self.cluster.machine.issue_overhead_s,
            )
        return comm


# ---------------------------------------------------------------------------
# data construction
# ---------------------------------------------------------------------------


@dataclass
class WorkerContext:
    """Everything one worker holds between launcher commands."""

    worker_id: int
    cluster: WorkerCluster
    grid: WorkerGrid
    model: PlexusGCN
    trainer: PlexusTrainer
    load_report: LoadReport | None


def _merge_intervals(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def load_worker_shards(
    loader: ShardedDataLoader,
    grid: WorkerGrid,
    layer_dims: list[int],
    options: PlexusOptions,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Read only the file blocks this worker's ranks need (Sec. 5.4).

    Returns globally-shaped ``(a_norm, features, labels)`` arrays whose
    entries outside the worker's shard rows are zero — the model builder
    only ever slices the local ranks' rows out of them, so the zero filler
    is never read.  The directory must hold the *normalized* adjacency and
    must be used with ``permutation="none"`` (a global permutation would
    make every row non-local).
    """
    if options.permutation != "none":
        raise UnsupportedWorkload(
            "loading from a sharded directory requires permutation='none': "
            "a global node permutation would scatter every worker's shard "
            "rows across all file blocks"
        )
    n = loader.n_nodes
    config, world = grid.config, grid.world_size
    n_layers = len(layer_dims) - 1
    shardings = [
        LayerSharding(config, axis_roles(i), n, layer_dims[i], layer_dims[i + 1])
        for i in range(n_layers)
    ]
    # adjacency rows: union over layers of the local ranks' A-row slices
    # (whole rows: A's columns rotate through every block across layers)
    row_spans = _merge_intervals(
        [
            (s.start, s.stop)
            for sh in shardings
            for s in (sh.a_row_slice(grid, r) for r in range(world))
        ]
    )
    parts: list[sp.csr_matrix] = []
    cursor = 0
    for lo, hi in row_spans:
        if lo > cursor:
            parts.append(sp.csr_matrix((lo - cursor, n)))
        parts.append(loader.load_adjacency(slice(lo, hi), slice(0, n)))
        cursor = hi
    if cursor < n:
        parts.append(sp.csr_matrix((n - cursor, n)))
    a_norm = sp.vstack(parts, format="csr") if len(parts) > 1 else parts[0].tocsr()
    # features: the layer-0 z-sub-sharded input rows of the local ranks
    s0 = shardings[0]
    features = np.zeros((n, layer_dims[0]), dtype=np.dtype(loader.manifest["feature_dtype"]))
    for lo, hi in _merge_intervals(
        [(s.start, s.stop) for s in (s0.f_row_subslice_z(grid, r) for r in range(world))]
    ):
        features[lo:hi] = loader.load_features(slice(lo, hi))
    # labels: the final layer's output rows of the local ranks
    final = shardings[-1]
    labels = np.zeros(n, dtype=np.int64)
    for lo, hi in _merge_intervals(
        [(s.start, s.stop) for s in (final.out_row_slice(grid, r) for r in range(world))]
    ):
        labels[lo:hi] = loader.load_labels(slice(lo, hi))
    return a_norm, features, labels


def build_worker(spec, worker_id: int, bus: ShmBus) -> WorkerContext:
    """Construct one worker's cluster, grid, model and trainer."""
    lo, hi = worker_slice(spec.config, spec.workers, worker_id)
    cluster = WorkerCluster(spec.machine, lo, hi, bus=bus)
    grid = WorkerGrid(cluster, spec.config, bus)
    load_report = None
    if spec.shard_dir is not None:
        loader = ShardedDataLoader(spec.shard_dir)
        a_norm, features, labels = load_worker_shards(
            loader, grid, spec.layer_dims, spec.options
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
        grid=grid,
    )
    validate_multiproc_model(model)
    return WorkerContext(
        worker_id=worker_id,
        cluster=cluster,
        grid=grid,
        model=model,
        trainer=PlexusTrainer(model),
        load_report=load_report,
    )


def validate_multiproc_model(model: PlexusGCN) -> None:
    """The multiproc backend's restrictions, checked loudly: padded
    (non-uniform) stacks and the stateful SpMM noise sampler (whose single
    RNG stream draws in *global* rank order) stay inproc-only.  Uniformity
    is the whole cube's (``LayerSharding.is_uniform``), so every worker
    refuses a ragged ``shard_dir`` workload here, at build time — the
    launcher, which never learns N, cannot.
    """
    if not model.uniform:
        raise UnsupportedWorkload(
            "backend='multiproc' requires divisible (uniform) sharding: "
            "quasi-equal padded stacks have no shared-memory collective path "
            "yet — use backend='inproc' for indivisible configurations"
        )
    if model.options.noise is not None:
        raise UnsupportedWorkload(
            "backend='multiproc' does not support the SpMM noise model (its "
            "RNG stream draws in global rank order); use backend='inproc'"
        )


# ---------------------------------------------------------------------------
# process entry point
# ---------------------------------------------------------------------------


def _worker_state(ctx: WorkerContext) -> dict:
    """The slice-local state the launcher assembles for parity checks."""
    store = ctx.cluster.store
    weights = {f"W{i}": stack_data(layer.w_stack) for i, layer in enumerate(ctx.model.layers)}
    if ctx.model.options.trainable_features:
        weights["F0"] = stack_data(ctx.model.f0_stack)
    return {
        "lo": ctx.cluster.lo,
        "hi": ctx.cluster.hi,
        "clocks": store.clocks.copy(),
        "by_phase": {k: v.copy() for k, v in store.by_phase.items()},
        "by_category": {k: v.copy() for k, v in store.by_category.items()},
        "weights": weights,
        "load_report": ctx.load_report,
    }


def _drain_trace_payload(ctx: WorkerContext | None, epochs_done: int) -> dict:
    """This process's telemetry since the last drain, as one picklable dict.

    Ships the wall-clock event buffer, a cumulative metrics snapshot
    (per-phase simulated totals refreshed as gauges), and — when a
    :class:`~repro.obs.trace.SimSink` is attached — the simulated-clock
    charge mirror and link-occupancy windows.
    """
    sim: list = []
    links: list = []
    lo = 0
    world = None
    if ctx is not None:
        sink = ctx.cluster.store.trace
        if sink is not None:
            sim, links = sink.drain()
        for ph, bucket in ctx.cluster.store.by_phase.items():
            _metrics.gauge("sim_phase:" + ph, float(bucket.sum()))
        # the slice-local store indexes ranks from 0; the collector rebases
        lo = ctx.cluster.lo
        world = ctx.cluster.hi - ctx.cluster.lo
    _metrics.gauge("last_epoch", epochs_done)
    _metrics.gauge_rusage()
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
    conn, worker_id: int, exc: BaseException, ctx: WorkerContext | None = None,
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
            payload["trace"] = _drain_trace_payload(ctx, epochs_done)
        except Exception:
            pass
    try:
        conn.send(("error", payload))
    except Exception:
        pass


def _serve(worker_id: int, spec, conn, bus, faults, restore) -> None:
    """The command loop shared by every transport (shm and tcp).

    ``restore`` is ``(checkpoint_path, epoch)`` when the launcher respawns
    the pool from a checkpoint: the worker loads its slice file before
    reporting ready, and its epoch counter (heartbeat beacons, fault
    targeting) continues from ``epoch``.

    The loop sends a ``("beat", worker, epochs_done)`` heartbeat after
    every epoch of a ``train`` command — the supervisor's liveness signal
    and its record of where replay must resume (over tcp these beats ride
    the rendezvous control connection).  Failures are reported as a
    structured dict (exception type, message, and the full traceback text)
    so the launcher can re-raise a typed exception carrying the original
    traceback.  Every exit path — clean close, a raised error (including
    the trainer's ``check_outstanding``), or KeyboardInterrupt — closes
    this endpoint's bus (shared-memory mappings or sockets); the launcher
    owns segment unlinking.
    """
    ctx = None
    epochs_done = 0
    _set_log_worker(worker_id)
    if spec.trace:
        _trace.enable(f"worker {worker_id}")
    try:
        ctx = build_worker(spec, worker_id, bus)
        if _trace.enabled:
            # mirror every simulated-clock charge (worker 0's sink becomes
            # the merged trace's simulated tracks; the others deduplicate
            # launcher-side)
            ctx.cluster.store.trace = _trace.SimSink()
        if restore is not None:
            path, epoch = restore
            state, exact = ckpt.load_slice(path, ctx.cluster.lo, ctx.cluster.hi)
            ckpt.restore_model(ctx.model, state, verbatim_links=exact)
            epochs_done = epoch
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
                        raws.append(ctx.trainer.train_epoch_raw())
                    epochs_done += 1
                    if faults is not None:
                        faults.fire("post_epoch", bus)
                    conn.send(("beat", worker_id, epochs_done))
                    # flush telemetry at the epoch barrier, piggybacked on
                    # the heartbeat cadence of the control plane
                    if _trace.enabled:
                        conn.send(
                            ("trace", worker_id, _drain_trace_payload(ctx, epochs_done))
                        )
                conn.send(("epochs", raws))
            elif cmd == "checkpoint":
                state = ckpt.model_state(ctx.model)
                ckpt.write_worker_state(args[0], state)
                conn.send(("ok", (ctx.cluster.lo, ctx.cluster.hi)))
            elif cmd == "evaluate":
                conn.send(("value", ctx.trainer.evaluate(args[0])))
            elif cmd == "state":
                conn.send(("state", _worker_state(ctx)))
            elif cmd == "ping":
                conn.send(("pong", worker_id))
            elif cmd == "reset":
                ctx.cluster.reset()
                epochs_done = 0
                conn.send(("ok", None))
            elif cmd == "crash":  # test hook: simulate a hard worker death
                import os

                os._exit(13)
            elif cmd == "close":
                conn.send(("ok", None))
                return
            else:
                raise PlexusRuntimeError(f"unknown worker command {cmd!r}")
    except BaseException as exc:
        _report_error(conn, worker_id, exc, ctx=ctx, epochs_done=epochs_done)
    finally:
        bus.close()
        try:
            conn.close()
        except Exception:
            pass


def worker_main(
    worker_id: int, bus_handle: BusHandle, spec, conn, restore=None
) -> None:
    """Spawned-process entry (shared-memory transport): attach the bus,
    build the slice, serve the command loop."""
    try:
        faults = build_injector(spec.faults, worker_id)
        bus = ShmBus(bus_handle, worker_id=worker_id, faults=faults)
    except BaseException as exc:
        _report_error(conn, worker_id, exc)
        try:
            conn.close()
        except Exception:
            pass
        return
    _serve(worker_id, spec, conn, bus, faults, restore)


def worker_main_tcp(preferred_id: int | None, host: str, port: int, authkey: bytes) -> None:
    """Spawned-process entry (tcp transport): rendezvous, then serve.

    Opens the peer-plane listener *first* (so its port can be advertised),
    dials the launcher's rendezvous, authenticates, and receives the worker
    id, the signed membership manifest, and the workload spec over the
    control connection — which then carries the command loop and the
    heartbeats.  The same entry serves launcher-spawned local workers and
    ``repro host``-managed remote workers; any restore checkpoint rides the
    spec message, so respawn-and-replay needs no transport-specific path.
    """
    from repro.runtime import net, rendezvous as rdv

    listener = net.peer_listener(16)
    conn = None
    wid = preferred_id if preferred_id is not None else -1
    try:
        advertise_port = listener.getsockname()[1]
        conn, local_host = rdv.connect_rendezvous(host, port, authkey)
        conn.send(("hello", preferred_id, (local_host, advertise_port)))
        kind, wid, blob, sig = conn.recv()
        if kind != "welcome":
            raise PlexusRuntimeError(f"rendezvous protocol: expected welcome, got {kind!r}")
        info = rdv.verify_manifest(authkey, blob, sig)
        peers = {int(k): (h, int(p)) for k, (h, p) in info["peers"].items()}
        kind, spec, restore, tcp_cfg = conn.recv()
        if kind != "spec":
            raise PlexusRuntimeError(f"rendezvous protocol: expected spec, got {kind!r}")
        faults = build_injector(spec.faults, wid)
        bus = net.TcpBus(
            listener, peers, wid, info["session"], authkey, cfg=tcp_cfg, faults=faults
        )
    except BaseException as exc:
        if conn is not None:
            _report_error(conn, wid, exc)
            try:
                conn.close()
            except Exception:
                pass
        try:
            listener.close()
        except OSError:
            pass
        return
    _serve(wid, spec, conn, bus, faults, restore)
