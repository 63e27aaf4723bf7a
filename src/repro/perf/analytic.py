"""Analytic epoch-time models at paper scale.

Models:

* :class:`PlexusAnalytic` — the 3D algorithm (Algorithms 1-2 + Sec. 5
  optimizations) for any grid configuration: the executable engine's epoch
  charged on shard shapes derived from the dataset statistics, so 2048-GPU
  epochs cost microseconds to estimate instead of terabytes to execute.
* :class:`PartitionParallelAnalytic` — BNS-GCN (all-to-all boundary
  exchange) and CAGNET-SA / SA+GVB (broadcast-style sparsity-aware
  exchange), including the per-rank peak-memory model that reproduces the
  paper's OOM failures (SA on Isolate-3-8M, GVB on papers100M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.grid import Axis, GridConfig, axis_roles
from repro.core.layers import kernel_times
from repro.core.perf_model import collective_times
from repro.dist.cluster import ClockStore
from repro.dist.collectives import all_to_all_time, ring_all_gather_time, ring_all_reduce_time
from repro.dist.comm import PendingCollective, _schedule, _Slots
from repro.dist.group import axis_bandwidth
from repro.dist.topology import MachineSpec
from repro.gpu.gemm import GemmMode, gemm_time
from repro.gpu.spmm import SpmmShard, spmm_time
from repro.graph.datasets import DatasetStats
from repro.perf.calibration import (
    BOUNDARY_BY_DATASET,
    IMBALANCE_BY_SCHEME,
    BoundaryModel,
    PartitionCalibration,
    PlexusCalibration,
    sa_needed_rows,
)

__all__ = ["EpochEstimate", "PlexusAnalytic", "PartitionParallelAnalytic", "bns_analytic", "sa_analytic"]

_ELEM = 4  # fp32 bytes at scale


@dataclass(frozen=True)
class EpochEstimate:
    """One modeled epoch: total/comm/comp seconds (+ optional detail)."""

    comm: float
    comp: float
    oom: bool = False
    #: per-phase seconds for breakdown-style figures
    detail: dict = field(default_factory=dict, compare=False)

    @property
    def total(self) -> float:
        return self.comm + self.comp


# ---------------------------------------------------------------------------
# Plexus
# ---------------------------------------------------------------------------


class _Sweep:
    """The engine's timeline for many grid configurations: one rank of a
    :class:`ClockStore` and one link per physical axis each (every group of
    an axis does the same on equal shards).  ``lag`` is each configuration's
    straggler lead after a noisy or imbalanced SpMM: it waits at the next
    collective that synchronises ranks (the engine's ``ready = max(member
    clocks)``) or at the epoch barrier."""

    def __init__(self, configs: Sequence[GridConfig], machine: MachineSpec) -> None:
        n = len(configs)
        self.store = ClockStore(n)
        self.latency, self.overhead = machine.latency, machine.issue_overhead_s
        self.sizes = {a: np.array([c.size(a) for c in configs], dtype=np.float64) for a in Axis}
        self.bw = {
            a: np.array([axis_bandwidth(machine, c.size(a), c.inner_size(a)) for c in configs]) for a in Axis
        }
        self.slots = {a: _Slots([(i, a) for i in range(n)], [slice(i, i + 1) for i in range(n)]) for a in Axis}
        self.lag = np.zeros(n)

    def compute(self, phase: str, seconds, lag=0.0) -> None:
        self.store.clocks += seconds
        self.store.record_all("comp:" + phase, seconds)
        self.lag = self.lag + lag

    def issue(self, phase: str, axis: Axis, duration) -> PendingCollective:
        store, full = self.store, "comm:" + phase
        sync = self.sizes[axis] > 1
        if self.overhead:  # a launch cost per issue, as the engine charges it
            store.clocks += self.overhead * sync
            store.record_all(full, self.overhead * sync)
        ready = store.clocks + self.lag * sync
        self.lag = np.where(sync, 0.0, self.lag)
        begin, end = _schedule(store, self.slots[axis], ready, duration, full)
        return PendingCollective(full, None, store, ("cube", ready.shape, begin, end, duration))

    def barrier(self) -> None:
        self.store.clocks += self.lag
        self.store.record_all("comm:epoch_sync", self.lag)
        self.lag = np.zeros_like(self.lag)

    def estimates(self) -> list[EpochEstimate]:
        comm, comp = (self.store.prefix_totals(c).tolist() for c in ("comm:", "comp:"))
        phases = {p.split(":", 1)[1]: v.tolist() for p, v in self.store.by_phase.items()}
        return [EpochEstimate(comm[i], comp[i], detail={p: v[i] for p, v in phases.items()}) for i in range(len(comm))]


@dataclass(frozen=True)
class PlexusAnalytic:
    """Full-scale analytic model of Plexus for one dataset + machine.

    An estimate is the engine's steady-state epoch — Algorithms 1-2 and the
    loss in the engine's issue order, under its ``overlap`` and blocked
    schedules, a frozen layer 0 as it replays — charged with the engine's
    kernel table (:func:`repro.core.layers.kernel_times`) and ring laws
    (:func:`repro.core.perf_model.collective_times`) on the mean shard of
    ``stats`` through the engine's own timeline: what overlaps is what the
    schedule hides.  ``calibration`` and the permutation's imbalance model
    what the engine does not (see ``repro.perf.calibration``).  ``detail``
    holds seconds by the engine's phase names (``spmm_fwd``, ...).
    """

    stats: DatasetStats
    layer_dims: Sequence[int]
    machine: MachineSpec
    permutation: str = "double"
    aggregation_blocks: int = 1
    tune_dw_gemm: bool = True
    trainable_features: bool = True
    #: the engine's nonblocking schedules (``PlexusOptions.overlap``)
    overlap: bool = False
    calibration: PlexusCalibration = field(default_factory=PlexusCalibration)

    def __post_init__(self) -> None:
        if self.permutation not in IMBALANCE_BY_SCHEME:
            raise ValueError(f"unknown permutation {self.permutation!r} (known: {sorted(IMBALANCE_BY_SCHEME)})")
        if self.aggregation_blocks < 1:
            raise ValueError("aggregation_blocks must be >= 1")
        if len(self.layer_dims) < 2:
            raise ValueError("need at least two layer dims")

    def epoch_estimate(self, config: GridConfig) -> EpochEstimate:
        """Modeled epoch for one grid configuration."""
        return self.epoch_estimates([config])[0]

    def epoch_estimates(self, configs: Sequence[GridConfig]) -> list[EpochEstimate]:
        """Modeled epochs of many configurations, walked once as one rank
        each (bitwise what :meth:`epoch_estimate` gives one at a time)."""
        sweep = _Sweep(configs, self.machine)
        layers = [self._layer(sweep, i) for i in range(len(self.layer_dims) - 1)]
        # under ``overlap`` a frozen layer 0's F gather is prefetched across
        # the epoch boundary: the steady epoch is the second
        prefetch = None
        for _ in range(1 + (self.overlap and not self.trainable_features)):
            sweep.store.by_phase.clear()
            sweep.store.by_category.clear()
            prefetch = self._epoch(sweep, layers, prefetch)
        return sweep.estimates()

    def _layer(self, sweep: _Sweep, i: int) -> dict:
        """Layer ``i``'s kernel seconds, straggler lag and collectives over
        the sweep's configurations."""
        cal, blocks = self.calibration, self.aggregation_blocks
        gx, gy, gz = (sweep.sizes[a] for a in axis_roles(i).as_tuple())
        n, d_in, d_out = self.stats.nodes, self.layer_dims[i], self.layer_dims[i + 1]
        nnz = self.stats.nonzeros / (gz * gx)
        extents = {"a_rows": n / gz, "a_cols": n / gx, "f_cols": d_in / gy, "w_cols": d_out / gx}
        t = kernel_times(extents, nnz, [(n / gz / blocks, nnz / blocks)], self.machine.device, self.tune_dw_gemm)
        # Sec. 5.2's variability on calls above the threshold, and the
        # slowest rank's lead (a lone rank has none): imbalance (permutation)
        # x variability (blocking)
        noisy = nnz / blocks > cal.variability_threshold_nnz
        mean = np.where(noisy, cal.variability_mean_slowdown, 1.0)
        peak = np.where(noisy, cal.variability_max_slowdown, 1.0)
        spmm = t["spmm_fwd"][0]
        t["spmm_fwd"] = spmm * mean
        t["lag"] = spmm * np.maximum(IMBALANCE_BY_SCHEME[self.permutation] * peak - mean, 0.0) * (gx * gy * gz > 1)
        t["comm"] = collective_times(n, d_in, d_out, i, sweep.sizes, sweep.bw, sweep.latency, _ELEM, blocks)
        return t

    def _epoch(self, sweep: _Sweep, layers: list, prefetch):
        """One epoch in the engine's issue order (``PlexusGCN.forward``,
        ``distributed_masked_ce``, ``PlexusGCN.backward``, the barrier);
        returns the F gather it prefetches for the next."""
        overlap, frozen = self.overlap, not self.trainable_features

        def issue(phase: str, la: dict) -> PendingCollective:
            return sweep.issue(phase, *la["comm"][phase])

        w_pending = None
        for i, la in enumerate(layers):
            if i == 0:
                (prefetch or issue("all_gather_f", la)).wait()
            if overlap and w_pending is None:
                w_pending = issue("all_gather_w", la)
            handles = []
            for _ in range(self.aggregation_blocks):
                sweep.compute("spmm_fwd", la["spmm_fwd"], la["lag"])
                handle = issue("all_reduce_h", la)
                if overlap:
                    handles.append(handle)
                else:
                    handle.wait()
            for handle in handles:
                handle.wait()
            (w_pending or issue("all_gather_w", la)).wait()
            sweep.compute("gemm_fwd", la["gemm_fwd"])
            issue("all_reduce_q", la).wait()
            w_pending = issue("all_gather_w", layers[i + 1]) if overlap and i + 1 < len(layers) else None
        for phase in ("loss_max", "loss_sumexp", "loss_zlabel", "loss_total"):
            issue(phase, layers[-1]).wait()
        prefetch = w_pending = None
        for i in range(len(layers) - 1, -1, -1):
            la = layers[i]
            if overlap and w_pending is None:
                w_pending = issue("all_gather_w", la)
            sweep.compute("gemm_dw", la["gemm_dw"])
            issue("reduce_scatter_dw", la).wait()
            (w_pending or issue("all_gather_w", la)).wait()
            if i == 0 and overlap and frozen:
                prefetch = issue("all_gather_f", la)
            sweep.compute("gemm_dh", la["gemm_dh"])
            dh = issue("all_reduce_dh", la)
            if not overlap or (i == 0 and frozen):
                dh.wait()  # eager, or nobody reads a frozen layer 0's dH
            if i or not frozen:
                sweep.compute("spmm_bwd", la["spmm_bwd"])
                if overlap:
                    dh.wait()  # the backward SpMM ran behind it
                issue("all_reduce_df" if i else "reduce_scatter_df", la).wait()
            w_pending = issue("all_gather_w", layers[i - 1]) if overlap and i > 0 else None
        sweep.barrier()
        return prefetch

    def memory_per_rank(self, config: GridConfig) -> float:
        """Peak bytes per rank: adjacency shards (x permutation versions),
        activations, weights + optimizer states."""
        n, nnz = self.stats.nodes, self.stats.nonzeros
        g = config.total
        n_layers = len(self.layer_dims) - 1
        versions = 2 if self.permutation == "double" else 1
        shard_sets = min(3, n_layers) * versions
        adj = shard_sets * (nnz / g) * 12  # 4B value + 4B index + indptr share
        acts = sum(
            (n / (config.size(axis_roles(i).z))) * (self.layer_dims[i] / config.size(axis_roles(i).y))
            for i in range(n_layers)
        ) * _ELEM * 3  # F, H, Q retained
        w = sum(self.layer_dims[i] * self.layer_dims[i + 1] for i in range(n_layers)) / g * _ELEM * 4
        return adj + acts + w


# ---------------------------------------------------------------------------
# Partition-parallel baselines (BNS-GCN, SA, SA+GVB)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionParallelAnalytic:
    """Analytic BNS-GCN / SA model.

    ``style`` selects the exchange pattern: ``"alltoall"`` (BNS-GCN) or
    ``"broadcast"`` (CAGNET-SA's ring of sparsity-aware sends).  The
    boundary model supplies how many external feature rows move per layer.
    """

    stats: DatasetStats
    layer_dims: Sequence[int]
    machine: MachineSpec
    style: str = "alltoall"
    boundary: BoundaryModel | None = None
    calibration: PartitionCalibration = field(default_factory=PartitionCalibration)
    #: CAGNET replication factor (1.5D); multiplies memory, divides exchange
    replication: int = 1

    def _boundary_model(self) -> BoundaryModel:
        if self.boundary is not None:
            return self.boundary
        return BOUNDARY_BY_DATASET.get(self.stats.name, BoundaryModel())

    def total_nodes_with_boundary(self, p: int) -> float:
        """Owned + boundary nodes summed over partitions (Sec. 7.1 metric)."""
        return self.stats.nodes + self._boundary_model().total_boundary(self.stats.nodes, p)

    def _external_rows_per_rank(self, p: int) -> float:
        """Feature rows a rank receives per layer.

        BNS-GCN's METIS partitions keep this to the boundary-growth law; the
        CAGNET block layout touches the coupon-collector expectation of
        distinct columns (nearly all of N at small p on power-law graphs).
        """
        n, nnz = self.stats.nodes, self.stats.nonzeros
        if self.style == "alltoall":
            return self._boundary_model().total_boundary(n, p) / p
        return sa_needed_rows(n, nnz, p)

    def epoch_estimate(self, p: int) -> EpochEstimate:
        """Modeled epoch at ``p`` partitions (one rank each)."""
        if p <= 0:
            raise ValueError("p must be positive")
        cal = self.calibration
        dev = self.machine.device
        n, nnz = self.stats.nodes, self.stats.nonzeros
        n_layers = len(self.layer_dims) - 1
        external = self._external_rows_per_rank(p)
        own = n / p
        imb = cal.imbalance(p)
        if self.memory_per_rank(p) > dev.memory_bytes:
            return EpochEstimate(comm=math.inf, comp=math.inf, oom=True)
        # effective exchange bandwidth: whole-world group over NICs
        if p <= self.machine.gpus_per_node:
            beta = self.machine.intra_node_bw
        else:
            beta = self.machine.inter_node_bw / self.machine.gpus_per_node
        comm = comp = 0.0
        for i in range(n_layers):
            d_in, d_out = self.layer_dims[i], self.layer_dims[i + 1]
            # exchange of external features (fwd) and their grads (bwd)
            xfer_bytes = external * d_in * _ELEM
            if self.style == "alltoall":
                t_x = all_to_all_time(
                    xfer_bytes / cal.alltoall_efficiency, p, beta, latency=cal.alltoall_msg_latency
                )
            else:
                vol = xfer_bytes / max(self.replication, 1)
                t_x = ring_all_gather_time(vol / cal.sa_bcast_efficiency, p, beta)
            comm += 2.0 * t_x  # forward features + backward gradients
            # local compute: SpMM over own rows with own+external columns,
            # gather-buffer assembly, dense GEMMs, dW all-reduce
            shard = SpmmShard(
                rows=max(int(own), 1),
                k=max(int(own + external), 1),
                cols=d_in,
                nnz=max(int(nnz / p), 1),
            )
            t_local = spmm_time(shard, dev)
            t_copy = cal.gather_copy_passes * (own + external) * d_in * _ELEM / dev.memory_bw
            t_gemm = gemm_time(own, d_out, d_in, dev, GemmMode.NN) + gemm_time(own, d_in, d_out, dev, GemmMode.NT)
            t_dw = gemm_time(d_in, d_out, own, dev, GemmMode.TN)
            comp += (t_local + t_copy + t_gemm + t_dw) * imb
            comm += ring_all_reduce_time(d_in * d_out * _ELEM, p, beta)
            if self.style == "alltoall":
                # backward boundary-gradient scatter runs a second SpMM pass
                comp += t_local * imb
        return EpochEstimate(comm=comm, comp=comp, detail={"external_per_rank": external})

    def memory_per_rank(self, p: int) -> float:
        """Peak bytes per rank.

        Components: local adjacency (COO with 64-bit indices plus its
        transpose, the PyTorch representation the baselines use: ~40 B per
        nonzero), the gathered feature buffer — *retained once per layer*,
        because torch's sparse-mm autograd node saves its dense operand for
        the backward pass — plus own-row activations and replicated
        weights/optimizer states.
        """
        cal = self.calibration
        n, nnz = self.stats.nodes, self.stats.nonzeros
        external = self._external_rows_per_rank(p)
        d_max = max(self.layer_dims)
        n_layers = len(self.layer_dims) - 1
        adj = (nnz / p) * 40.0 * max(self.replication, 1)
        gathered = (n / p + external) * d_max * _ELEM * n_layers * max(self.replication, 1)
        own_acts = (n / p) * d_max * _ELEM * cal.activation_memory_factor * n_layers
        w = sum(self.layer_dims[i] * self.layer_dims[i + 1] for i in range(n_layers)) * _ELEM * 4
        steady = adj + gathered + own_acts + w
        if self.style == "broadcast":
            # CAGNET's loader materializes the whole graph on every device
            # (int64 COO + CSR-conversion scratch, ~32 B/nnz) before
            # scattering — the setup-time peak that OOMs billion-edge graphs
            # (Isolate-3-8M, ogbn-papers100M) and that Plexus's parallel
            # loader (Sec. 5.4) exists to avoid.
            steady = max(steady, nnz * 32.0)
        return steady


def bns_analytic(stats: DatasetStats, layer_dims: Sequence[int], machine: MachineSpec, **kw) -> PartitionParallelAnalytic:
    """BNS-GCN analytic model (boundary rate 1.0, all-to-all exchange)."""
    return PartitionParallelAnalytic(stats, layer_dims, machine, style="alltoall", **kw)


def sa_analytic(stats: DatasetStats, layer_dims: Sequence[int], machine: MachineSpec, gvb: bool = False, **kw) -> PartitionParallelAnalytic:
    """CAGNET-SA analytic model; ``gvb`` reduces the imbalance growth (a
    nonzero-balancing partition) but raises memory (denser gather sets)."""
    cal = PartitionCalibration()
    if gvb:
        cal = PartitionCalibration(
            imbalance_ref=1.05,
            imbalance_gamma=0.30,
            alltoall_efficiency=cal.alltoall_efficiency,
            gather_copy_passes=cal.gather_copy_passes,
            activation_memory_factor=cal.activation_memory_factor * 1.3,
            sa_bcast_efficiency=cal.sa_bcast_efficiency,
        )
    return PartitionParallelAnalytic(stats, layer_dims, machine, style="broadcast", calibration=cal, **kw)
