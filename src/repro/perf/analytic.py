"""Analytic epoch-time models at paper scale.

Each model composes the *same* kernel models (``repro.gpu``) and collective
cost laws (``repro.dist.collectives``) the executable engine charges its
virtual clocks with — evaluated symbolically with per-rank shard shapes
derived from the dataset statistics, so 2048-GPU epochs cost microseconds to
estimate instead of terabytes to execute.

Models:

* :class:`PlexusAnalytic` — the 3D algorithm (Algorithms 1-2 + Sec. 5
  optimizations) for any grid configuration.
* :class:`PartitionParallelAnalytic` — BNS-GCN (all-to-all boundary
  exchange) and CAGNET-SA / SA+GVB (broadcast-style sparsity-aware
  exchange), including the per-rank peak-memory model that reproduces the
  paper's OOM failures (SA on Isolate-3-8M, GVB on papers100M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.grid import GridConfig, axis_roles
from repro.core.perf_model import layer_collective_times
from repro.dist.collectives import all_to_all_time, ring_all_gather_time, ring_all_reduce_time
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

    def as_ms(self) -> tuple[float, float, float]:
        return self.total * 1e3, self.comm * 1e3, self.comp * 1e3


# ---------------------------------------------------------------------------
# Plexus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlexusAnalytic:
    """Full-scale analytic model of Plexus for one dataset + machine."""

    stats: DatasetStats
    layer_dims: Sequence[int]
    machine: MachineSpec
    permutation: str = "double"
    aggregation_blocks: int = 1
    tune_dw_gemm: bool = True
    trainable_features: bool = True
    #: nonblocking-collective scheduling: prefetched W all-gathers hide
    #: behind the layer's aggregation SpMM (forward) and grad-W GEMM
    #: (backward), mirroring the executable engine's ``overlap=True``
    #: schedules.  (Per-block aggregation pipelining is already part of the
    #: Sec. 5.2 blocked model via ``blocked_comm_visible_frac``.)
    overlap: bool = False
    calibration: PlexusCalibration = field(default_factory=PlexusCalibration)

    def _imbalance(self) -> float:
        return IMBALANCE_BY_SCHEME[self.permutation]

    def epoch_estimate(self, config: GridConfig) -> EpochEstimate:
        """Modeled epoch for one grid configuration."""
        cal = self.calibration
        dev = self.machine.device
        n, nnz = self.stats.nodes, self.stats.nonzeros
        n_layers = len(self.layer_dims) - 1
        imb = self._imbalance()
        comm = comp = 0.0
        detail: dict[str, float] = {"spmm": 0.0, "gemm": 0.0, "gemm_dw": 0.0, "agg_comm": 0.0, "other_comm": 0.0, "hidden_comm": 0.0}
        for i in range(n_layers):
            roles = axis_roles(i)
            gx, gy, gz = (config.size(roles.x), config.size(roles.y), config.size(roles.z))
            d_in, d_out = self.layer_dims[i], self.layer_dims[i + 1]
            # Eq. 4.5: this layer's collectives as named ring durations
            c = layer_collective_times(config, self.machine, n, d_in, d_out, i, _ELEM)
            rows_z, rows_x = n / gz, n / gx
            cols_y, cols_x = d_in / gy, d_out / gx
            nnz_local = nnz / (gz * gx)
            is_first = i == 0

            # ---- forward SpMM (+ variability + blocking, Sec. 5.2) --------
            nnz_per_call = nnz_local / self.aggregation_blocks
            fwd_shard = SpmmShard(rows=max(int(rows_z), 1), k=max(int(rows_x), 1), cols=max(cols_y, 1e-6), nnz=max(int(nnz_local), 1))
            t_spmm = spmm_time(fwd_shard, dev)
            noisy = nnz_per_call > cal.variability_threshold_nnz
            mean_mult = cal.variability_mean_slowdown if noisy else 1.0
            max_mult = cal.variability_max_slowdown if noisy else 1.0
            comp += t_spmm * mean_mult
            detail["spmm"] += t_spmm * mean_mult
            # straggler wait before the aggregation all-reduce: imbalance
            # (mitigated by permutation) x variability (mitigated by blocking)
            wait = t_spmm * max(imb * max_mult - mean_mult, 0.0)
            t_agg_comm = c["ar_h"]
            if self.aggregation_blocks > 1:
                hidden_agg = 0.0
                if self.overlap:
                    # nonblocking handles: each block's all-reduce stays in
                    # flight behind the next block's SpMM, so only the
                    # visible fraction reaches the timeline
                    hidden_agg = t_agg_comm * (1.0 - cal.blocked_comm_visible_frac)
                    detail["hidden_comm"] += hidden_agg
                t_agg_comm = t_agg_comm - hidden_agg + self.aggregation_blocks * cal.collective_overhead_s
            comm += t_agg_comm + wait
            detail["agg_comm"] += t_agg_comm + wait

            # ---- combination GEMM + Y-all-reduce ---------------------------
            t_gemm = gemm_time(rows_z, cols_x, cols_y, dev, GemmMode.NN)
            comp += t_gemm
            detail["gemm"] += t_gemm
            t = c["ar_q"] + c["ag_w"]
            if is_first:
                t += c["ag_f"]
            comm += t
            detail["other_comm"] += t

            # ---- backward ---------------------------------------------------
            dw_mode = GemmMode.NT if self.tune_dw_gemm else GemmMode.TN
            t_dw = gemm_time(cols_y, cols_x, rows_z, dev, dw_mode)
            t_dh = gemm_time(rows_z, cols_y, cols_x, dev, GemmMode.NT)
            comp += t_dw + t_dh
            detail["gemm_dw"] += t_dw
            detail["gemm"] += t_dh
            t = c["rs_dw"] + c["ag_w"]
            t += c["ar_dh"]
            do_df = (not is_first) or self.trainable_features
            if do_df:
                # Sec. 5.2 observes the variability on the *forward* SpMM
                # only, so the backward SpMM carries no noise multiplier.
                bwd_shard = SpmmShard(rows=max(int(rows_x), 1), k=max(int(rows_z), 1), cols=max(cols_y, 1e-6), nnz=max(int(nnz_local), 1))
                t_bwd = spmm_time(bwd_shard, dev)
                comp += t_bwd
                detail["spmm"] += t_bwd
                if self.overlap:
                    # the dH all-reduce stays in flight behind the backward
                    # SpMM (A^T column blocks pipeline against ring steps);
                    # only the uncovered tail stays visible
                    hidden_dh = min(c["ar_dh"], t_bwd)
                    t -= hidden_dh
                    detail["hidden_comm"] += hidden_dh
                t += c["rs_df"] if is_first else c["ar_df"]
            comm += t
            detail["other_comm"] += t

            # ---- overlap (nonblocking handles): prefetched W all-gathers --
            # are issued a layer ahead, so the forward gather hides behind
            # this layer's aggregation SpMM and the backward re-gather
            # behind the grad-W GEMM; only the uncovered tail stays visible.
            if self.overlap:
                hidden = min(c["ag_w"], t_spmm * mean_mult) + min(c["ag_w"], t_dw)
                comm -= hidden
                detail["other_comm"] -= hidden
                detail["hidden_comm"] += hidden
        # fixed per-epoch collective launch overheads (~10 collectives/layer)
        comm += cal.collective_overhead_s * 10 * n_layers
        return EpochEstimate(comm=comm, comp=comp, detail=detail)

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
