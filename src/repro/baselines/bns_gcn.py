"""BNS-GCN: partition-parallel full-graph training with boundary exchange.

Wan et al.'s BNS-GCN partitions the graph (METIS), keeps a full copy of the
weights on every rank (data parallelism for W), and per layer exchanges the
features of *boundary nodes* — nodes a partition's aggregation needs but
does not own — through an all-to-all collective.  Boundary-node *sampling*
(rate < 1) trades exactness for communication; the paper compares at rate
1.0, i.e. exact vanilla partition parallelism, which is what our executable
implementation validates against the serial reference.

The generic engine (:class:`PartitionParallelGCN`) is parameterized by the
partition, so the CAGNET-SA baselines reuse it with different partitioners
(see ``repro.baselines.cagnet``).  Its one process group is the world, run
as the one axis of a ``(P, 1, 1)`` rank cube on the same
:class:`~repro.dist.comm.AxisCommunicator` Plexus runs its grid axes on —
CAGNET's 1D algorithm is the one-axis case of the 3D grid.

Scaling behaviour reproduced (Sec. 7.1): per-partition boundary sets grow as
partitions multiply — :meth:`total_nodes_with_boundary` is the 18M -> 22M
metric of Fig. 9's analysis — and the all-to-all's long-distance messages
degrade beyond ~64 GPUs, while local computation grows with the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from repro.baselines.partitioner import (
    PartitionResult,
    bfs_partition,
    boundary_nodes,
    gvb_partition,
    ldg_partition,
)
from repro.core.trainer import EpochStats, TrainResult
from repro.dist.cluster import VirtualCluster
from repro.dist.collectives import AxisComm, all_to_all_time
from repro.dist.comm import AxisCommunicator
from repro.gpu.gemm import GemmMode, gemm_time_batch
from repro.gpu.spmm import SpmmShard, spmm_time
from repro.nn.functional import relu, relu_grad
from repro.nn.init import glorot_uniform
from repro.nn.loss import masked_cross_entropy_grad
from repro.nn.optim import Adam
from repro.utils.rng import rng_from_seed

__all__ = ["BnsGcnOptions", "PartitionParallelGCN", "BnsGcnModel"]


@dataclass
class BnsGcnOptions:
    """Options for partition-parallel training."""

    #: boundary sampling rate; 1.0 = exact (the paper's comparison setting)
    boundary_rate: float = 1.0
    partitioner: Literal["bfs", "ldg", "gvb"] = "bfs"
    lr: float = 1e-2
    seed: int = 0
    dtype: type = np.float64

    def __post_init__(self) -> None:
        if not (0.0 < self.boundary_rate <= 1.0):
            raise ValueError("boundary_rate must be in (0, 1]")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


_PARTITIONERS = {"bfs": bfs_partition, "ldg": ldg_partition, "gvb": lambda a, p, seed=0: gvb_partition(a, p)}


class PartitionParallelGCN:
    """Generic partition-parallel GCN engine over the virtual cluster."""

    def __init__(
        self,
        cluster: VirtualCluster,
        a_norm: sp.csr_matrix,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        layer_dims: list[int],
        partition: PartitionResult,
        options: BnsGcnOptions | None = None,
    ) -> None:
        self.options = options or BnsGcnOptions()
        opts = self.options
        self.cluster = cluster
        p_count = cluster.world_size
        if partition.n_parts != p_count:
            raise ValueError("partition count must equal world size")
        n = a_norm.shape[0]
        if features.shape[1] != layer_dims[0]:
            raise ValueError("features dim != layer_dims[0]")
        self.n = n
        self.layer_dims = list(layer_dims)
        self.partition = partition
        # the world group as the one axis of a (P, 1, 1) cube; its bandwidth
        # follows node placement alone — intra-node when the ranks share a
        # node, else the node's full NIC aggregate (no sibling groups)
        machine = cluster.machine
        intra = machine.group_is_intra_node(range(p_count))
        self.comm = AxisCommunicator(
            AxisComm(
                store=cluster.store,
                cube=(p_count, 1, 1),
                axis=0,
                size=p_count,
                bandwidth=machine.intra_node_bw if intra else machine.inter_node_bw,
                latency=machine.latency,
                issue_overhead_s=machine.issue_overhead_s,
            )
        )
        self._rng = rng_from_seed(opts.seed + 17)

        dtype = opts.dtype
        parts = partition.parts()
        self.own = parts
        ext = boundary_nodes(a_norm, partition)
        # recv_ids[p][q]: global ids owned by q whose features p needs
        self.recv_ids: list[list[np.ndarray]] = []
        for p in range(p_count):
            owner = partition.assignment[ext[p]]
            self.recv_ids.append([np.sort(ext[p][owner == q]) for q in range(p_count)])
        # send_idx[p][q]: local row indices (into own[p]) that p sends to q
        self.send_idx = [
            [np.searchsorted(self.own[p], self.recv_ids[q][p]) for q in range(p_count)]
            for p in range(p_count)
        ]
        # local adjacency: rows = own, cols = own ++ recv blocks (q ascending)
        self.local_cols = [
            np.concatenate([self.own[p]] + [self.recv_ids[p][q] for q in range(p_count) if q != p])
            for p in range(p_count)
        ]
        a_csr = a_norm.astype(dtype).tocsr()
        self.a_local = [a_csr[self.own[p], :][:, self.local_cols[p]].tocsr() for p in range(p_count)]
        self.at_local = [a.T.tocsr() for a in self.a_local]
        # replicated weights (identical per rank; gradients all-reduced)
        self.weights: list[list[np.ndarray]] = []
        for p in range(p_count):
            self.weights.append(
                [
                    glorot_uniform(layer_dims[i], layer_dims[i + 1], seed=opts.seed + i, dtype=dtype)
                    for i in range(len(layer_dims) - 1)
                ]
            )
        self.features = [features[self.own[p]].astype(dtype) for p in range(p_count)]
        self.labels = [labels[self.own[p]] for p in range(p_count)]
        self.mask = [train_mask[self.own[p]] for p in range(p_count)]
        self.optimizers = [
            Adam({f"W{i}": w for i, w in enumerate(ws)}, lr=opts.lr) for ws in self.weights
        ]

    # -- metrics ----------------------------------------------------------------
    @property
    def p_count(self) -> int:
        return self.cluster.world_size

    def total_nodes_with_boundary(self) -> int:
        """Sum over partitions of owned + boundary nodes (Sec. 7.1 metric)."""
        return int(sum(len(c) for c in self.local_cols))

    # -- helpers -----------------------------------------------------------------
    def _sample_boundary(self) -> list[list[np.ndarray]]:
        """Per (p, q): positions (into recv_ids[p][q]) sampled this epoch."""
        rate = self.options.boundary_rate
        out = []
        for p in range(self.p_count):
            row = []
            for q in range(self.p_count):
                m = len(self.recv_ids[p][q])
                if rate >= 1.0 or m == 0:
                    row.append(np.arange(m))
                else:
                    k = max(1, int(round(rate * m)))
                    row.append(np.sort(self._rng.choice(m, size=k, replace=False)))
            out.append(row)
        return out

    def _exchange_features(self, feats: list[np.ndarray], sample) -> list[np.ndarray]:
        """All-to-all boundary exchange; returns F_cat per rank (local_cols order)."""
        p_count = self.p_count
        d = feats[0].shape[1]
        dtype = feats[0].dtype
        chunks: list[list[np.ndarray]] = []
        for p in range(p_count):
            row = []
            for q in range(p_count):
                if q == p:
                    row.append(np.zeros((0, d), dtype=dtype))
                else:
                    # p sends to q the rows q sampled from p this epoch
                    idx = self.send_idx[p][q][sample[q][p]]
                    row.append(feats[p][idx])
            chunks.append(row)
        received = self._all_to_all(chunks, "boundary_exchange")
        f_cat = []
        for p in range(p_count):
            blocks = [feats[p]]
            for q in range(p_count):
                if q == p:
                    continue
                buf = np.zeros((len(self.recv_ids[p][q]), d), dtype=dtype)
                buf[sample[p][q]] = received[p][q]
                blocks.append(buf)
            f_cat.append(np.concatenate(blocks, axis=0))
        return f_cat

    def _all_to_all(self, chunks: list[list[np.ndarray]], phase: str) -> list[list[np.ndarray]]:
        """Personalized exchange: ``chunks[p][q]`` is what rank ``p`` sends to
        ``q``; returns ``received`` with ``received[q][p] is chunks[p][q]``.
        The ring is paced by the rank with the largest total payload (the
        Eq. 4.5 all-to-all law); one rank exchanges nothing."""
        p_count = self.p_count
        received = [[chunks[p][q] for p in range(p_count)] for q in range(p_count)]
        duration = None
        if p_count > 1:
            d = self.comm.descriptor
            nbytes = max(sum(c.nbytes for c in row) for row in chunks)
            duration = all_to_all_time(nbytes, p_count, d.bandwidth, d.latency)
        return self.comm.issue(duration, phase, received).wait()

    def _spmm_advance(self, mats: list[sp.csr_matrix], cols: list[int], phase: str) -> None:
        device = self.cluster.machine.device
        t = [
            spmm_time(SpmmShard(rows=a.shape[0], k=a.shape[1], cols=max(c, 1), nnz=a.nnz), device)
            for a, c in zip(mats, cols)
        ]
        self.cluster.advance_all(np.array(t), phase)

    def _gemm_advance(self, shapes: list[tuple[int, int, int]], mode: GemmMode, phase: str) -> None:
        m, n_, k = zip(*shapes)
        self.cluster.advance_all(gemm_time_batch(m, n_, k, self.cluster.machine.device, mode), phase)

    # -- forward / backward --------------------------------------------------------
    def forward(self) -> tuple[list[np.ndarray], dict]:
        p_count = self.p_count
        n_layers = len(self.layer_dims) - 1
        acts = self.features
        cache: dict = {"f_cat": [], "h": [], "q": []}
        sample_all = []
        for i in range(n_layers):
            sample = self._sample_boundary()
            sample_all.append(sample)
            f_cat = self._exchange_features(acts, sample)
            self._spmm_advance(self.a_local, [f.shape[1] for f in f_cat], "comp:spmm_fwd")
            h = [np.asarray(a @ f) for a, f in zip(self.a_local, f_cat)]
            w = [self.weights[p][i] for p in range(p_count)]
            shapes = [(hp.shape[0], wp.shape[1], hp.shape[1]) for hp, wp in zip(h, w)]
            self._gemm_advance(shapes, GemmMode.NN, "comp:gemm_fwd")
            q = [hp @ wp for hp, wp in zip(h, w)]
            cache["f_cat"].append(f_cat)
            cache["h"].append(h)
            cache["q"].append(q)
            acts = [relu(qp) if i < n_layers - 1 else qp for qp in q]
        cache["sample"] = sample_all
        return acts, cache

    def backward(self, d_logits: list[np.ndarray], cache: dict) -> list[dict[str, np.ndarray]]:
        p_count = self.p_count
        n_layers = len(self.layer_dims) - 1
        grads: list[dict[str, np.ndarray]] = [{} for _ in range(p_count)]
        dq = d_logits
        for i in range(n_layers - 1, -1, -1):
            h = cache["h"][i]
            shapes = [(hp.shape[1], d.shape[1], hp.shape[0]) for hp, d in zip(h, dq)]
            self._gemm_advance(shapes, GemmMode.TN, "comp:gemm_dw")
            dw_partial = np.stack([hp.T @ d for hp, d in zip(h, dq)])
            dw = self.comm.all_reduce(dw_partial, phase="all_reduce_dw").wait()
            for p in range(p_count):
                grads[p][f"W{i}"] = dw[p]
            if i == 0:
                break
            # dF for the concatenated columns, then boundary scatter-back
            w = [self.weights[p][i] for p in range(p_count)]
            shapes = [(d.shape[0], wp.shape[0], d.shape[1]) for d, wp in zip(dq, w)]
            self._gemm_advance(shapes, GemmMode.NT, "comp:gemm_dh")
            dh = [d @ wp.T for d, wp in zip(dq, w)]
            self._spmm_advance(self.at_local, [x.shape[1] for x in dh], "comp:spmm_bwd")
            df_own = []
            chunks: list[list[np.ndarray]] = [[None] * p_count for _ in range(p_count)]
            for p in range(p_count):
                df_cat = np.asarray(self.at_local[p] @ dh[p])
                n_own = len(self.own[p])
                df_own.append(df_cat[:n_own])
                offset = n_own
                for q in range(p_count):
                    if q == p:
                        chunks[p][q] = np.zeros((0, df_cat.shape[1]), dtype=df_cat.dtype)
                        continue
                    m = len(self.recv_ids[p][q])
                    block = df_cat[offset : offset + m]
                    # only sampled boundary rows carry gradient mass
                    chunks[p][q] = block[cache["sample"][i][p][q]]
                    offset += m
            returned = self._all_to_all(chunks, "boundary_grad_exchange")
            for p in range(p_count):
                for q in range(p_count):
                    if q == p:
                        continue
                    idx = self.send_idx[p][q][cache["sample"][i][q][p]]
                    np.add.at(df_own[p], idx, returned[p][q])
            dq = [df_own[p] * relu_grad(cache["q"][i - 1][p]) for p in range(p_count)]
        return grads

    # -- loss ------------------------------------------------------------------------
    def loss_and_grad(self, logits: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        """Masked CE over row-partitioned logits with full class dimension."""
        p_count = self.p_count
        packed = []
        for p in range(p_count):
            m = self.mask[p]
            if m.any():
                shifted = logits[p] - logits[p].max(axis=1, keepdims=True)
                lse = np.log(np.exp(shifted).sum(axis=1))
                picked = shifted[np.arange(len(m)), self.labels[p]]
                nll = (lse - picked)[m].sum()
            else:
                nll = 0.0
            packed.append(np.array([nll, m.sum()], dtype=np.float64))
        totals = self.comm.all_reduce(np.stack(packed), phase="loss_total").wait()
        total_nll, total_cnt = totals[0]
        if total_cnt == 0:
            raise ValueError("empty train mask")
        loss = float(total_nll / total_cnt)
        d_logits = []
        for p in range(p_count):
            g = masked_cross_entropy_grad(logits[p], self.labels[p], self.mask[p]) if self.mask[p].any() else np.zeros_like(logits[p])
            # masked_cross_entropy_grad normalizes by the *local* count;
            # rescale to the global masked mean
            local_cnt = self.mask[p].sum()
            if local_cnt:
                g *= local_cnt / total_cnt
            d_logits.append(g)
        return loss, d_logits

    # -- training ----------------------------------------------------------------------
    def train_epoch(self) -> EpochStats:
        cluster = self.cluster
        t0 = cluster.max_clock()
        comm0 = cluster.category_totals("comm:")
        comp0 = cluster.category_totals("comp:")
        logits, cache = self.forward()
        loss, d_logits = self.loss_and_grad(logits)
        grads = self.backward(d_logits, cache)
        for p, opt in enumerate(self.optimizers):
            opt.step(grads[p])
        cluster.barrier(phase="comm:epoch_sync")
        t1 = cluster.max_clock()
        comm = float(np.mean(cluster.category_totals("comm:") - comm0))
        comp = float(np.mean(cluster.category_totals("comp:") - comp0))
        return EpochStats(loss=loss, epoch_time=t1 - t0, comm_time=comm, comp_time=comp)

    def train(self, epochs: int) -> TrainResult:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        result = TrainResult()
        for _ in range(epochs):
            result.epochs.append(self.train_epoch())
        return result


class BnsGcnModel(PartitionParallelGCN):
    """BNS-GCN proper: METIS-style partitioning + boundary sampling."""

    def __init__(
        self,
        cluster: VirtualCluster,
        a_norm: sp.csr_matrix,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        layer_dims: list[int],
        options: BnsGcnOptions | None = None,
    ) -> None:
        options = options or BnsGcnOptions()
        partition = _PARTITIONERS[options.partitioner](a_norm, cluster.world_size, seed=options.seed)
        super().__init__(cluster, a_norm, features, labels, train_mask, layer_dims, partition, options)
