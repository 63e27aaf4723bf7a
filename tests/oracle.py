"""The per-rank reference: Algorithms 1-2 as the paper writes them.

``repro.core`` *executes* the 3D-parallel GCN rank-batched (stacked tensors,
whole-axis collectives over the rank cube, one stacked Adam, a frozen layer 0
replayed from its first pass).  This module is the form the paper gives —
one rank at a time, one collective call **per process group** at a time
(:func:`axis_groups`: the oracle's own groups, built from the grid's
geometry and cluster, each running the per-group collectives of
``tests/groupwise.py``), one Adam per rank — kept whole as the bitwise oracle of the parity suites: losses,
weights, trainable F0, per-rank clocks, every ``by_phase`` bucket and every
``EpochStats`` field must equal the product's in float64.

It shares **data, not code** with the product, and not the graph either:
each rank's adjacency shard, its row blocks and its ``A^T`` are the oracle's
own cuts of ``built.scheme.permuted_adjacency(a_norm, version)`` by the
layer's ``LayerSharding.a_row_slice`` / ``a_col_slice`` and
``block_slices``.  A built :class:`~repro.core.model.PlexusGCN` is read for
the modeled kernel-time vectors (``_t_*``, ``_nnz_a``), the noise sampler,
copies of the initial W / F0 shards and the label / mask / class slices; no
method of ``PlexusGCN``, ``PlexusLayer``, ``PlexusTrainer`` or
``AxisCommunicator`` is ever called, so the model is never run.  Nothing is
memoised: a frozen layer 0 is gathered, aggregated and back-propagated every
epoch, which makes oracle == product the independent check of the product's
frozen-layer-0 replay.

The GEMMs go through :func:`~repro.core.batch.batched_matmul` and the
unblocked SpMMs through the oracle's own ``BlockDiagSpmm(shards).apply``
(value-identical to a plain per-rank loop; they hand BLAS / CSR the operand
layouts the stacked product uses, which is what bitwise float64 equality
needs).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

import groupwise
from groupwise import Group

from repro.core.batch import BlockDiagSpmm, batched_matmul
from repro.core.model import PlexusGCN
from repro.core.trainer import EpochStats, TrainResult
from repro.dist.collectives import axis_bandwidth
from repro.nn.functional import relu, relu_grad
from repro.nn.optim import Adam
from repro.sparse.ops import spmm
from repro.sparse.partition import block_slices, csr_block

__all__ = ["PerRankOracle", "GroupHandles", "map_groups", "axis_groups", "axis_group_ranks"]


@lru_cache(maxsize=None)
def axis_group_ranks(gx: int, gy: int, gz: int, axis: int) -> tuple[tuple[int, ...], ...]:
    """The global member ranks of every process group along grid ``axis``
    (0 = X, 1 = Y, 2 = Z) under the Y-fastest mapping, rank
    ``z*(Gx*Gy) + x*Gy + y``: groups in ascending order of their off-axis
    coordinates, members in ascending order of their coordinate along
    ``axis`` — the shard order of an all-gather."""
    sizes = (gx, gy, gz)
    others = [a for a in range(3) if a != axis]
    groups = []
    for key in itertools.product(*(range(sizes[a]) for a in others)):
        coords = [0, 0, 0]
        for a, v in zip(others, key):
            coords[a] = v
        members = []
        for c in range(sizes[axis]):
            coords[axis] = c
            x, y, z = coords
            members.append((z * gx + x) * gy + y)
        groups.append(tuple(members))
    return tuple(groups)


def axis_groups(grid, axis) -> list[Group]:
    """The process groups along ``axis`` of a whole-cube grid, built from
    its cluster's ranks with the Eq. 4.6 bandwidth of the axis.  Their
    links are the product's by key (``comm.link_key`` of the member ranks),
    so a group's collectives queue behind the whole-axis ones."""
    cfg, cluster = grid.config, grid.cluster
    if cluster.world_size != cfg.total:
        raise ValueError("the oracle's groups span a whole-cube grid")
    bw = axis_bandwidth(cluster.machine, cfg.size(axis), cfg.inner_size(axis))
    return [Group(cluster, ranks, bw) for ranks in axis_group_ranks(cfg.gx, cfg.gy, cfg.gz, int(axis))]


class GroupHandles:
    """One logical collective issued group by group along a grid axis: the
    per-group handles (disjoint rank sets) and each group's member ranks."""

    def __init__(self, parts: list[tuple], world: int) -> None:
        self.parts = parts
        self.world = world

    def handles(self) -> tuple:
        return tuple(handle for handle, _ in self.parts)

    def wait(self) -> list:
        """Complete every group's handle in issue order; the results as one
        rank-indexed list."""
        out: list = [None] * self.world
        for handle, ranks in self.parts:
            for rank, result in zip(ranks, handle.wait()):
                out[rank] = result
        return out


def map_groups(grid, axis, method: str, per_rank, /, **kw) -> GroupHandles:
    """Issue ``method`` (``"all_reduce"`` / ``"all_gather"`` /
    ``"reduce_scatter"``) once per process group along grid ``axis`` over a
    rank-indexed shard list, with the per-group collectives of
    ``tests/groupwise.py`` on the oracle's own groups (:func:`axis_groups`);
    ``kw`` (``phase``, ``op``, the data ``axis``) goes to each call."""
    parts = []
    for group in axis_groups(grid, axis):
        handle = getattr(groupwise, method)(group, [per_rank[r] for r in group.ranks], **kw)
        parts.append((handle, group.ranks))
    return GroupHandles(parts, len(per_rank))


class _Layer:
    """The oracle's side of one layer: its own weight shards and adjacency
    cuts (per rank: the shard, its row blocks, its transpose), and the built
    product layer it reads kernel times from."""

    def __init__(self, built, a, blocks: int) -> None:
        self.data = built
        self.roles = built.roles
        self.w_shards = [w.copy() for w in built.w_shards]
        grid, sharding = built.grid, built.sharding
        self.a_shards = [
            csr_block(a, sharding.a_row_slice(grid, r), sharding.a_col_slice(grid, r))
            for r in range(grid.world_size)
        ]
        self.spmm_a = BlockDiagSpmm(self.a_shards)
        self.a_blocks = [
            [csr_block(s, sl, slice(0, s.shape[1])) for sl in block_slices(s.shape[0], blocks)]
            for s in self.a_shards
        ]
        self.at_shards = [s.T.tocsr() for s in self.a_shards]


class PerRankOracle:
    """Per-rank training of the model ``PlexusGCN(*args)`` describes (same
    constructor); ``train(epochs)`` like ``PlexusTrainer``."""

    def __init__(self, cluster, config, a_norm, features, labels, train_mask, layer_dims,
                 options=None) -> None:
        built = PlexusGCN(cluster, config, a_norm, features, labels, train_mask, layer_dims, options)
        self.cluster = cluster
        self.grid = built.grid
        self.options = opts = built.options
        self.world = self.grid.world_size
        scheme, perm_a = built.scheme, {}  # the permuted adjacency per version (Sec. 5.1)
        self.layers = []
        for i, layer in enumerate(built.layers):
            version = i % 2 if scheme.kind == "double" else 0
            if version not in perm_a:
                perm_a[version] = scheme.permuted_adjacency(a_norm, version).astype(built.dtype)
            self.layers.append(_Layer(layer, perm_a[version], opts.aggregation_blocks))
        self.f0_shards = [f.copy() for f in built.f0_shards]
        self.label_shards = built.label_shards
        self.mask_shards = built.mask_shards
        self.class_slices = built.class_slices
        self.loss_roles = built.shardings[-1].roles
        self.optimizers = []
        for r in range(self.world):
            params = {f"W{i}": layer.w_shards[r] for i, layer in enumerate(self.layers)}
            if opts.trainable_features:
                params["F0"] = self.f0_shards[r]
            self.optimizers.append(Adam(params, lr=opts.lr))
        #: the cross-epoch prefetch of the layer-0 F all-gather, in flight
        self._f0_pending: GroupHandles | None = None

    # -- pieces ------------------------------------------------------------------
    def _map(self, axis, method: str, per_rank, /, **kw) -> GroupHandles:
        return map_groups(self.grid, axis, method, per_rank, **kw)

    def _charge_spmm(self, times, nnz, phase: str, layer: _Layer, bwd: int, block: int = 0) -> None:
        noise = self.options.noise
        if noise is not None:  # the draws of this charge, by its own step counter
            charge = (self.optimizers[0].t, layer.data.layer_idx, bwd, block)
            times = times * noise.multipliers(nnz, charge, self.world)
        self.cluster.advance_all(times, phase)

    def _gather_w(self, layer: _Layer) -> GroupHandles:
        return self._map(layer.roles.z, "all_gather", layer.w_shards, axis=0, phase="all_gather_w")

    def _gather_f0(self) -> GroupHandles:
        roles = self.layers[0].roles
        return self._map(roles.z, "all_gather", self.f0_shards, axis=0, phase="all_gather_f")

    # -- Algorithm 1 ---------------------------------------------------------------
    def _layer_forward(self, layer: _Layer, f_in, w_pending, f_pending):
        d, roles, world = layer.data, layer.roles, self.world
        overlap, blocks = self.options.overlap, self.options.aggregation_blocks
        # line 3: all-gather F across the Z-parallel group (layer 0 only)
        if d.is_first:
            f = (self._gather_f0() if f_pending is None else f_pending).wait()
        else:
            f = f_in
        # overlap: this layer's W gather rides behind the aggregation
        if overlap and w_pending is None:
            w_pending = self._gather_w(layer)
        # lines 4-5: H = SpMM(A, F); all-reduce across the X-parallel group
        if blocks == 1:
            self._charge_spmm(d._t_spmm_blocks[0], d._nnz_a, "comp:spmm_fwd", layer, 0)
            h = self._map(roles.x, "all_reduce", layer.spmm_a.apply(f), phase="all_reduce_h").wait()
        else:
            # Sec. 5.2: per row block; eager waits each reduce before the
            # next block's SpMM, overlap joins them all after the last one
            pending, parts = [], []
            for b in range(blocks):
                shards = [layer.a_blocks[r][b] for r in range(world)]
                nnz = [a.nnz for a in shards]
                self._charge_spmm(d._t_spmm_blocks[b], nnz, "comp:spmm_fwd", layer, 0, b)
                partial = [spmm(shards[r], f[r]) for r in range(world)]
                handle = self._map(roles.x, "all_reduce", partial, phase="all_reduce_h")
                if overlap:
                    pending.append(handle)
                else:
                    parts.append(handle.wait())
            parts += [handle.wait() for handle in pending]
            h = [np.concatenate([p[r] for p in parts], axis=0) for r in range(world)]
        # lines 7-9: Q = SGEMM(H, W); all-reduce across the Y-parallel group
        if w_pending is None:
            w_pending = self._gather_w(layer)
        w = w_pending.wait()
        self.cluster.advance_all(d._t_gemm_fwd, "comp:gemm_fwd")
        q = self._map(roles.y, "all_reduce", batched_matmul(h, w), phase="all_reduce_q").wait()
        # line 11: activation (identity on the last layer: logits)
        f_out = q if d.is_last else [relu(x) for x in q]
        return f_out, (h, q)

    def _forward(self):
        overlap, n_layers = self.options.overlap, len(self.layers)
        f_pending, self._f0_pending = self._f0_pending, None
        acts, caches, w_pending = self.f0_shards, [], None
        for i, layer in enumerate(self.layers):
            acts, cache = self._layer_forward(layer, acts, w_pending, f_pending)
            f_pending = None
            caches.append(cache)
            # W prefetch: the next layer's gather is issued as this one completes
            w_pending = self._gather_w(self.layers[i + 1]) if overlap and i + 1 < n_layers else None
        return acts, caches

    # -- the masked cross-entropy --------------------------------------------------
    def _masked_ce(self, logits):
        roles, world = self.loss_roles, self.world
        labels, masks, cslices = self.label_shards, self.mask_shards, self.class_slices
        # 1) log-softmax statistics along the class (x-role) axis; a rank
        # owning zero class columns contributes -inf / 0
        local_max = [
            l.max(axis=1) if l.shape[1] else np.full(l.shape[0], -np.inf, dtype=l.dtype)
            for l in logits
        ]
        row_max = self._map(roles.x, "all_reduce", local_max, op="max", phase="loss_max").wait()
        local_sum = [
            np.exp(logits[r] - row_max[r][:, None]).sum(axis=1)
            if logits[r].shape[1] else np.zeros_like(row_max[r])
            for r in range(world)
        ]
        sum_exp = self._map(roles.x, "all_reduce", local_sum, phase="loss_sumexp").wait()
        # 2) each masked node's own-label logit, from the owning class shard
        owned, z_local = [], []
        for r in range(world):
            c0, c1 = cslices[r].start, cslices[r].stop
            own = masks[r] & (labels[r] >= c0) & (labels[r] < c1)
            idx = np.nonzero(own)[0]
            z = np.zeros(logits[r].shape[0], dtype=logits[r].dtype)
            z[idx] = logits[r][idx, labels[r][idx] - c0]
            owned.append(idx)
            z_local.append(z)
        z_label = self._map(roles.x, "all_reduce", z_local, phase="loss_zlabel").wait()
        # 3) masked sum + count along the row (z-role) axis (a where-product,
        # so each row's reduction order is that of an axis-1 reduction)
        packed = []
        for r in range(world):
            nll = row_max[r] + np.log(sum_exp[r]) - z_label[r]
            packed.append(
                np.array([np.where(masks[r], nll, 0.0).sum(), masks[r].sum()], dtype=np.float64)
            )
        total_nll, total_cnt = self._map(roles.z, "all_reduce", packed, phase="loss_total").wait()[0]
        if total_cnt == 0:
            raise ValueError("empty train mask")
        # 4) gradient shards: (softmax - onehot) / count on masked rows
        d_logits = []
        for r in range(world):
            l, log_s = logits[r], np.log(sum_exp[r])
            probs = np.exp(l - row_max[r][:, None] - log_s[:, None]) if l.shape[1] else np.zeros_like(l)
            g = np.zeros_like(l)
            midx = np.nonzero(masks[r])[0]
            g[midx] = probs[midx]
            g[owned[r], labels[r][owned[r]] - cslices[r].start] -= 1.0
            g /= total_cnt
            d_logits.append(g)
        return float(total_nll / total_cnt), d_logits

    # -- Algorithm 2 ---------------------------------------------------------------
    def _layer_backward(self, layer: _Layer, dq, cache, w_pending, prefetch_f0: bool):
        d, roles, world = layer.data, layer.roles, self.world
        opts = self.options
        h, _ = cache
        # overlap: re-gather W behind the grad-W GEMM and its reduce-scatter
        if opts.overlap and w_pending is None:
            w_pending = self._gather_w(layer)
        # line 2: dW = SGEMM(H^T, dQ), or the Sec. 5.3 tuned (dQ^T H)^T
        self.cluster.advance_all(d._t_gemm_dw, "comp:gemm_dw")
        if opts.tune_dw_gemm:
            dw_partial = [m.T for m in batched_matmul([g.T for g in dq], h)]
        else:
            dw_partial = batched_matmul([x.T for x in h], dq)
        # line 3: reduce-scatter dW across the Z-parallel group
        dw = self._map(
            roles.z, "reduce_scatter", dw_partial, axis=0, phase="reduce_scatter_dw"
        ).wait()
        # line 4: all-gather W across the Z-parallel group
        if w_pending is None:
            w_pending = self._gather_w(layer)
        w = w_pending.wait()
        # cross-epoch prefetch: after layer 0's last Z-link operation the next
        # epoch's F gather hides behind the dH GEMM, all-reduce and barrier
        if prefetch_f0 and self._f0_pending is None:
            self._f0_pending = self._gather_f0()
        # lines 5-6: dH = SGEMM(dQ, W^T); all-reduce across the X-parallel group
        self.cluster.advance_all(d._t_gemm_dh, "comp:gemm_dh")
        dh_partial = batched_matmul(dq, [x.T for x in w])
        dh_pending = self._map(roles.x, "all_reduce", dh_partial, phase="all_reduce_dh")
        if d.is_first and not opts.trainable_features:
            dh_pending.wait()  # nobody reads it; computed and reduced all the same
            return None, dw
        # lines 7-8: dF = SpMM(A^T, dH); overlap charges the SpMM while the dH
        # all-reduce is in flight and waits it where dF consumes it
        if opts.overlap:
            self._charge_spmm(d._t_spmm_bwd, d._nnz_a, "comp:spmm_bwd", layer, 1)
            dh = dh_pending.wait()
        else:
            dh = dh_pending.wait()
            self._charge_spmm(d._t_spmm_bwd, d._nnz_a, "comp:spmm_bwd", layer, 1)
        df_partial = [spmm(layer.at_shards[r], dh[r]) for r in range(world)]
        if d.is_first:  # trainable F0: z-sub-sharded gradient
            return self._map(
                roles.z, "reduce_scatter", df_partial, axis=0, phase="reduce_scatter_df"
            ).wait(), dw
        return self._map(roles.z, "all_reduce", df_partial, phase="all_reduce_df").wait(), dw

    def _backward(self, d_logits, caches) -> list[dict]:
        opts, world = self.options, self.world
        prefetch = opts.overlap and not opts.trainable_features
        grads: list[dict] = [{} for _ in range(world)]
        dq, w_pending = d_logits, None
        for i in range(len(self.layers) - 1, -1, -1):
            df, dw = self._layer_backward(
                self.layers[i], dq, caches[i], w_pending, prefetch and i == 0
            )
            w_pending = self._gather_w(self.layers[i - 1]) if opts.overlap and i > 0 else None
            for r in range(world):
                grads[r][f"W{i}"] = dw[r]
            if i > 0:  # chain rule through the previous layer's ReLU (Eq. 2.4)
                dq = [df[r] * relu_grad(caches[i - 1][1][r]) for r in range(world)]
            elif df is not None:
                for r in range(world):
                    grads[r]["F0"] = df[r]
        return grads

    # -- epochs ------------------------------------------------------------------------
    def train_epoch(self) -> EpochStats:
        cluster = self.cluster
        t0 = cluster.max_clock()
        comm0 = cluster.category_totals("comm:")
        comp0 = cluster.category_totals("comp:")
        logits, caches = self._forward()
        loss, d_logits = self._masked_ce(logits)
        grads = self._backward(d_logits, caches)
        for opt, g in zip(self.optimizers, grads):
            opt.step(g)
        in_flight = () if self._f0_pending is None else self._f0_pending.handles()
        cluster.check_outstanding(allowed=in_flight)
        cluster.barrier(phase="comm:epoch_sync")
        t1 = cluster.max_clock()
        return EpochStats(
            loss=loss,
            epoch_time=t1 - t0,
            comm_time=float(np.mean(cluster.category_totals("comm:") - comm0)),
            comp_time=float(np.mean(cluster.category_totals("comp:") - comp0)),
        )

    def train(self, epochs: int) -> TrainResult:
        result = TrainResult()
        for _ in range(epochs):
            result.epochs.append(self.train_epoch())
        return result
