"""The 3D-parallel multi-layer GCN (Sec. 3).

Builds every layer's shards from the global (permuted) matrices, chains the
layers through the rotating axis roles of Sec. 3.2, and exposes
forward / backward / train-epoch entry points operating on all virtual
ranks.  Weight initialization slices the *same* Glorot matrices the serial
reference draws, so for any grid configuration the distributed computation
is step-for-step comparable with :class:`repro.nn.serial.SerialGCN`
(the Fig. 7 validation).

Execution is rank-batched throughout (stacked tensors, batched
GEMMs/SpMMs, whole-axis collectives over the rank cube, one stacked
optimizer) and every configuration runs it.  Every stack is a
:class:`~repro.core.batch.CubeStack`: persisted state at full extent over
flat ``(world, m, n)`` memory, activations with one copy per group of ranks
that share the value; quasi-equal sharding zero-pads them to the global
geometry's largest block (``LayerSharding.*_pad``) and their valid extents
keep pad entries out of the math, the gathers and the byte accounting;
blocked aggregation runs per-block stacked SpMM plans; SpMM noise draws are
keyed by the Adam step and the charge.  There is one representation of every
piece of state: the stacks; the per-rank accessors ``f0_shards`` /
``label_shards`` / ``mask_shards`` / ``w_shards`` are views into them.
``options.compute_dtype=np.float32`` selects the faster
benchmark mode.  The per-rank form of Algorithms 1-2 lives in
``tests/oracle.py`` as the bitwise reference (float64: losses, weights and
clocks): it cuts its own shards, reads a built model's kernel-time vectors
and initial state, and runs none of its code.

With ``options.overlap=True`` the model drives the nonblocking collective
schedules: each layer's W all-gather handle is issued at the end of the
previous layer (forward) / previous backward step and waited where the
consuming GEMM runs, blocked aggregation keeps its per-block all-reduces in
flight behind the next block's SpMM, and (unless input features are
trainable) the layer-0 F all-gather is prefetched
*across epochs* — issued at the end of the backward pass so the transfer
rides behind the backward tail and the epoch barrier, waited at the top of
the next epoch's forward.  Losses and weights are bitwise independent of
the schedule; only the simulated clocks (and hence the comm/comp
breakdown) change.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.batch import (
    CubeStack,
    shard_views,
    stack_data,
    stack_map,
    stack_mul,
    stack_shards,
)
from repro.core.configs import PlexusOptions
from repro.core.grid import GridConfig, PlexusGrid, axis_roles
from repro.core.layers import LayerCache, PlexusLayer
from repro.core.permutation import PermutationScheme, build_scheme
from repro.core.sharding import LayerSharding
from repro.dist.cluster import VirtualCluster
from repro.nn.functional import relu_grad
from repro.nn.init import glorot_uniform
from repro.nn.optim import Adam

__all__ = ["PlexusGCN"]


class PlexusGCN:
    """Full-graph GCN trained with 3D tensor parallelism.

    Parameters
    ----------
    cluster, config:
        The virtual cluster and the 3D grid factorization of the whole rank
        cube; the model is built for the ranks the cluster holds.
    a_norm:
        Global GCN-normalized adjacency (unpermuted; permutation is applied
        internally per the options).
    features, labels, train_mask:
        Global input arrays (unpermuted).
    layer_dims:
        ``[D_in, hidden..., n_classes]``.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        config: GridConfig,
        a_norm: sp.csr_matrix,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        layer_dims: list[int],
        options: PlexusOptions | None = None,
    ) -> None:
        if len(layer_dims) < 2:
            raise ValueError("need at least two layer dims")
        n = a_norm.shape[0]
        if a_norm.shape != (n, n) or features.shape[0] != n:
            raise ValueError("adjacency/features size mismatch")
        if features.shape[1] != layer_dims[0]:
            raise ValueError("features dim != layer_dims[0]")
        self.options = options or PlexusOptions()
        self.cluster = cluster
        self.config = config
        # the model spans the ranks its cluster holds — the whole cube, or
        # one worker's z-planes (repro.runtime): every
        # ``range(grid.world_size)`` loop below builds those ranks' shards,
        # and ``grid.comm(axis)`` reaches the rest of a worker-crossing axis
        self.grid = PlexusGrid(cluster, config)
        self.n = n
        self.layer_dims = list(layer_dims)
        self.n_classes = layer_dims[-1]
        self.dtype = self.options.compute_dtype
        opts = self.options

        # -- permutation preprocessing (Sec. 5.1) --------------------------
        self.scheme: PermutationScheme = build_scheme(n, opts.permutation, opts.seed)
        n_layers = len(layer_dims) - 1
        # -- sharding geometry ----------------------------------------------
        self.shardings = [
            LayerSharding(config, axis_roles(i), n, layer_dims[i], layer_dims[i + 1])
            for i in range(n_layers)
        ]

        # -- layer construction --------------------------------------------
        self._shard_cache: dict = {}
        self.layers: list[PlexusLayer] = []
        # the permuted adjacency per version (one; one per layer parity when
        # the scheme is "double"): read to cut min(3, L) shard sets each, then dropped
        perm_a: dict[int, sp.csr_matrix] = {}
        for i in range(n_layers):
            version = i % 2 if self.scheme.kind == "double" else 0
            if version not in perm_a:
                perm_a[version] = self.scheme.permuted_adjacency(a_norm, version).astype(self.dtype)
            w_full = glorot_uniform(layer_dims[i], layer_dims[i + 1], seed=opts.seed + i, dtype=self.dtype)
            self.layers.append(
                PlexusLayer(
                    self.grid,
                    self.shardings[i],
                    perm_a[version],
                    w_full,
                    layer_idx=i,
                    is_first=(i == 0),
                    is_last=(i == n_layers - 1),
                    trainable_features=opts.trainable_features,
                    aggregation_blocks=opts.aggregation_blocks,
                    tune_dw_gemm=opts.tune_dw_gemm,
                    noise=opts.noise,
                    adjacency_version=version,
                    shard_cache=self._shard_cache,
                    overlap=opts.overlap,
                )
            )
        del perm_a
        # layers three apart on one permuted adjacency share a cache entry
        first = self.layers[0]
        first.plans_shared = any(la._agg_steps[0][2] is first._agg_steps[0][2] for la in self.layers[1:])

        # -- input-feature shards (z-sub-sharded, Sec. 3.1) ------------------
        f_in_global = features[self.scheme.input_perm()].astype(self.dtype)
        s0 = self.shardings[0]
        world = self.grid.world_size
        cube = self.grid.cube
        self.f0_stack: CubeStack = stack_shards(
            [
                f_in_global[s0.f_row_subslice_z(self.grid, r), s0.f_col_slice(self.grid, r)]
                for r in range(world)
            ],
            cube,
            s0.f0_pad,
        )
        if not opts.trainable_features:
            # frozen is enforced: layer 0 aggregates these once and
            # replays the result, so an in-place edit must raise
            self.f0_stack.cube.setflags(write=False)
        self.f0_shards = shard_views(self.f0_stack)
        #: in-flight cross-epoch prefetch of the layer-0 F all-gather
        #: (issued at the end of backward under ``overlap``, consumed by the
        #: next ``forward``)
        self._f0_pending = None

        # -- label/mask shards aligned with the final output sharding --------
        out_perm = self.scheme.output_perm(n_layers)
        labels_out = labels[out_perm]
        mask_out = train_mask[out_perm]
        final = self.shardings[-1]
        rows = [final.out_row_slice(self.grid, r) for r in range(world)]
        pad = final.a_pad[:1]
        self.label_stack: CubeStack = stack_shards([labels_out[s] for s in rows], cube, pad)
        self.mask_stack: CubeStack = stack_shards([mask_out[s] for s in rows], cube, pad)
        self.label_shards = shard_views(self.label_stack)
        self.mask_shards = shard_views(self.mask_stack)
        self.class_slices = [final.out_col_slice(self.grid, r) for r in range(world)]
        self.class_start = np.asarray([s.start for s in self.class_slices], dtype=np.int64)
        #: what the loss and the accuracy derive from the three above, per
        #: logits geometry (``core.trainer._label_plan``)
        self.label_plans: dict = {}

        # -- one stacked Adam over the rank axis ------------------------------
        # the optimizer updates the stacks' own flat memory: pad entries
        # have zero gradients forever, so Adam leaves them at zero
        params = {f"W{i}": stack_data(layer.w_stack) for i, layer in enumerate(self.layers)}
        if opts.trainable_features:
            params["F0"] = stack_data(self.f0_stack)
        self.optimizer = Adam(params, lr=opts.lr)

    # -- introspection ---------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def adjacency_bytes(self) -> int:
        """CSR bytes this process stores for the graph: those of the SpMM
        plans, its only copy (the ``adjacency_bytes`` gauge;
        ``memory_per_rank`` is the *simulated* per-GPU footprint)."""
        plans = {id(p): p for la in self.layers for p in (la._bd_at, *la._bd_blocks)}
        return sum(p.nbytes for p in plans.values() if p is not None)

    @staticmethod
    def activation_bytes(caches: list[LayerCache]) -> int:
        """Bytes of the forward caches' distinct cubes, one copy per group of
        ranks (the ``activation_bytes`` gauge)."""
        return sum({id(s.cube): s.cube.nbytes for c in caches for s in (c.f, c.h, c.q)}.values())

    def memory_per_rank(self) -> list[int]:
        """Bytes of adjacency + weight + feature shards per rank (the memory
        model behind Sec. 5.1's overhead accounting)."""
        totals = np.zeros(self.grid.world_size, dtype=np.int64)
        # layers three apart share a shard set (counted once); replica ranks
        # share a plan's block, but each GPU holds its own copy
        billed = {id(layer.a_nbytes): layer.a_nbytes for layer in self.layers}
        for a_nbytes in billed.values():
            totals += a_nbytes
        for layer in self.layers:
            totals += [w.nbytes for w in layer.w_shards]
        totals += [f.nbytes for f in self.f0_shards]
        return totals.tolist()

    # -- forward / backward ------------------------------------------------------
    def prefetched_handles(self) -> tuple:
        """Collective handles intentionally in flight across the epoch
        boundary (the cross-epoch F prefetch) — the trainer exempts them
        from its dropped-handle check."""
        return () if self._f0_pending is None else (self._f0_pending,)

    def forward(self):
        """Forward through all layers; returns the logits — a stack of
        logical shape ``(world, rows, classes)``, indexable by rank — and
        the per-layer caches.

        With ``overlap=True`` the next layer's W all-gather is issued as
        each layer completes (the Sec. 5.2-style prefetch) and waited inside
        that layer where the GEMM consumes it; a cross-epoch F prefetch
        issued by the previous ``backward`` is consumed by layer 0 here.
        """
        overlap = self.options.overlap
        acts = self.f0_stack
        f_pending, self._f0_pending = self._f0_pending, None
        caches: list[LayerCache] = []
        w_pending = None
        for i, layer in enumerate(self.layers):
            # the Adam step is the SpMM noise model's only clock (so an
            # ``evaluate()`` forward between two epochs consumes nothing)
            acts, cache = layer.forward(
                acts, w_pending=w_pending, f_pending=f_pending, step=self.optimizer.t
            )
            f_pending = None
            caches.append(cache)
            w_pending = (
                self.layers[i + 1].issue_w_gather()
                if overlap and i + 1 < self.n_layers
                else None
            )
        return acts, caches

    def _f0_prefetch_hook(self):
        """The cross-epoch F prefetch issuer, or None when not applicable.

        Handed to layer 0's backward, which invokes it right after its W
        all-gather completes — the layer's last Z-link operation — so the
        next epoch's F all-gather is issued while every rank still has the
        dH GEMM, the dH all-reduce and the epoch barrier ahead of it: the
        transfer hides behind that tail and the next forward's wait charges
        only the uncovered remainder.  Only valid when the gathered data
        cannot change before the next forward — i.e. input features are
        frozen."""
        if not self.options.overlap or self.options.trainable_features:
            return None

        def issue() -> None:
            if self._f0_pending is None:
                self._f0_pending = self.layers[0].issue_f_gather(self.f0_stack)

        return issue

    def backward(self, d_logits, caches: list[LayerCache]) -> dict[str, np.ndarray]:
        """Backward through all layers; returns the stacked gradients keyed
        like the optimizer parameters.  With ``overlap=True`` each preceding
        layer's W all-gather is prefetched as the current backward step
        completes.  Consumes ``caches``: each stack is released at its last
        reader, and every entry is ``None`` on return."""
        overlap = self.options.overlap
        grads: dict[str, np.ndarray] = {}
        dq = d_logits
        w_pending = None
        for i in range(self.n_layers - 1, -1, -1):
            hook = self._f0_prefetch_hook() if i == 0 else None
            df, dw = self.layers[i].backward(
                dq, caches[i], w_pending=w_pending, post_w_hook=hook, step=self.optimizer.t
            )
            w_pending = self.layers[i - 1].issue_w_gather(caches[i - 1]) if overlap and i > 0 else None
            grads[f"W{i}"] = dw
            caches[i] = None  # consumed: its H died at the dW GEMM, its F is the mask below
            if i > 0:
                # chain rule through the previous layer's ReLU (Eq. 2.4), one
                # elementwise product over the whole stacked grid; relu(Q) and dF die here
                dq = stack_mul(df, stack_map(relu_grad, caches[i - 1].q))
                caches[i - 1].q = df = None
            elif df is not None and self.options.trainable_features:
                grads["F0"] = df
        return grads

    def apply_gradients(self, grads) -> None:
        """Optimizer step: one stacked Adam over the rank axis — elementwise
        the update shard-local per-rank Adams would make (Fig. 7)."""
        self.optimizer.step({k: stack_data(g) for k, g in grads.items()})
