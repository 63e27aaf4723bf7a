"""One 3D-parallel GCN layer: Algorithms 1 (forward) and 2 (backward).

The driver executes each step for every rank (real numpy math on real
shards) and advances the rank clocks with the modeled kernel times; the
collective steps go through the handle-based communicator API
(``grid.comm(axis)``): each collective is *issued* (a
:class:`~repro.dist.comm.PendingCollective`) and *waited* where its result
is consumed.  With ``overlap=False`` every issue is followed immediately by
its wait — the eager schedule, bitwise identical to the historical
function-style collectives.  With ``overlap=True`` the layer runs the three
Sec. 5.2-style schedules: the per-block aggregation all-reduces stay in
flight while the next row block's SpMM computes (waited together after the
last block), each layer's W all-gather is prefetched — issued at the
end of the previous layer by the model driver — and waited only when the
combination GEMM needs it, and the backward dH all-reduce stays in flight
behind the backward SpMM (pipelining A^T's column blocks against the ring
steps), waited where dF consumes it.  Only the clocks change: issue-time data
semantics make losses and weights bitwise independent of the schedule.

The layer is written once against *logical* roles (x, y, z);
:func:`repro.core.grid.axis_roles` maps them to physical axes per layer,
which is all that Sec. 3.2's "parallelizing all layers" requires.

Execution is **rank-batched** (CAGNET's stacked-partition form of the
per-rank pseudo-code): per-rank operands live as one stacked tensor, the
three GEMMs of Algorithms 1-2 run as single ``np.matmul`` batched calls (one
per exact-shape box of ranks), the SpMMs as one block CSR product
(:class:`repro.core.batch.BlockDiagSpmm` — per aggregation row block when
blocking is on), and the collectives as keepdims reductions over the rank
cube (:class:`~repro.dist.comm.AxisCommunicator`).  Every configuration
runs this one path.  The per-rank, per-process-group form the paper writes
is kept as the bitwise reference in ``tests/oracle.py``: its own
implementation, which cuts its own shards from the permuted adjacency, reads
a built model's kernel-time vectors and shares no execution code with this
module.

No sharding stores a replica: every collective returns its result once per
group, in cube layout with extent 1 along the axes the value is shared on
(a :class:`~repro.core.batch.CubeStack`), and the next step broadcasts over
it.
In Algorithm 1 the gathered F has extent 1 along the z-role axis (the
SpMM's block CSR points the group's ranks at the one block), H after the
X-all-reduce along x, the gathered W along z, so ``Q = H @ W`` is a
broadcasting matmul yielding the full cube; Q after the Y-all-reduce has
extent 1 along y, and so does ``relu(Q)`` — which *is* the next layer's F,
whose z-role is this layer's y.  Algorithm 2 mirrors it: dQ (y) and H (x)
broadcast into the full dW, whose Z-reduce-scatter is a view; dH after
the X-all-reduce (x) feeds the A^T product like F did; dF after the
Z-all-reduce (z) meets ``relu'(Q_prev)`` with the same extents.

**An activation dies at its last reader.**  A hidden layer caches relu(Q),
the next layer's F itself, not Q: both give the ``relu'`` mask bitwise.
Backward drops H after the dW GEMM and dH before the Z reduction allocates
dF; the model drops each mask after the chain rule, the trainer the logits
after the loss.  The W a forward gathered stays in its cache (it is the
layer's W until the optimizer step), so backward's line-4 gather is
re-issued with it and its recorded duration — the gather's timeline, no
copy — and dH's operands exist before dW's reduce-scatter: past break-even
the dW and dH GEMMs run side by side on the process's pool
(:func:`repro.sparse.ops.run_parts`), the clocks charging each where
Algorithm 2 puts it.  Weights,
features and gradients handed to the optimizer are flat ``(world, m, n)``.
Quasi-equal sharding is the same stacks zero-padded: their per-rank valid
extents keep pad entries out of every sum (kernels run once per *box* of
ranks sharing an exact shape), the gathers and the byte accounting.

**Frozen means computed once.**  With ``trainable_features=False`` (the
default) Algorithm 1 lines 3-5 of layer 0 have the same operands every
epoch, and nobody reads Algorithm 2's layer-0 ``dH``.  The layer runs them
in full exactly once: the first forward keeps the gathered F0 and
``H0 = all-reduce_X(A @ F0)``, the first backward multiplies ``dQ W^T`` a
last time, and both record the scheduled duration of each collective
(:attr:`~repro.dist.comm.PendingCollective.duration`).  Every later pass
*replays*: the F0 all-gather (the cross-epoch prefetch and ``evaluate()``
included), each (per-block) SpMM charge with its noise draw, each
X-all-reduce, the ``comp:gemm_dh`` charge and the dH all-reduce are issued
and waited as before — through
:meth:`~repro.dist.comm.AxisCommunicator.issue`, which schedules a
collective of known duration without an operand — so clocks, link
reservations, in-flight queues, phase totals and trace events stay bitwise
what they were, while no SpMM, GEMM, gather copy or reduction runs for
them — so the layer releases its forward SpMM plans right after its first
forward, unless a later layer multiplies with the same ones.  What is held
is read-only (``PlexusGCN`` makes the F0 shards read-only too: an in-place
edit raises rather than training on a stale H0), replays are counted
(``frozen_agg_replays`` in the metrics registry), trainable features
memoise nothing, and the test-side oracle memoises nothing at all: the
product == oracle bitwise suites are therefore the independent check of the
replay.

Kernel times are *precomputed* per rank at construction (shard shapes never
change across epochs), so the hot loop advances all clocks per step with a
single vectorized call instead of ``world_size`` scalar ones.

Optimizations hosted here:

* **Blocked aggregation** (Sec. 5.2): with ``aggregation_blocks > 1`` the
  forward SpMM + X-all-reduce run per row-block of the adjacency shard.
* **Dense-matmul tuning** (Sec. 5.3): with ``tune_dw_gemm`` the grad-W
  product is *modeled* (and on a real machine executed) as
  ``(SGEMM(dQ^T, H))^T`` — an NT-mode kernel — instead of the pathological
  TN mode; the numerical result is identical.
* **SpMM variability** (Sec. 5.2's motivation): an optional
  :class:`~repro.core.noise.SpmmNoise` inflates large per-call SpMM times
  stochastically; each charge's per-rank draws are a function of (step,
  layer, pass, block) — the oracle computes the same ones.

Sparse products route through the :func:`repro.sparse.ops.spmm` seam (via
:class:`~repro.core.batch.BlockDiagSpmm`), keeping one place where a
real-GPU backend could swap in an instrumented kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.batch import (
    BlockDiagSpmm,
    CubeStack,
    concat_stack_rows,
    shard_views,
    side_by_side,
    stack_map,
    stack_matmul,
    stack_shards,
    stack_transpose,
)
from repro.core.grid import PlexusGrid
from repro.core.noise import SpmmNoise
from repro.core.sharding import LayerSharding
from repro.dist.comm import PendingCollective
from repro.gpu.gemm import GemmMode, gemm_time_batch
from repro.gpu.spmm import spmm_time_batch
from repro.nn.functional import relu
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics
from repro.sparse.ops import run_parts
from repro.sparse.partition import block_slice, block_slices, csr_block

__all__ = ["LayerCache", "PlexusLayer", "kernel_times"]


@dataclass
class LayerCache:
    """Per-rank forward activations kept for the backward pass.

    Each field is a stack indexable by rank, ``f`` held once per Z group,
    ``h`` once per X group, ``q`` once per Y group; backward releases each
    at its last reader.
    """

    #: gathered input features F (full local block), per rank
    f: CubeStack
    #: aggregation output H after the X-all-reduce, per rank
    h: CubeStack | None
    #: the layer's output, per rank: relu(Q) (the next layer's ``f`` and the
    #: source of relu'(Q)), or the logits
    q: CubeStack | None
    #: the W the forward gathered (read-only, unchanged until the optimizer
    #: step) and the gather's scheduled duration: backward re-issues the
    #: gather with both instead of gathering again
    w: CubeStack
    w_duration: Any


#: ``_FrozenAggregation.dh_duration`` before the first backward (``None``
#: is a recorded value: the no-cost handle of a size-1 axis)
_UNRECORDED = object()


@dataclass
class _FrozenAggregation:
    """What a frozen layer 0 keeps of its first pass: the aggregation's
    operand and result, and the scheduled duration of every collective that
    is re-issued without its operand afterwards."""

    #: the gathered F0 — what a replayed (pre)fetch handle hands back, so a
    #: checkpointed in-flight prefetch still carries its data
    f: CubeStack
    #: H0 = all-reduce_X(A @ F), read-only
    h: CubeStack
    #: duration of the F0 all-gather
    f_duration: Any
    #: duration of each aggregation block's X-all-reduce
    h_durations: list
    #: duration of the backward dH all-reduce
    dh_duration: Any = _UNRECORDED


class PlexusLayer:
    """One GCN layer distributed over the 3D grid."""

    def __init__(
        self,
        grid: PlexusGrid,
        sharding: LayerSharding,
        a_global: sp.csr_matrix,
        w_full: np.ndarray,
        *,
        layer_idx: int,
        is_first: bool,
        is_last: bool,
        trainable_features: bool = False,
        aggregation_blocks: int = 1,
        tune_dw_gemm: bool = False,
        noise: SpmmNoise | None = None,
        adjacency_version: int = 0,
        shard_cache: dict[Any, tuple] | None = None,
        overlap: bool = False,
    ) -> None:
        if aggregation_blocks < 1:
            raise ValueError("aggregation_blocks must be >= 1")
        self.grid = grid
        self.cluster = grid.cluster
        self.sharding = sharding
        self.layer_idx = layer_idx
        self.is_first = is_first
        self.is_last = is_last
        self.trainable_features = trainable_features
        self.aggregation_blocks = aggregation_blocks
        self.tune_dw_gemm = tune_dw_gemm
        self.noise = noise
        self.overlap = overlap
        self.roles = sharding.roles
        world = grid.world_size
        # product and gather pads from the global geometry: a worker's shards
        # may all be short
        rows_pad, cols_pad = sharding.a_pad
        self._f_gather_pad, self._w_gather_pad = cols_pad, sharding.w_gather_pad
        # -- the adjacency is its SpMM plans alone, cut from ``a_global`` here
        # one distinct shard at a time.  Rank r's shard is A[rows, cols],
        # keyed by its slices: ranks along the y-role share it.  Layers i and
        # i+3 share roles (period-3 rotation), so the plans are cached per
        # (permuted adjacency, roles) and built by the first layer needing each
        plans = ({} if shard_cache is None else shard_cache).setdefault(
            (adjacency_version, sharding.roles.as_tuple()), {}
        )
        keys = []
        for rank in range(world):
            rs, cs = sharding.a_row_slice(grid, rank), sharding.a_col_slice(grid, rank)
            keys.append((rs.start, rs.stop, cs.start, cs.stop))
        billed: dict[tuple, int] = {}

        def block(key, b: int) -> sp.csr_matrix:
            """Row block ``b`` of the shard, cut straight from ``a_global``.
            Together the blocks bill the whole shard's CSR bytes: the same
            values and indices, and an indptr with one entry per row plus one."""
            rows = block_slice(key[1] - key[0], aggregation_blocks, b)
            cut = csr_block(a_global, slice(key[0] + rows.start, key[0] + rows.stop), slice(*key[2:]))
            ptr = cut.indptr.itemsize
            billed[key] = billed.get(key, ptr) + cut.data.nbytes + cut.indices.nbytes + cut.indptr.nbytes - ptr
            return cut

        def plan(name, cut, pad: int) -> BlockDiagSpmm:
            if name not in plans:
                plans[name] = BlockDiagSpmm(keys, pad, grid.cube, cut=cut)
            return plans[name]

        # the forward plans, one per row block (Sec. 5.2: blocked aggregation
        # drives one SpMM per block instead of ``world`` calls; one block is
        # the unblocked layer)
        self._bd_blocks = [
            plan(("block", b), lambda key, b=b: block(key, b), sl.stop - sl.start)
            for b, sl in enumerate(block_slices(rows_pad, aggregation_blocks))
        ]
        # A^T is read by a backward that computes dF: never by a frozen layer 0
        self._bd_at = (
            None if is_first and not trainable_features
            else plan(
                "at",
                lambda key: csr_block(a_global, slice(*key[:2]), slice(*key[2:])).T.tocsr(),
                cols_pad,
            )
        )
        if "billed" not in plans:
            plans["billed"] = np.asarray([billed[key] for key in keys], dtype=np.int64)
        #: per rank, the CSR bytes of its whole shard: what ``memory_per_rank``
        #: bills a GPU (every replica its own copy)
        self.a_nbytes = plans["billed"]
        # -- weight shards: local (D_in/Gy x D_out/Gx) block, z-sub-sharded rows
        self.w_stack: CubeStack = stack_shards(
            [
                w_full[sharding.w_row_subslice_z(grid, r), sharding.w_col_slice(grid, r)]
                for r in range(world)
            ],
            grid.cube,
            sharding.w_pad,
        )
        self.w_shards: list[np.ndarray] = shard_views(self.w_stack)
        self._precompute_kernel_times()
        #: set by the first forward of a layer 0 with frozen input features;
        #: every later pass replays it (see the module docstring)
        self._frozen: _FrozenAggregation | None = None
        #: whether a later layer multiplies with this layer's forward SpMM
        #: plans (its shard-cache entry; set by the model) — if not, a frozen
        #: layer 0 releases them after its first forward
        self.plans_shared = False

    @property
    def a_shards(self) -> list[sp.csr_matrix]:
        """Each rank's adjacency shard, cut from the forward plan on demand
        (read-only; replica ranks share one object) — the layer stores none."""
        per_block = [plan.shards for plan in self._bd_blocks]
        if len(per_block) == 1:
            return per_block[0]
        whole: dict[int, sp.csr_matrix] = {}
        for r, first in enumerate(per_block[0]):
            if id(first) not in whole:
                whole[id(first)] = sp.vstack([blocks[r] for blocks in per_block], format="csr")
        return [whole[id(first)] for first in per_block[0]]

    # -- kernel-time precomputation --------------------------------------------
    def _precompute_kernel_times(self) -> None:
        """Per-rank kernel-time vectors for every modeled product.

        Shard shapes are fixed for the life of the layer, so the modeled
        SpMM/GEMM durations are too; the hot loop then advances all clocks
        per step with one vectorized `advance_all` instead of ``world``
        scalar calls.  (The stochastic noise multiplier, when enabled,
        rescales the forward-SpMM vector per epoch.)
        """
        extents = self.sharding.extent_table(self.grid)
        nnz = self._nnz_a = sum(plan.rank_nnz for plan in self._bd_blocks).astype(np.float64)
        block_nnz = [plan.rank_nnz.astype(np.float64) for plan in self._bd_blocks]
        t = kernel_times(
            extents, nnz, [(plan.out_rows.astype(np.float64), b) for plan, b in zip(self._bd_blocks, block_nnz)],
            self.cluster.machine.device, self.tune_dw_gemm,
        )
        self._t_spmm_blocks, self._t_spmm_bwd = t["spmm_fwd"], t["spmm_bwd"]
        self._t_gemm_fwd, self._t_gemm_dw, self._t_gemm_dh = t["gemm_fwd"], t["gemm_dw"], t["gemm_dh"]
        #: whether backward runs its dW and dH GEMMs side by side: each
        #: multiplies one ``rows x f_cols x w_cols`` product per held rank
        self._lanes = side_by_side(int(np.sum(extents["a_rows"] * extents["f_cols"] * extents["w_cols"])))
        #: the forward aggregation as (SpMM time vector, nnz, stacked plan)
        #: steps, one per row block (Sec. 5.2)
        self._agg_steps = list(zip(self._t_spmm_blocks, block_nnz, self._bd_blocks))

    def _advance_spmm(self, times, nnz, step: int, bwd: bool, block: int = 0) -> None:
        """Charge one SpMM (forward aggregation ``block``, or the backward
        product) of Adam step ``step`` on every held rank, applying the noise
        model per rank: the draws of charge (step, layer, pass, block)."""
        if self.noise is not None:
            charge = (step, self.layer_idx, int(bwd), block)
            times = times * self.noise.multipliers(
                nnz, charge, self.grid.config.total, self.cluster.lo
            )
        self.cluster.advance_all(times, "comp:spmm_bwd" if bwd else "comp:spmm_fwd")

    # -- W all-gather (issued here, waited where the GEMM consumes it) -----------
    def issue_w_gather(self, held: LayerCache | None = None) -> PendingCollective:
        """Issue the Z-axis all-gather of this layer's weight shards.

        With ``overlap=True`` the model driver calls this at the end of the
        *previous* layer (forward) / the previous backward step, so the
        gather rides behind that layer's remaining compute; eager mode
        issues and waits at the point of use.  Backward passes its forward's
        cache as ``held``: the W it gathered is still the layer's W, so the
        collective is re-issued with that result and its recorded duration —
        the timeline is the gather's, only the copy goes.
        """
        comm_z = self.grid.comm(self.roles.z)
        if held is not None:
            return comm_z.issue(held.w_duration, phase="all_gather_w", result=held.w)
        return comm_z.all_gather(self.w_stack, phase="all_gather_w", pad=self._w_gather_pad)

    def issue_f_gather(self, f_in) -> PendingCollective:
        """Issue the layer-0 Z-axis all-gather of the input-feature shards.

        The forward pass issues and waits it in place by default; with
        ``overlap=True`` the model driver calls this at the end of the
        previous epoch's backward pass (cross-epoch prefetch), so the
        gather rides behind the backward tail and the epoch barrier.  Once
        a frozen layer holds its first forward's gathered F0, the
        collective is re-issued without the operand and hands that back.
        """
        comm_z = self.grid.comm(self.roles.z)
        frozen = self._frozen
        if frozen is not None:
            return comm_z.issue(frozen.f_duration, phase="all_gather_f", result=frozen.f)
        return comm_z.all_gather(f_in, phase="all_gather_f", pad=self._f_gather_pad)

    # -- forward (Algorithm 1) ---------------------------------------------------
    def forward(self, f_in, w_pending=None, f_pending=None, step: int = 0) -> tuple[Any, LayerCache]:
        """Aggregation, combination, activation for every rank.

        ``f_in`` per rank: the z-sub-shard for the first layer (line 3
        all-gathers it), or the full local F block for later layers.
        ``w_pending`` is an optional in-flight W all-gather handle (the
        overlap schedule's prefetch); ``f_pending`` an optional in-flight
        layer-0 F all-gather (the cross-epoch prefetch); when absent the
        layer issues its own.  ``step`` is the Adam step the pass belongs to
        (the SpMM noise model's clock).
        """
        with _trace.span(f"layer{self.layer_idx}.forward"):
            comm_y = self.grid.comm(self.roles.y)
            frozen = self._frozen
            # Step 1 (line 3): all-gather F across the Z-parallel group (layer 0 only)
            f = f_in
            if self.is_first:
                if f_pending is None:
                    f_pending = self.issue_f_gather(f_in)
                f = f_pending.wait()
            # overlap: issue this layer's W gather before the aggregation phase
            # (after the F gather — both ride the Z links) so it hides behind it
            if self.overlap and w_pending is None:
                w_pending = self.issue_w_gather()
            # Step 2 (lines 4-5): H = SpMM(A, F); all-reduce across X-parallel group
            if frozen is not None:
                self._aggregation_steps(None, step, replay=frozen.h_durations)
                h = frozen.h
                if _trace.enabled:
                    _metrics.count("frozen_agg_replays")
            else:
                parts, handles = self._aggregation_steps(f, step)
                h = parts[0] if len(parts) == 1 else concat_stack_rows(parts)
                if self.is_first and not self.trainable_features:
                    h.cube.setflags(write=False)  # held across epochs from here on
                    self._frozen = _FrozenAggregation(
                        f, h, f_pending.duration, [handle.duration for handle in handles]
                    )
                    # the forward plans are never read again
                    if not self.plans_shared:
                        for _, _, plan in self._agg_steps:
                            plan.release()
            # Step 3 (lines 7-9): Q = SGEMM(H, W); all-reduce across Y-parallel group
            if w_pending is None:
                w_pending = self.issue_w_gather()
            w_local = w_pending.wait()
            self.cluster.advance_all(self._t_gemm_fwd, "comp:gemm_fwd")
            q = comm_y.all_reduce(stack_matmul(h, w_local), phase="all_reduce_q").wait()
            # Step 4 (line 11): non-linear activation (identity on the last layer,
            # whose logits feed the softmax cross-entropy); Q dies here
            f_out = q if self.is_last else stack_map(relu, q)
            f_out.cube.setflags(write=False)  # cached: read-only like H
            return f_out, LayerCache(f=f, h=h, q=f_out, w=w_local, w_duration=w_pending.duration)

    def _aggregation_steps(self, f, step: int, replay: list | None = None) -> tuple[list, list]:
        """Lines 4-5: one stacked block-diagonal SpMM and one X-all-reduce
        per aggregation step (Sec. 5.2: per row block, concatenated by the
        caller).  Eager mode waits each block's all-reduce before the next
        block's SpMM.  Overlap mode issues the all-reduce and immediately
        starts the next block's SpMM — the in-flight reduces serialize on
        the X links while compute proceeds, and all handles join in issue
        order after the last block, so only the uncovered tail of each
        reduce is charged as comm.  Returns the reduced row blocks of H and
        their waited handles.

        With ``replay`` (the handles' durations, recorded by an earlier
        call) the same charges and collectives are issued without computing
        anything: the blocks come back ``None``, the caller holds H."""
        comm_x = self.grid.comm(self.roles.x)
        handles: list[PendingCollective] = []
        parts = []
        for b, (times, nnz, plan) in enumerate(self._agg_steps):
            self._advance_spmm(times, nnz, step, False, b)
            if replay is None:
                handle = comm_x.all_reduce(plan.apply_batched(f), phase="all_reduce_h")
            else:
                handle = comm_x.issue(replay[b], phase="all_reduce_h")
            handles.append(handle)
            if not self.overlap:
                parts.append(handle.wait())
        if self.overlap:
            parts = [handle.wait() for handle in handles]
        return parts, handles

    # -- backward (Algorithm 2) --------------------------------------------------
    def backward(self, dq, cache: LayerCache, w_pending=None, post_w_hook=None, step: int = 0):
        """Returns ``(dF per rank or None, dW shard gradients per rank)``.

        For the first layer ``dF`` is the z-sub-sharded input-feature
        gradient (line 8's reduce-scatter) or ``None`` when features are
        frozen; for other layers it is the full local block, all-reduced
        across the Z-parallel group (the Sec. 3.2 modification).
        ``w_pending`` is an optional prefetched W all-gather handle.
        ``post_w_hook``, when given, runs right after the W gather's wait —
        i.e. after this layer's last Z-link operation — which is where the
        model issues the cross-epoch F prefetch on layer 0 so the gather
        hides behind the remaining dH GEMM, all-reduce and epoch barrier.
        """
        with _trace.span(f"layer{self.layer_idx}.backward"):
            grid, roles = self.grid, self.roles
            comm_x, comm_z = grid.comm(roles.x), grid.comm(roles.z)
            h, cache.h = cache.h, None
            w_local, frozen = cache.w, self._frozen
            # nobody reads a frozen layer 0's dH once its all-reduce is timed
            replay_dh = frozen is not None and frozen.dh_duration is not _UNRECORDED
            dh_partial = None
            # overlap: re-gather W behind the grad-W GEMM and dW reduce-scatter
            if self.overlap and w_pending is None:
                w_pending = self.issue_w_gather(cache)
            # Line 2: dW = SGEMM(H^T, dQ) — TN mode, or the Sec. 5.3 tuned NT
            # form (dQ^T H)^T.  dH's operands (line 5) are already here — the
            # W forward gathered — so past break-even the two GEMMs run side
            # by side, dW on a pool lane; the clocks charge each where the
            # algorithm puts it
            dw_operands = (dq, h) if self.tune_dw_gemm else (h, dq)
            if self._lanes and not replay_dh:
                dh_partial, dw_partial = run_parts((
                    partial(stack_matmul, dq, w_local, tb=True),
                    partial(stack_matmul, *dw_operands, ta=True),
                ), "gemm")
            else:
                dw_partial = stack_matmul(*dw_operands, ta=True)
            if self.tune_dw_gemm:
                dw_partial = stack_transpose(dw_partial)
            del h, dw_operands  # H's last readers
            self.cluster.advance_all(self._t_gemm_dw, "comp:gemm_dw")
            # Line 3: reduce-scatter dW across Z-parallel group (W is z-sub-sharded)
            dw = comm_z.reduce_scatter(dw_partial, phase="reduce_scatter_dw").wait()
            # Line 4: all-gather W across the Z-parallel group — re-issued
            # with the W this pass's forward gathered
            if w_pending is None:
                w_pending = self.issue_w_gather(cache)
            w_pending.wait()
            if post_w_hook is not None:
                post_w_hook()
            # Lines 5-6: dH = SGEMM(dQ, W^T); all-reduce across X-parallel group
            self.cluster.advance_all(self._t_gemm_dh, "comp:gemm_dh")
            if replay_dh:
                # charged above, reduced on the timeline, never multiplied
                dh_pending = comm_x.issue(frozen.dh_duration, phase="all_reduce_dh")
            else:
                # the partial product dies at its reduction, before A^T's
                # product of the same size is allocated
                if dh_partial is None:
                    dh_partial = stack_matmul(dq, w_local, tb=True)
                dh_pending = comm_x.all_reduce(dh_partial, phase="all_reduce_dh")
                dh_partial = None
                if frozen is not None:
                    frozen.dh_duration = dh_pending.duration
            if self.is_first and not self.trainable_features:
                dh_pending.wait()
                return None, dw
            # Lines 7-8: dF = SpMM(A^T, dH); reduce-scatter (layer 0) or
            # all-reduce (later layers) across the Z-parallel group.  With
            # ``overlap=True`` the backward SpMM's compute is charged while the
            # dH all-reduce is still in flight — the Sec. 5.2-style pipeline
            # where A^T's column blocks multiply each dH row block as its ring
            # step completes — and the handle is waited where dF consumes it.
            if self.overlap:
                self._advance_spmm(self._t_spmm_bwd, self._nnz_a, step, True)
                dh = dh_pending.wait()
            else:
                dh = dh_pending.wait()
                self._advance_spmm(self._t_spmm_bwd, self._nnz_a, step, True)
            df_partial = self._bd_at.apply_batched(dh)
            del dh  # before the Z reduction allocates dF
            if self.is_first:
                df = comm_z.reduce_scatter(df_partial, phase="reduce_scatter_df").wait()
            else:
                df = comm_z.all_reduce(df_partial, phase="all_reduce_df").wait()
            return df, dw


def kernel_times(extents: dict, nnz, blocks: list, device, tune_dw_gemm: bool) -> dict:
    """One layer's modeled kernel seconds, keyed by their ``comp:`` phase:
    per-rank vectors from :meth:`~repro.core.sharding.LayerSharding.extent_table`'s
    ``extents``, the shard's ``nnz`` and the forward aggregation's ``(rows,
    nnz)`` per row block (``spmm_fwd``: one vector per block) — or, in
    ``repro.perf.analytic``, per-configuration vectors of a sweep.  grad-W
    is the Sec. 5.3 NT form ((dQ^T @ H)^T: identical numbers) under
    ``tune_dw_gemm``, else TN."""
    ar, ac, fc, wc = (extents[k] for k in ("a_rows", "a_cols", "f_cols", "w_cols"))
    cols = np.maximum(fc, 1.0)
    if tune_dw_gemm:
        gemm_dw = gemm_time_batch(wc, fc, ar, device, GemmMode.NT)
    else:
        gemm_dw = gemm_time_batch(fc, wc, ar, device, GemmMode.TN)
    return {
        "spmm_fwd": [spmm_time_batch(rows, ac, cols, bnnz, device) for rows, bnnz in blocks],
        "spmm_bwd": spmm_time_batch(ac, ar, cols, nnz, device),
        "gemm_fwd": gemm_time_batch(ar, wc, fc, device, GemmMode.NN),
        "gemm_dw": gemm_dw,
        "gemm_dh": gemm_time_batch(ar, fc, wc, device, GemmMode.NT),
    }
