"""Training loop, distributed loss, and epoch-time accounting.

The loss is a masked softmax cross-entropy computed *distributed*: the final
logits are sharded over rows (graph nodes, z-role axis) and columns (classes,
x-role axis), so the log-softmax reductions run as small collectives along
the class axis and the masked mean along the row axis.  Gradients then enter
Algorithm 2 already sharded correctly — no rank ever materializes the full
logits matrix.  The body works on the replica-free rank cube, and every
reduction along a padded axis runs once per box of ranks sharing that valid
extent (one box when nothing is padded), so pads never reach a sum.

Timing follows the paper's protocol (Sec. 6.2): per epoch we record the
simulated wall-clock delta of the slowest rank and the average comm/comp
split across ranks (straggler wait inside collectives counts as
communication, which is how load imbalance "ripples" into comm time).
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.core.batch import CubeStack, cube_boxes, stack_shards
from repro.core.grid import PlexusGrid
from repro.core.model import PlexusGCN
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics

__all__ = ["EpochStats", "TrainResult", "distributed_masked_ce", "distributed_accuracy", "PlexusTrainer"]

#: glibc malloc for a training process — ``(environment variable, mallopt
#: parameter, bytes)``: temporaries up to 32 MiB (glibc's maximum) stay on the
#: heap, which keeps 256 MiB of slack.  Never the trim threshold alone: that
#: freezes the mmap threshold at its 128 KiB default
ALLOC_PINS = (("MALLOC_MMAP_THRESHOLD_", -3, 32 << 20), ("MALLOC_TRIM_THRESHOLD_", -1, 256 << 20))


@cache
def pin_allocator() -> None:
    """Pin glibc's mmap / trim thresholds for this process (once; a no-op off
    glibc).  Unpinned they follow the largest block freed so far, so whether
    the heap top is trimmed and the epoch's temporaries re-faulted — thousands
    of minor faults, 10-40 % of an epoch — depends on what set-up happened to
    free.  A variable set in the environment (the user's, or the launcher's
    for its workers) wins."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    for var, param, value in ALLOC_PINS:
        if var not in os.environ:
            mallopt(param, value)


def _class_max(cube: np.ndarray, col_boxes: tuple) -> np.ndarray:
    """Each row's maximum over its rank's valid class columns (``-inf`` where
    a rank holds none), folded over whole column vectors: exact in any order."""
    out = np.empty(cube.shape[:4], dtype=cube.dtype)
    out.fill(-np.inf)
    for box, (c,) in col_boxes:
        part = out[box]
        for j in range(c):
            np.maximum(part, cube[box][..., j], out=part)
    return out


def _fold_sum(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = v.sum(axis=-1)`` bit for bit, adding whole column vectors
    in numpy's pairwise order: sequential below 8 columns, else 8
    accumulators over blocks of 8 combined as ``((0+1)+(2+3))+((4+5)+(6+7))``
    plus the leftover columns in order, and halves split at a multiple of 8
    beyond 128 columns (a ``-0.0`` sum reads ``+0.0`` in numpy)."""
    c = v.shape[-1]
    if c > 128:
        half = c // 2 - c // 2 % 8
        left = _fold_sum(v[..., :half], np.empty(out.shape, out.dtype))
        return np.add(left, _fold_sum(v[..., half:], np.empty(out.shape, out.dtype)), out=out)
    first = 1 if c < 8 else c - c % 8
    if c < 8:
        out[...] = v[..., 0]
    else:
        acc = v[..., :8]
        for i in range(8, first, 8):
            acc = acc + v[..., i : i + 8]
        acc = acc[..., 0::2] + acc[..., 1::2]
        acc = acc[..., 0::2] + acc[..., 1::2]
        np.add(acc[..., 0], acc[..., 1], out=out)
    for j in range(first, c):
        np.add(out, v[..., j], out=out)
    return out


def _label_plan(model: PlexusGCN, stack: CubeStack, comm_x) -> tuple:
    """The loss's and the accuracy's cut of the model's static state for the
    logits geometry of ``stack``, built once (``model.label_plans``):
    ``(class-column boxes, row boxes, unmasked, mask_x, labels_x, owned_rows,
    owned_pos, neg_start)``.  ``_x`` and the row boxes fit a class-reduced
    statistic; ``unmasked`` / ``owned_rows`` flat-index its rows off the mask /
    masked with their label column on the rank, ``owned_pos`` those columns
    in the cube; ``neg_start`` is minus each rank's first class (float64)."""
    cube, rows, cols = stack.cube, stack.rows, stack.cols
    key = (cube.shape, rows if rows is None else rows.tobytes(), cols if cols is None else cols.tobytes())
    plan = model.label_plans.get(key)
    if plan is None:
        lead, (n, c_pad) = cube.shape[:3], cube.shape[3:]
        d = comm_x.descriptor  # the class-axis reduction leaves extent 1 along d.axis
        cut_x = tuple(slice(1 if a == d.axis and d.size > 1 else e) for a, e in enumerate(lead))
        width = c_pad if cols is None else stack.like(cols)[..., None]
        mask, start = stack.like(model.mask_stack), stack.like(model.class_start)[..., None]
        local = stack.like(model.label_stack) - start
        owned_rows = np.flatnonzero(mask & (local >= 0) & (local < width))
        plan = model.label_plans[key] = (
            cube_boxes(stack.grid, lead, c_pad if cols is None else cols.tobytes()),
            cube_boxes(stack.grid, tuple(s.stop for s in cut_x), n if rows is None else rows.tobytes()),
            np.flatnonzero(~mask),
            model.mask_stack.cube[cut_x], model.label_stack.cube[cut_x], owned_rows,
            owned_rows * c_pad + local.reshape(-1)[owned_rows], -start.astype(np.float64),
        )
    return plan


def distributed_masked_ce(model: PlexusGCN, logits) -> tuple[float, CubeStack]:
    """Masked cross-entropy + gradient over sharded logits.

    Returns the global scalar loss (identical on every rank) and the stacked
    ``d loss / d logits`` shards that seed Algorithm 2.

    Every per-rank step is one operation over the rank cube, and the
    class-axis and row-axis collectives run as single keepdims reductions
    covering all groups at once.  The whole pipeline works in cube layout on
    what the logits hold: the last layer's Y-all-reduce leaves them
    replicated along its y-role, the class-axis reductions then along the
    x-role too, so the softmax statistics, the masked sums and the gradient
    are computed once per group of identical ranks (labels, masks and class
    offsets are constant along those axes and are cut to match, once per
    geometry: :func:`_label_plan`).  Raw ``(world, rows, classes)`` logits
    are viewed into the cube and take the same path.  Nothing runs along
    the narrow class axis itself: the row maximum and the exp-sum fold whole
    column vectors (:func:`_class_max`, :func:`_fold_sum`), the label logit
    is one flat ``take``, the off-mask rows and the one-hot are flat in-place
    updates of the gradient.

    A reduction along a padded axis — class columns, node rows — runs once
    per *box* of ranks sharing that valid extent, on the exact-extent view
    (one box when nothing is padded), so a pad entry never enters a
    floating-point sum or a maximum.  Ranks owning zero class columns (more
    X-shards than classes) contribute neutral values (``-inf`` maxima, zero
    sums).  The result is bitwise what a per-rank loop over one process
    group at a time computes in float64 (``tests/oracle.py``): masked rows
    selected, never multiplied, the same exp/log pipeline, the same
    association order in every sum.
    """
    grid: PlexusGrid = model.grid
    roles = model.shardings[-1].roles
    comm_x = grid.comm(roles.x)
    stack = CubeStack.of(logits, grid.cube)
    cube = stack.cube  # (z, x, y, rows, classes), extent 1 where replicated
    if cube.shape[-1] == 0:
        raise ValueError("batched loss requires at least one class column per rank")
    rows = stack.rows
    col_boxes, row_boxes, unmasked, mask_x, _, owned_rows, owned_pos, _ = _label_plan(model, stack, comm_x)

    def reduce(values, **kw) -> CubeStack:  # a per-row statistic, along the class axis
        return comm_x.all_reduce(CubeStack(values, stack.grid, rows), **kw).wait()

    # 1) log-softmax statistics along the class (x-role) axis
    row_max = reduce(_class_max(cube, col_boxes), op="max", phase="loss_max").cube
    shifted = cube - row_max[..., None]  # whole cube: pads are shifted, never exponentiated
    local = np.zeros(cube.shape[:4], dtype=cube.dtype)
    for box, (c,) in col_boxes:
        if c:
            _fold_sum(np.exp(shifted[box][..., :c]), local[box])
    sum_exp = reduce(local, phase="loss_sumexp").cube

    # 2) each masked node's own-label logit, from the owning class shard
    z_local = np.zeros(cube.shape[:4], dtype=cube.dtype)
    z_local.reshape(-1)[owned_rows] = cube.take(owned_pos)
    z_label = reduce(z_local, phase="loss_zlabel")

    # 3) masked sum + count along the row (z-role) axis
    log_s = np.log(sum_exp)
    masked_nll = np.where(mask_x, row_max + log_s - z_label.cube, 0.0)
    packed = np.empty(masked_nll.shape[:3] + (2,), dtype=np.float64)
    for box, (v,) in row_boxes:
        packed[box][..., 0] = np.add.reduce(masked_nll[box][..., :v], axis=-1)
        packed[box][..., 1] = np.add.reduce(mask_x[box][..., :v], axis=-1)
    totals = grid.comm(roles.z).all_reduce(CubeStack(packed, stack.grid), phase="loss_total").wait()
    total_nll, total_cnt = totals[0]
    if total_cnt == 0:
        raise ValueError("empty train mask")
    loss = float(total_nll / total_cnt)

    # 4) gradient shards: (softmax - onehot)/count on masked rows
    g = np.zeros(cube.shape, dtype=cube.dtype)
    shifted -= log_s[..., None]
    for box, (c,) in col_boxes:
        if c:
            g[box][..., :c] = np.exp(shifted[box][..., :c])
    g.reshape(-1, g.shape[-1])[unmasked] = 0.0
    g.reshape(-1)[owned_pos] -= 1.0
    g /= total_cnt
    return loss, CubeStack(g, stack.grid, rows, stack.cols)


def distributed_accuracy(model: PlexusGCN, logits, mask_shards) -> float:
    """Fraction of masked nodes (``mask_shards``: each rank's rows of the
    node mask) predicted correctly, computed distributed on the cube with the
    loss's label plan.

    The prediction is the argmax over the class-sharded row: the row
    maximum is max-reduced along the class (x-role) axis, then every rank
    offers ``-(global class index)`` of its lowest column attaining it
    (``-inf`` when none does) and a second max-reduce picks the lowest such
    index — ties resolve like ``argmax`` over the gathered row.  Hit and
    mask counts are summed along the row (z-role) axis.
    """
    grid: PlexusGrid = model.grid
    roles = model.shardings[-1].roles
    comm_x = grid.comm(roles.x)
    stack = CubeStack.of(logits, grid.cube)
    cube = stack.cube
    col_boxes, _, _, _, labels_x, _, _, neg_start = _label_plan(model, stack, comm_x)

    def class_max(values, phase: str) -> np.ndarray:
        return comm_x.all_reduce(CubeStack(values, stack.grid, stack.rows), op="max", phase=phase).wait().cube

    attained = cube == class_max(_class_max(cube, col_boxes), "acc_max")[..., None]
    offered = np.full(cube.shape[:4], -np.inf)
    for box, (c,) in col_boxes:
        for j in range(c - 1, -1, -1):  # the lowest attaining column writes last
            offered[box] = np.where(attained[box][..., j], neg_start[box] - j, offered[box])
    winner = class_max(offered, "acc_argmax")
    masks = stack_shards(mask_shards, grid.cube, model.mask_stack.cube.shape[3:]).cube
    masks = masks[tuple(map(slice, winner.shape[:3]))]
    packed = np.empty(winner.shape[:3] + (2,), dtype=np.float64)
    packed[..., 0] = np.add.reduce((-winner == labels_x) & masks, axis=-1)
    packed[..., 1] = np.add.reduce(masks, axis=-1)
    correct, count = grid.comm(roles.z).all_reduce(CubeStack(packed, stack.grid), phase="acc_total").wait()[0]
    if count == 0:
        raise ValueError("empty mask")
    return float(correct / count)


@dataclass(frozen=True)
class EpochStats:
    """One epoch's record (one point of the scaling curves)."""

    loss: float
    #: simulated epoch time = slowest rank's clock advance, seconds
    epoch_time: float
    #: mean across ranks of time in comm phases (incl. straggler wait)
    comm_time: float
    #: mean across ranks of time in modeled kernels
    comp_time: float

    @classmethod
    def from_raw(cls, loss, t0, t1, comm, comp) -> "EpochStats":
        """From the pieces of :meth:`PlexusTrainer.train_epoch_raw`, the
        comm/comp vectors covering the whole cube."""
        return cls(loss, t1 - t0, float(comm.mean()), float(comp.mean()))


@dataclass
class TrainResult:
    """Full training record (Fig. 7 curves / Figs. 8-10 timing protocol)."""

    epochs: list[EpochStats] = field(default_factory=list)

    @property
    def losses(self) -> list[float]:
        return [e.loss for e in self.epochs]

    def mean_epoch_time(self, skip: int = 2) -> float:
        """The paper's metric: average epoch time skipping the first
        ``skip`` warm-up epochs (Sec. 6.2 skips 2 of 10)."""
        usable = self.epochs[skip:] if len(self.epochs) > skip else self.epochs
        return float(np.mean([e.epoch_time for e in usable]))

    def mean_breakdown(self, skip: int = 2) -> tuple[float, float]:
        usable = self.epochs[skip:] if len(self.epochs) > skip else self.epochs
        return (
            float(np.mean([e.comm_time for e in usable])),
            float(np.mean([e.comp_time for e in usable])),
        )


class PlexusTrainer:
    """Drives epochs over a :class:`PlexusGCN` and records stats.

    This is the ``"inproc"`` backend: one process owns every rank of the
    simulation.  The multi-process backend
    (:class:`repro.runtime.launch.MultiprocTrainer`) exposes the same
    ``train``/``TrainResult`` surface but shards the rank cube across
    worker processes, with this class kept as its bitwise parity oracle.
    """

    #: backend discriminator (the multiproc trainer reports "multiproc")
    backend = "inproc"

    def __init__(self, model: PlexusGCN) -> None:
        self.model = model
        pin_allocator()

    def train_epoch_raw(self) -> tuple[float, float, float, np.ndarray, np.ndarray]:
        """One epoch; returns the raw accounting pieces.

        ``(loss, t0, t1, comm_delta, comp_delta)`` where the deltas are the
        per-rank ``(world,)`` comm/comp second vectors of this epoch.  The
        multi-process workers ship these to the launcher, which assembles
        the full-cube vectors before averaging — so both backends reduce
        the *same* (world,)-shaped arrays and stay bitwise identical.
        """
        model = self.model
        cluster = model.cluster
        t0 = cluster.max_clock()
        # category prefixes hit the timeline's pre-bucketed aggregates: one
        # O(1) lookup per rank, not a scan over the epoch's events
        comm0 = cluster.category_totals("comm:")
        comp0 = cluster.category_totals("comp:")
        with _trace.span("forward"):
            logits, caches = model.forward()
        with _trace.span("loss"):
            loss, d_logits = distributed_masked_ce(model, logits)
        if _trace.enabled:  # how much of the RSS is activations, at their most
            _metrics.gauge("activation_bytes", model.activation_bytes(caches))
        del logits  # and caches[-1].q: the loss was their one reader
        caches[-1].q = None
        with _trace.span("backward"):
            grads = model.backward(d_logits, caches)
        with _trace.span("apply_gradients"):
            model.apply_gradients(grads)
        # a dropped (never-waited) collective handle means comm cost is
        # missing from the books — fail loudly before closing the epoch
        # (the cross-epoch F prefetch is intentionally in flight: exempt)
        cluster.check_outstanding(allowed=model.prefetched_handles())
        cluster.barrier(phase="comm:epoch_sync")
        t1 = cluster.max_clock()
        if _trace.enabled:  # exported beside the rusage gauges: how much of the RSS is graph
            _metrics.gauge("adjacency_bytes", model.adjacency_bytes())
        comm = cluster.category_totals("comm:") - comm0
        comp = cluster.category_totals("comp:") - comp0
        return loss, t0, t1, comm, comp

    def train_epoch(self) -> EpochStats:
        return EpochStats.from_raw(*self.train_epoch_raw())

    def train(self, epochs: int) -> TrainResult:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        result = TrainResult()
        for e in range(epochs):
            with _trace.span("epoch", epoch=e):
                result.epochs.append(self.train_epoch())
        return result

    def save_checkpoint(self, root, epoch: int, history: list[EpochStats] = ()):
        """Write the epoch-``epoch`` checkpoint under ``root``.

        Produces the same on-disk layout the multiproc launcher writes —
        ``<root>/ckpt-<NNNNNN>/`` with one ``[0, world)`` slice file and a
        sealing manifest — so either backend, on any worker layout, can
        resume from it.  The directory is staged and renamed into place, and
        all but the two newest checkpoints are pruned.  Returns the
        checkpoint path.
        """
        from repro.runtime import checkpoint as ckpt

        def write_slice(tmp) -> list:
            state = ckpt.model_state(self.model)
            ckpt.write_worker_state(tmp, state)
            return [[state["lo"], state["hi"]]]

        return ckpt.seal_checkpoint(
            root,
            epoch,
            write_slice,
            backend=self.backend,
            world=self.model.config.total,
            layer_dims=self.model.layer_dims,
            history=history,
        )

    def load_checkpoint(self, path) -> dict:
        """Restore this trainer's model from a checkpoint directory — one
        ``ckpt-<NNNNNN>`` directory, written by either backend on any worker
        layout, for this world and these layer dims (else
        :class:`~repro.errors.CheckpointError`).  Returns the checkpoint's
        manifest."""
        from repro.runtime import checkpoint as ckpt

        model = self.model
        manifest = ckpt.read_manifest(path, model.config.total, model.layer_dims)
        ckpt.restore_model(model, ckpt.load_slice(path, model.cluster.lo, model.cluster.hi))
        return manifest

    def evaluate(self, mask_global: np.ndarray) -> float:
        """Distributed accuracy on an arbitrary global node mask.

        Evaluation drives a full forward and the accuracy collectives but
        must not perturb the experiment's timing record, so it runs
        under :meth:`VirtualCluster.no_charge`: rank clocks and comm/comp
        phase totals are identical before and after the call.
        """
        model = self.model
        out_perm = model.scheme.output_perm(model.n_layers)
        mask_out = mask_global[out_perm]
        final = model.shardings[-1]
        shards = [
            mask_out[final.out_row_slice(model.grid, r)]
            for r in range(model.grid.world_size)
        ]
        # A cross-epoch F prefetch is stashed: consuming it here would
        # leave the next real epoch without its in-flight gather.
        f0_pending, model._f0_pending = model._f0_pending, None
        try:
            with model.cluster.no_charge():
                logits, _ = model.forward()
                return distributed_accuracy(model, logits, shards)
        finally:
            model._f0_pending = f0_pending
