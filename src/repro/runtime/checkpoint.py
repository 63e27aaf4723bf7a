"""Epoch-boundary checkpoint/restore for both training backends.

A checkpoint is a directory ``<root>/ckpt-<NNNNNN>/`` holding one pickle
per worker slice (``worker-<lo>-<hi>.pkl``) plus a ``MANIFEST.json``
written *last* — a checkpoint without a manifest is torn and ignored.
Both backends produce and consume the same files: the multiproc launcher
has each worker write its own slice (parallel I/O), the inproc trainer
writes one ``[0, world)`` file.

What a slice file captures — everything the bitwise-replay guarantee
needs:

* **weights** — the stacked ``(local_world, rows, cols)`` parameter arrays;
* **Adam moments** — step counter ``t`` plus the first/second-moment
  stacks (restored with ``np.copyto`` so the optimizer's parameter
  aliasing into the live weight stacks is preserved);
* **ClockStore snapshot** — clocks, per-phase and per-category totals
  and link busy-until state;
* **in-flight-handle inventory** — the cross-epoch F prefetch
  (:class:`~repro.dist.comm.PendingCollective`) when one is in flight at
  the boundary: its phase, schedule record, and gathered result.

Any layout restores any layout, eager or overlap.  Everything per rank is
an array with the ranks leading, so slices concatenate into the cube and
the cube cuts by rank range.  The link books are keyed by the links'
identity (:func:`~repro.dist.comm.link_key`, the same in every process), so
the slices' books unite — the worker-crossing Z links are replicated,
equal, in each — and a restore keeps the keys its grid holds.  The
prefetch's schedule record is that of the Z axis, identical in every slice.

Both trainers have the same checkpoint surface — ``save_checkpoint(root,
epoch, history=())`` and ``load_checkpoint(path)``, which refuses a
checkpoint of another world or layer dims (:func:`read_manifest`) — and
one loop drives it, :func:`train_to`: resume from the newest checkpoint,
train in stretches sealed by a checkpoint each, and, on a pool's
recoverable failure, restart the pool, reload and replay.  Because every
piece of state that feeds the simulation is restored, a resumed or
replayed run is bitwise identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.batch import CubeStack, stack_data
from repro.core.trainer import EpochStats, TrainResult
from repro.errors import (
    BarrierTimeout,
    CheckpointError,
    PayloadCorruption,
    RendezvousDesync,
    WorkerCrashed,
)
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.obs.metrics import registry as _metrics

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "checkpoint_name",
    "worker_file_name",
    "capture_books",
    "model_state",
    "restore_model",
    "write_worker_state",
    "load_slice",
    "load_cube_state",
    "assemble_slices",
    "seal_checkpoint",
    "write_manifest",
    "read_manifest",
    "manifest_history",
    "latest_checkpoint",
    "prune_checkpoints",
    "train_to",
]

logger = get_logger(__name__)

#: 2: link books keyed by ``comm.link_key`` (version-1 keys counted
#: communicators in construction order and would restore as dead links); an
#: older slice file's per-link in-flight queue book is ignored on restore
FORMAT_VERSION = 2
MANIFEST_NAME = "MANIFEST.json"
_CKPT_PREFIX = "ckpt-"

#: failures the replay policy treats as transient (a pool's; the in-process
#: trainer raises none of them)
_RECOVERABLE = (WorkerCrashed, BarrierTimeout, PayloadCorruption, RendezvousDesync)

#: first replay backoff, doubling per restart
_RESTART_BACKOFF_S = 0.25

#: Complete checkpoints a save leaves under its root (the newest ones).
_KEEP = 2


def checkpoint_name(epoch: int) -> str:
    return f"{_CKPT_PREFIX}{epoch:06d}"


def worker_file_name(lo: int, hi: int) -> str:
    return f"worker-{lo:05d}-{hi:05d}.pkl"


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def _capture_pending(handle) -> dict | None:
    """Serialize an in-flight cross-epoch prefetch handle, or None.

    The handle's schedule record (``("cube", shape, begin, end, duration)``)
    and its result array are plain picklable data; the store reference is
    re-attached at restore.
    """
    if handle is None:
        return None
    # flat on disk like all persisted state, whatever the in-memory layout (a
    # gathered F is held once per Z group): the ``(world, m, n)`` array plus
    # its valid extents (``None`` when nothing is padded)
    held = handle._result
    result = {"data": held.flat(), "rows": held.rows, "cols": held.cols}
    return {"phase": handle.phase, "record": handle._record, "result": result}


def capture_books(model) -> dict:
    """The slice bounds, the clock books and copies of the weights of one
    model slice: the part of a slice state a worker's state report also
    carries (``repro.runtime.worker``)."""
    cluster = model.cluster
    books = cluster.store.snapshot()
    # in-flight handles are not book entries: the one that may cross an
    # epoch boundary is captured as ``pending_f0``
    del books["outstanding"]
    weights = {
        f"W{i}": stack_data(layer.w_stack).copy()
        for i, layer in enumerate(model.layers)
    }
    if model.options.trainable_features:
        weights["F0"] = stack_data(model.f0_stack).copy()
    return {"lo": cluster.lo, "hi": cluster.hi, **books, "weights": weights}


def model_state(model) -> dict:
    """Everything one model slice needs for bitwise restore (see module doc)."""
    opt = model.optimizer
    return {
        "format": FORMAT_VERSION,
        **capture_books(model),
        "adam": {
            "t": opt.t,
            "m": {k: v.copy() for k, v in opt.m.items()},
            "v": {k: v.copy() for k, v in opt.v.items()},
        },
        "pending_f0": _capture_pending(model._f0_pending),
    }


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------


def _rebuild_pending(captured: dict, model):
    """The in-flight layer-0 F gather.  Its result is flat on disk; cut it
    back to one copy per Z group — the form the collective returned and the
    one a frozen layer 0 then keeps for the model's life — and charge its
    record on the cube this model holds."""
    from repro.dist.comm import PendingCollective

    saved = captured["result"]
    grid = model.grid.cube
    axis = model.grid.comm(model.layers[0].roles.z).descriptor.axis
    cube = CubeStack.of(saved["data"], grid).cube.take([0], axis=axis)
    result = CubeStack(cube, grid, saved["rows"], saved["cols"]).read_only()
    record = captured["record"]
    if record is not None:  # (None: the no-cost handle of a size-1 Z axis)
        record = ("cube", grid, *record[2:])
    return PendingCollective(captured["phase"], result, model.cluster.store, record)


def restore_model(model, state: dict) -> None:
    """Load the slice state of this model's ranks (:func:`load_slice`, or
    another instance's :func:`model_state`) into a live model, in place."""
    cluster = model.cluster
    if (state["lo"], state["hi"]) != (cluster.lo, cluster.hi):
        raise CheckpointError(
            f"slice state covers ranks [{state['lo']}, {state['hi']}), model "
            f"covers [{cluster.lo}, {cluster.hi}) — assemble and re-slice via load_slice()"
        )
    expect = {f"W{i}" for i in range(len(model.layers))}
    if model.options.trainable_features:
        expect.add("F0")
    if set(state["weights"]) != expect:
        raise CheckpointError(
            f"checkpoint parameters {sorted(state['weights'])} do not match "
            f"the model's {sorted(expect)}"
        )

    # parameters + Adam moments: in-place copies preserve the optimizer's
    # aliasing of the live weight stacks
    opt = model.optimizer
    for i, layer in enumerate(model.layers):
        dst = stack_data(layer.w_stack)
        src = state["weights"][f"W{i}"]
        if dst.shape != src.shape or dst.dtype != src.dtype:
            raise CheckpointError(
                f"W{i}: checkpoint {src.shape}/{src.dtype} does not match "
                f"model {dst.shape}/{dst.dtype}"
            )
        np.copyto(dst, src, casting="no")
    if model.options.trainable_features:
        np.copyto(stack_data(model.f0_stack), state["weights"]["F0"], casting="no")
    opt.t = state["adam"]["t"]
    for k in opt.m:
        np.copyto(opt.m[k], state["adam"]["m"][k], casting="no")
        np.copyto(opt.v[k], state["adam"]["v"][k], casting="no")

    # clock/timeline state: of a re-sliced cube's link book, the entries of
    # the links this grid's collectives touch
    held = model.grid.link_keys()
    links = {k: v for k, v in state["links"].items() if k in held}
    cluster.store.restore({**state, "links": links})
    pending = state["pending_f0"]
    model._f0_pending = None if pending is None else _rebuild_pending(pending, model)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def write_worker_state(ckpt_dir: str | Path, state: dict) -> Path:
    path = Path(ckpt_dir) / worker_file_name(state["lo"], state["hi"])
    with open(path, "wb") as f:
        pickle.dump(state, f, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def _read_state(path: Path) -> dict:
    with open(path, "rb") as f:
        state = pickle.load(f)
    if state.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format {state.get('format')!r} != supported {FORMAT_VERSION}"
        )
    return state


def _concat(parts: list[dict]) -> dict:
    """Per-slice dicts of rank-leading arrays as one dict over all the ranks
    (an entry that is ``None`` — no valid extents — is ``None`` in every slice)."""
    return {
        k: v if v is None else np.concatenate([p[k] for p in parts], axis=0)
        for k, v in parts[0].items()
    }


def _cut(arrays: dict, lo: int, hi: int) -> dict:
    return {k: v if v is None else v[lo:hi] for k, v in arrays.items()}


def assemble_slices(states: list[dict]) -> dict:
    """The books and weights of slice states (sorted by ``lo``, tiling
    ``[0, world)``) as cube-wide arrays — what a checkpoint reassembles and
    what the launcher's ``state()`` reports.  A phase label a slice never
    charged reads zero there."""
    world = states[-1]["hi"]

    def buckets(key: str) -> dict:
        out = {}
        for label in sorted({k for s in states for k in s[key]}):
            vec = out[label] = np.zeros(world)
            for s in states:
                if label in s[key]:
                    vec[s["lo"] : s["hi"]] = s[key][label]
        return out

    return {
        "clocks": np.concatenate([s["clocks"] for s in states]),
        "by_phase": buckets("by_phase"),
        "by_category": buckets("by_category"),
        "weights": _concat([s["weights"] for s in states]),
    }


def load_cube_state(ckpt_dir: str | Path) -> dict:
    """Assemble every slice file of a checkpoint into one ``[0, world)``
    state."""
    ckpt_dir = Path(ckpt_dir)
    states = [_read_state(p) for p in sorted(ckpt_dir.glob("worker-*.pkl"))]
    if not states:
        raise CheckpointError(f"no worker slice files in {ckpt_dir}")
    states.sort(key=lambda s: s["lo"])
    cursor = 0
    for s in states:
        if s["lo"] != cursor:
            raise CheckpointError(
                f"checkpoint slices do not tile the cube: gap/overlap at "
                f"rank {cursor} (next slice starts at {s['lo']})"
            )
        cursor = s["hi"]
    t = states[0]["adam"]["t"]
    if any(s["adam"]["t"] != t for s in states):
        raise CheckpointError("checkpoint slices disagree on the Adam step counter")
    # one key space: a link two slices both hold is a replicated Z link
    links: dict = {}
    for s in states:
        links.update(s["links"])
    pending = states[0]["pending_f0"]
    if pending is not None:
        # phase and record agree across slices; the flat result is per rank
        pending = {**pending, "result": _concat([s["pending_f0"]["result"] for s in states])}
    return {
        "lo": 0,
        "hi": cursor,
        **assemble_slices(states),
        "links": links,
        "adam": {
            "t": t,
            "m": _concat([s["adam"]["m"] for s in states]),
            "v": _concat([s["adam"]["v"] for s in states]),
        },
        "pending_f0": pending,
    }


def load_slice(ckpt_dir: str | Path, lo: int, hi: int) -> dict:
    """The state for ranks ``[lo, hi)`` of a checkpoint: the slice file of
    exactly this layout when the checkpoint holds one, else cut out of the
    cube assembled from whatever layout was saved (views of it; the link
    books whole — :func:`restore_model` keeps the target's keys)."""
    ckpt_dir = Path(ckpt_dir)
    exact = ckpt_dir / worker_file_name(lo, hi)
    if exact.is_file():
        return _read_state(exact)
    cube = load_cube_state(ckpt_dir)
    if not (0 <= lo < hi <= cube["hi"]):
        raise CheckpointError(
            f"requested slice [{lo}, {hi}) outside checkpoint world "
            f"[0, {cube['hi']})"
        )
    pending = cube["pending_f0"]
    if pending is not None:
        pending = {**pending, "result": _cut(pending["result"], lo, hi)}
    return {
        **cube,
        "lo": lo,
        "hi": hi,
        "clocks": cube["clocks"][lo:hi],
        "by_phase": _cut(cube["by_phase"], lo, hi),
        "by_category": _cut(cube["by_category"], lo, hi),
        "weights": _cut(cube["weights"], lo, hi),
        "adam": {
            "t": cube["adam"]["t"],
            "m": _cut(cube["adam"]["m"], lo, hi),
            "v": _cut(cube["adam"]["v"], lo, hi),
        },
        "pending_f0": pending,
    }


# ---------------------------------------------------------------------------
# manifest + directory management
# ---------------------------------------------------------------------------


def write_manifest(ckpt_dir: str | Path, manifest: dict) -> Path:
    """Write the validity marker (atomically, and always last)."""
    path = Path(ckpt_dir) / MANIFEST_NAME
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return path


def seal_checkpoint(
    root: str | Path,
    epoch: int,
    write_slices,
    *,
    backend: str,
    world: int,
    layer_dims: list[int],
    history,
    tag: str = "",
) -> Path:
    """Write the epoch-``epoch`` checkpoint under ``root`` — what both
    backends do around their slice files.  A temp directory is staged
    (``tag`` keeps concurrent sessions apart), ``write_slices(tmp)`` fills it
    and returns the ``[lo, hi)`` layout it wrote, the manifest seals it, and
    it is renamed into place — so a torn checkpoint is never mistaken for a
    complete one — before all but the newest ``_KEEP`` are pruned.  Returns
    the checkpoint path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    name = checkpoint_name(epoch)
    final = root / name
    tmp = root / f"{name}.tmp{tag}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    layout = write_slices(tmp)
    write_manifest(
        tmp,
        {
            "format": FORMAT_VERSION,
            "backend": backend,
            "epoch": int(epoch),
            "world": world,
            "layer_dims": list(layer_dims),
            "layout": sorted(layout),
            "history": [asdict(e) for e in history],
        },
    )
    if final.exists():
        shutil.rmtree(final)
    os.rename(tmp, final)
    prune_checkpoints(root, _KEEP)
    return final


def read_manifest(
    ckpt_dir: str | Path, world: int | None = None, layer_dims: list[int] | None = None
) -> dict:
    """A checkpoint's manifest — refused as :class:`CheckpointError` when it
    was written for another ``world`` or ``layer_dims`` (given by a trainer
    about to load it)."""
    path = Path(ckpt_dir) / MANIFEST_NAME
    try:
        with open(path) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"{ckpt_dir} has no {MANIFEST_NAME} (torn checkpoint?)")
    except json.JSONDecodeError as e:
        raise CheckpointError(f"unreadable manifest {path}: {e}")
    if world is not None and (
        manifest.get("world") != world or manifest.get("layer_dims") != list(layer_dims)
    ):
        raise CheckpointError(
            f"checkpoint {ckpt_dir} was written for world={manifest.get('world')}, "
            f"dims={manifest.get('layer_dims')} — this workload is "
            f"world={world}, dims={list(layer_dims)}"
        )
    return manifest


def manifest_history(manifest: dict, epoch: int) -> list[EpochStats]:
    """The first ``epoch`` epochs' stats a manifest recorded (fewer when it
    was written without them)."""
    return [EpochStats(**e) for e in manifest.get("history", [])][:epoch]


def latest_checkpoint(root: str | Path) -> tuple[int, Path] | None:
    """The newest *complete* checkpoint under ``root``: ``(epoch, path)``.

    Directories without a manifest (torn writes, in-progress temp dirs) are
    skipped; None when no usable checkpoint exists.
    """
    root = Path(root)
    if not root.is_dir():
        return None
    best: tuple[int, Path] | None = None
    for p in root.iterdir():
        if not p.is_dir() or not p.name.startswith(_CKPT_PREFIX):
            continue
        if not (p / MANIFEST_NAME).is_file():
            continue
        try:
            epoch = int(p.name[len(_CKPT_PREFIX) :])
        except ValueError:
            continue
        if best is None or epoch > best[0]:
            best = (epoch, p)
    return best


def prune_checkpoints(root: str | Path, keep: int) -> list[Path]:
    """Delete all but the newest ``keep`` complete checkpoints; returns the
    removed paths.  ``keep < 1`` is a no-op (never delete the only restore
    point)."""
    if keep < 1:
        return []
    root = Path(root)
    if not root.is_dir():
        return []
    complete = sorted(
        (
            p
            for p in root.iterdir()
            if p.is_dir()
            and p.name.startswith(_CKPT_PREFIX)
            and (p / MANIFEST_NAME).is_file()
        ),
        key=lambda p: p.name,
    )
    removed = []
    for p in complete[:-keep]:
        shutil.rmtree(p, ignore_errors=True)
        removed.append(p)
    return removed


# ---------------------------------------------------------------------------
# the checkpoint loop
# ---------------------------------------------------------------------------


def train_to(
    trainer, epochs: int, root: str | Path | None = None, every: int = 1, max_restarts: int = 2
) -> TrainResult:
    """Train ``trainer`` (either backend) until ``epochs`` epochs in total
    are done, checkpointing under ``root``; returns the stats of epochs
    ``[0, epochs)``.

    Resumes from the newest checkpoint under ``root`` (so an interrupted
    job re-run with the same ``root`` completes it, bitwise), trains in
    ``every``-sized stretches and saves after each one.  A pool failure the
    replay policy treats as transient (a crashed, wedged or desynchronized
    worker, a corrupted payload) with restarts left backs off (0.25 s,
    doubling), restarts the pool, reloads the newest checkpoint and replays
    from it; past ``max_restarts`` it re-raises.  Without ``root`` this is
    ``trainer.train(epochs)``; ``every < 1`` is refused either way.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    if _trace.enabled:
        _metrics.gauge("restarts_used", 0)
    if root is None:
        return trainer.train(epochs)
    restarts = 0
    while True:
        try:
            # the newest checkpoint, and the stats its manifest recorded of
            # the epochs before it (the last ones; fewer when it was
            # written without them)
            done, history = 0, []
            found = latest_checkpoint(root)
            if found is not None:
                done, path = found
                history = manifest_history(trainer.load_checkpoint(path), done)
            base = done - len(history)  # the epoch of history[0]
            while done < epochs:
                n = min(every, epochs - done)
                history += trainer.train(n).epochs
                done += n
                with _trace.span("checkpoint", epoch=done, backend=trainer.backend):
                    trainer.save_checkpoint(root, done, history)
            return TrainResult(history[: max(0, epochs - base)])
        except _RECOVERABLE as err:
            if restarts >= max_restarts:
                logger.error("giving up after %d restart(s): %s", restarts, type(err).__name__)
                raise
            restarts += 1
            delay = _RESTART_BACKOFF_S * 2 ** (restarts - 1)
            logger.warning(
                "%s (worker %s, last epoch %s): restart %d/%d from the latest "
                "checkpoint after %.2fs backoff",
                type(err).__name__, err.worker_id, err.last_epoch, restarts, max_restarts, delay,
            )
            if _trace.enabled:
                _trace.instant(
                    "recover", error=type(err).__name__, worker=err.worker_id, restart=restarts
                )
                _metrics.gauge("restarts_used", restarts)
            time.sleep(delay)
            trainer.restart()
