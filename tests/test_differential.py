"""One differential test: every configuration trains like the in-memory
in-process run, bit for bit.

Each case draws a workload — the grid, N and the layer dims (indivisible
sizes and one-layer models included), the machine (LAPTOP: every link
intra-node; PERLMUTTER, 4 GPUs per node: inter-node Z links past 4 ranks),
overlap, aggregation blocks, dtype, frozen or trainable
F0, permutation and SpMM noise — and a way to run it: the data source (in
memory, or a :func:`~repro.graph.shardio.save_sharded` directory read
through ``shard_dir``), the backend (in-process, or a worker pool of some
split over shm or tcp with some mailbox size), the ``train()`` chunking and,
optionally, a checkpoint saved after the first chunk on one side and resumed
on the other (in-process ↔ pool), or else one fault plan.  Losses, every
``EpochStats``, weights (and a trainable F0), per-rank clocks and the
``by_phase`` / ``by_category`` totals must equal the in-memory in-process
run's exactly.

A faulted pool trains through ``checkpoint.train_to``, and what it must do
is a function of the plan: ``delay`` finishes bitwise with no replay;
``die``, ``corrupt`` and ``drop_conn`` (a lost tcp connection is a pool
failure: the transport does not reconnect) replay once, from the
checkpoint of the stretch before the fault, and then finish bitwise;
``raise`` (``WorkerFailed``, never replayed) and a spent restart budget
end the run with the typed error.  ``hang`` costs 2 x ``timeout`` and stays
in the chaos suite (``test_runtime_faults.py``).

``PINNED`` holds, by name, the hand-picked parity cases this test
replaced (eager / overlap / blocked schedules, SpMM noise, an uneven plane
split, the mailbox overflow path, float32, padded rows and uneven tiling,
inter-node Z links, tcp, the sharded directory) plus
the permuted ``shard_dir`` workloads, both checkpoint crossings and the
hand-picked recovery cases (a kill at each point, eager and overlap, a
corrupted payload on each bus, a dropped tcp connection, a frozen F0, a spent budget
and a delay).

Spawn-heavy: the default profile (derandomized) runs in its own CI step;
``HYPOTHESIS_PROFILE=long`` draws at least 100 cases.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import GridConfig, PlexusOptions, SpmmNoise
from repro.dist import LAPTOP, PERLMUTTER
from repro.errors import BarrierTimeout, PayloadCorruption, WorkerCrashed, WorkerFailed
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.graph.shardio import save_sharded
from repro.runtime import MultiprocTrainer, WorkloadSpec, build_trainer
from repro.runtime import checkpoint as ckpt
from repro.runtime import launch
from repro.runtime.faults import FAULT_POINTS, NETWORK_ACTIONS, FaultPlan
from repro.sparse.ops import gcn_normalize

PROFILES = {
    "default": settings(
        max_examples=8,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ),
    "long": settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]),
}

#: every grid of at most 8 ranks, and those whose Z axis a pool of two or
#: more workers can split (what a fault plan needs)
GRIDS = [g for g in itertools.product(range(1, 9), repeat=3) if np.prod(g) <= 8]
SPLIT_Z = [g for g in GRIDS if g[2] >= 2]

MACHINES = {"laptop": LAPTOP, "perlmutter": PERLMUTTER}

#: the fault actions drawn on both transports (``hang`` costs 2 x timeout
#: and stays in the chaos suite), and those that may fire at any point
_ACTIONS = ("die", "raise", "corrupt", "delay")
_ANYWHERE = ("die", "raise", "delay")

#: the error each action's failure raises in the launcher: train_to replays
#: it while its budget lasts (``raise`` it never replays)
_ERRORS = {
    "die": WorkerCrashed,
    "raise": WorkerFailed,
    "corrupt": PayloadCorruption,
    "drop_conn": BarrierTimeout,
}


@dataclass(frozen=True)
class Case:
    """One drawn configuration; the defaults are the X2Y2Z2 workload the
    pinned examples vary."""

    grid: tuple[int, int, int] = (2, 2, 2)
    n: int = 48
    dims: tuple[int, ...] = (16, 16, 8)
    machine: str = "laptop"
    overlap: bool = False
    blocks: int = 1
    float32: bool = False
    trainable: bool = False
    permutation: str = "double"
    noise: bool = False
    disk: bool = False
    #: 0: the in-process backend; otherwise a pool of this many workers
    workers: int = 2
    transport: str = "shm"
    mailbox: int = 8 << 20
    chunks: tuple[int, ...] = (2, 2)
    #: ``"inproc->pool"`` / ``"pool->inproc"``: the first chunk runs on one
    #: side, its checkpoint boots the other for the rest
    resume: str | None = None
    #: a pool of two or more workers that does not resume may carry one
    #: fault plan: it then trains through ``checkpoint.train_to`` to
    #: ``sum(chunks)`` epochs, checkpointing every ``chunks[0]``, with
    #: ``budget`` restarts
    fault: FaultPlan | None = None
    budget: int = 1


@st.composite
def cases(draw) -> Case:
    # one case in eight carries a fault plan.  It is drawn first, and the
    # draws after it give it what it needs (a pool of two or more workers,
    # so Gz >= 2): hypothesis favours small draws, one-worker pools and
    # Gz = 1, so a plan drawn behind them is rare.  Hypothesis mutates each
    # fresh case a few times, keeping its plan, so plans come in clumps: a
    # 120-case run draws ≈10-20 % faulted cases but only some of the actions
    faulted = draw(st.integers(0, 7)) == 7
    grid = draw(st.sampled_from(SPLIT_Z if faulted else GRIDS))
    n_layers = draw(st.integers(1, 3))
    backend = draw(st.sampled_from(["shm", "tcp"] if faulted else ["inproc", "shm", "tcp"]))
    workers = 0 if backend == "inproc" else draw(st.integers(1 + faulted, min(grid[2], 3)))
    chunks = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    fault = resume = None
    if faulted:
        action = draw(st.sampled_from(_ACTIONS + NETWORK_ACTIONS * (backend == "tcp")))
        fault = FaultPlan(
            worker=draw(st.integers(0, workers - 1)),
            # corrupt and the network actions arm at pre_barrier only
            point=draw(st.sampled_from(FAULT_POINTS if action in _ANYWHERE else FAULT_POINTS[:1])),
            action=action,
            epoch=draw(st.integers(0, sum(chunks) - 1)),
        )
    elif workers and len(chunks) > 1:
        resume = draw(st.sampled_from([None, "inproc->pool", "pool->inproc"]))
    return Case(
        grid=grid,
        # down to fewer nodes than ranks: empty shards
        n=draw(st.integers(4, 64)),
        dims=tuple(draw(st.lists(st.integers(2, 20), min_size=n_layers + 1, max_size=n_layers + 1))),
        machine=draw(st.sampled_from(sorted(MACHINES))),
        overlap=draw(st.booleans()),
        blocks=draw(st.integers(1, 3)),
        float32=draw(st.booleans()),
        trainable=draw(st.booleans()),
        permutation=draw(st.sampled_from(["none", "single", "double"])),
        noise=draw(st.booleans()),
        disk=draw(st.booleans()),
        workers=workers,
        transport="shm" if backend == "inproc" else backend,
        mailbox=draw(st.sampled_from([4096, 8 << 20])),
        chunks=chunks,
        resume=resume,
        fault=fault,
        budget=draw(st.sampled_from([1, 0])) if fault else 1,
    )


def _dataset(n: int, dims: tuple[int, ...], float32: bool):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
    feats = synth_features(n, dims[0], seed=2).astype(np.float32 if float32 else np.float64)
    labels = degree_labels(a, dims[-1], seed=3)
    mask, _, _ = random_split_masks(n, seed=4)
    return a, feats, labels, mask


def _spec(case: Case) -> WorkloadSpec:
    """The case's workload with its data in memory."""
    a, feats, labels, mask = _dataset(case.n, case.dims, case.float32)
    return WorkloadSpec(
        config=GridConfig(*case.grid),
        layer_dims=list(case.dims),
        workers=max(case.workers, 1),
        machine=MACHINES[case.machine],
        options=PlexusOptions(
            seed=0,
            permutation=case.permutation,
            aggregation_blocks=case.blocks,
            trainable_features=case.trainable,
            noise=SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11) if case.noise else None,
            compute_dtype=np.float32 if case.float32 else None,
            overlap=case.overlap,
        ),
        adjacency=a,
        features=feats,
        labels=labels,
        train_mask=mask,
    )


def _books(model) -> dict:
    """An in-process model's books in the pool's ``state()`` form."""
    return ckpt.assemble_slices([ckpt.capture_books(model)])


def _watch_restarts(trainer) -> list:
    """A list with one entry per ``trainer.restart()`` call: the epoch of
    the checkpoint the replay then reloaded (``None`` while it has loaded
    none)."""
    replays = []
    restart, load = trainer.restart, trainer.load_checkpoint

    def restarted() -> None:
        restart()
        replays.append(None)

    def loaded(path) -> dict:
        manifest = load(path)
        if replays:
            replays[-1] = manifest["epoch"]
        return manifest

    trainer.restart, trainer.load_checkpoint = restarted, loaded
    return replays


def _run_faulted(case: Case, spec: WorkloadSpec, root: Path, pool: dict) -> tuple | None:
    """Train a fault case through ``train_to`` and check what its plan
    implies: ``delay`` no replay; ``die``, ``corrupt`` and ``drop_conn``
    one, from the checkpoint at ``epoch // k * k``; ``raise``
    (and a spent budget) the typed error, no replay.  Returns the epochs
    and books of a run that finished, else None."""
    plan, k = case.fault, case.chunks[0]
    fails = plan.action == "raise" or (case.budget == 0 and plan.action in _ERRORS)
    with MultiprocTrainer(replace(spec, faults=(plan,)), **pool) as mpt:
        replays = _watch_restarts(mpt)
        with pytest.raises(_ERRORS[plan.action]) if fails else nullcontext() as err:
            result = ckpt.train_to(mpt, sum(case.chunks), root, every=k, max_restarts=case.budget)
        if not fails:
            assert replays == ([plan.epoch // k * k or None] if plan.action in _ERRORS else [])
            return result.epochs, mpt.state()
    assert replays == []
    if plan.action == "raise":
        assert "InjectedFault" in err.value.traceback_text
    else:  # the stretch before the fault was kept
        assert (ckpt.latest_checkpoint(root) or (0,))[0] == plan.epoch // k * k
    return None


def _run_arm(case: Case, spec: WorkloadSpec, tmp: Path) -> tuple[list, dict] | None:
    """Train ``spec`` the way the case draws it; returns every epoch's
    stats and the final cube-wide books (None: the case's fault ended the
    run, as it must)."""
    epochs = []
    if case.workers == 0:
        trainer = build_trainer(spec, backend="inproc")
        for c in case.chunks:
            epochs += trainer.train(c).epochs
        return epochs, _books(trainer.model)
    saved = tmp / "ckpt"
    pool = dict(timeout=60, transport=case.transport)
    if case.fault is not None:
        return _run_faulted(case, spec, saved, pool)
    # the pool's chunks, and the in-process ones resumed after them
    pooled, resumed = case.chunks, ()
    with MultiprocTrainer(spec, **pool) as mpt:
        if case.resume == "inproc->pool":
            first = build_trainer(spec, backend="inproc")
            epochs += first.train(case.chunks[0]).epochs
            mpt.load_checkpoint(first.save_checkpoint(saved, epoch=case.chunks[0]))
            pooled = case.chunks[1:]
        elif case.resume == "pool->inproc":
            pooled, resumed = case.chunks[:1], case.chunks[1:]
        for c in pooled:
            epochs += mpt.train(c).epochs
        if not resumed:
            return epochs, mpt.state()
        path = mpt.save_checkpoint(saved, epoch=case.chunks[0])
    last = build_trainer(spec, backend="inproc")
    last.load_checkpoint(path)
    for c in resumed:
        epochs += last.train(c).epochs
    return epochs, _books(last.model)


def _faulted(action, point="pre_barrier", epoch=2, worker=1, **case) -> Case:
    """X2Y2Z2 trained to five epochs, checkpointed every two, with one
    fault plan."""
    return Case(chunks=(2, 3), fault=FaultPlan(worker, point, action, epoch), **case)


#: the configurations every run checks, by name: first the hand-picked
#: parity cases this test replaced ...
PINNED = {
    # X2Y2Z2 schedules ...
    "eager": Case(),
    "overlap": Case(overlap=True),
    "overlap-blocked": Case(overlap=True, blocks=2),
    # ... SpMM noise keyed by identity, on one worker and over tcp ...
    "noise-one-worker": Case(noise=True, workers=1, chunks=(3,)),
    "noise-tcp-overlap-blocked": Case(noise=True, overlap=True, blocks=2, transport="tcp", chunks=(3,)),
    # ... Gz=4 on 2+1+1 planes, every exchange through overflow segments, float32 ...
    "uneven-plane-split": Case(grid=(1, 2, 4), workers=3),
    "mailbox-overflow": Case(mailbox=4096, chunks=(2,)),
    "float32": Case(float32=True, chunks=(2,)),
    # ... padded rows (N=49: 25 / 24 along Z) and uneven tiling (X1Y2Z4, N=50) ...
    "padded-rows": Case(n=49),
    "padded-rows-overlap-blocked": Case(n=49, overlap=True, blocks=2),
    "uneven-tiling-three-workers": Case(grid=(1, 2, 4), n=50, dims=(10, 9, 9, 5), workers=3),
    "uneven-tiling-three-workers-overlap": Case(
        grid=(1, 2, 4), n=50, dims=(10, 9, 9, 5), workers=3, overlap=True
    ),
    "padded-rows-tcp": Case(n=49, transport="tcp", overlap=True),
    # ... PERLMUTTER's inter-node Z links ...
    "inter-node-eager": Case(machine="perlmutter"),
    "inter-node-overlap-2-blocks": Case(machine="perlmutter", overlap=True, blocks=2),
    "inter-node-overlap-3-blocks": Case(machine="perlmutter", overlap=True, blocks=3),
    "inter-node-tcp": Case(machine="perlmutter", transport="tcp", overlap=True, blocks=2),
    # ... the sharded directory feeding the pool (one layer; padded X1Y1Z2) ...
    "shard-dir": Case(grid=(2, 1, 2), n=32, dims=(12, 8), permutation="none", disk=True, chunks=(3,)),
    "shard-dir-padded": Case(grid=(1, 1, 2), n=49, dims=(12, 8), permutation="none", disk=True, chunks=(3,)),
    # ... and tcp == shm == in-process over five epochs
    "tcp-eager": Case(transport="tcp", chunks=(5,)),
    "tcp-overlap": Case(transport="tcp", overlap=True, chunks=(5,)),
    # a permuted shard_dir: in-process, on shm and on tcp, L = 1 and L = 3, padded
    "shard-dir-single-inproc": Case(
        grid=(2, 1, 2), n=33, dims=(12, 8), permutation="single", disk=True, workers=0
    ),
    "shard-dir-double-three-workers": Case(
        grid=(1, 2, 4), n=50, dims=(10, 9, 9, 5), disk=True, workers=3, overlap=True
    ),
    "shard-dir-double-tcp": Case(grid=(2, 1, 2), n=33, dims=(12, 8), disk=True, transport="tcp"),
    # a checkpoint crossing backends, both ways
    "resume-inproc-to-pool": Case(n=50, dims=(10, 9, 9, 5), overlap=True, resume="inproc->pool"),
    "resume-pool-to-inproc": Case(
        disk=True, trainable=True, overlap=True, resume="pool->inproc", chunks=(1, 2)
    ),
    # train() chunks across the overlap schedule's cross-epoch prefetch on tcp
    "tcp-overlap-chunks": Case(transport="tcp", overlap=True, chunks=(2, 3)),
    # recovery, worker 1 killed in epoch 2 at each point, eager and overlap:
    # one replay, from the epoch-2 checkpoint ...
    **{f"die-{point}": _faulted("die", point) for point in FAULT_POINTS},
    **{f"die-{point}-overlap": _faulted("die", point, overlap=True) for point in FAULT_POINTS},
    # ... so do a corrupted payload, on either bus, and a dropped tcp
    # connection ...
    "corrupt": _faulted("corrupt", worker=0),
    "corrupt-tcp": _faulted("corrupt", worker=0, transport="tcp"),
    "drop_conn-tcp": _faulted("drop_conn", transport="tcp"),
    "drop_conn-tcp-overlap": _faulted("drop_conn", transport="tcp", overlap=True),
    # ... and a frozen F0 under overlap killed mid-collective in epoch 3 ...
    "die-frozen-f0-overlap": _faulted(
        "die", "mid_collective", epoch=3, n=72, dims=(24, 24, 16, 8), overlap=True
    ),
    # ... while with no restart left the kill re-raises typed — on tcp too,
    # where the peer's lost connection to the dead worker is only its echo
    "die-budget-0": _faulted("die", budget=0),
    "die-tcp-budget-0": _faulted("die", transport="tcp", budget=0),
    # a late arrival: bitwise, no restart
    "delay": _faulted("delay", epoch=1),
    "delay-overlap": _faulted("delay", epoch=1, overlap=True),
    "delay-tcp": _faulted("delay", epoch=1, worker=0, transport="tcp"),
}


def _check(case: Case) -> None:
    spec = _spec(case)
    ref = build_trainer(spec, backend="inproc")
    want = ref.train(sum(case.chunks))
    want_books = _books(ref.model)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if case.disk:
            save_sharded(spec.adjacency, spec.features, spec.labels, tmp / "shards", grid=(4, 4))
            spec = replace(spec, adjacency=None, features=None, labels=None, shard_dir=str(tmp / "shards"))
        # a pool's mailbox size is the launcher's constant
        with mock.patch.object(launch, "DEFAULT_MAILBOX_BYTES", case.mailbox):
            ran = _run_arm(case, spec, tmp)
    if ran is None:
        return
    epochs, books = ran
    assert [e.loss for e in epochs] == want.losses
    assert epochs == want.epochs
    for key in ("by_phase", "by_category", "weights"):
        assert books[key].keys() == want_books[key].keys(), key
        for label, vec in want_books[key].items():
            assert np.array_equal(books[key][label], vec), (key, label)
    assert np.array_equal(books["clocks"], want_books["clocks"])


@pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
def test_pinned_configuration_trains_like_in_memory_inproc(case: Case):
    _check(case)


@PROFILES[os.environ.get("HYPOTHESIS_PROFILE", "default")]
@given(case=cases())
def test_every_configuration_trains_like_in_memory_inproc(case: Case):
    # the arms a run covered (``--hypothesis-show-statistics``)
    event("in-process" if case.workers == 0 else f"{case.transport} pool, resume {case.resume}")
    plan = case.fault
    event(f"fault {plan.action}" if plan else "no fault")
    if plan:
        event(f"fault at {plan.point}, budget {case.budget}")
    event("shard_dir" if case.disk else "in memory")
    _check(case)
