"""One differential test: every configuration trains like the in-memory
in-process run, bit for bit.

Each case draws a workload — the grid, N and the layer dims (indivisible
sizes and one-layer models included), the machine (LAPTOP: every link
intra-node; PERLMUTTER, 4 GPUs per node: inter-node Z links past 4 ranks),
overlap, aggregation blocks, ``max_inflight``, dtype, frozen or trainable
F0, permutation and SpMM noise — and a way to run it: the data source (in
memory, or a :func:`~repro.graph.shardio.save_sharded` directory read
through ``shard_dir``), the backend (in-process, or a worker pool of some
split over shm or tcp with some mailbox size), the ``train()`` chunking and,
optionally, a checkpoint saved after the first chunk on one side and resumed
on the other (in-process ↔ pool).  Losses, every ``EpochStats``, weights
(and a trainable F0), per-rank clocks and the ``by_phase`` / ``by_category``
totals must equal the in-memory in-process run's exactly.  Fault plans are
not drawn: the chaos suites (``test_runtime_faults.py``,
``test_runtime_tcp.py``) keep those.

``PINNED`` holds, by name, the hand-picked parity cases this test
replaced (eager / overlap / blocked and bounded schedules, SpMM noise, an
uneven plane split, the mailbox overflow path, float32, padded rows and
uneven tiling, inter-node bounded Z links, tcp, the sharded directory) plus
the permuted ``shard_dir`` workloads and both checkpoint crossings.

Spawn-heavy: the default profile (derandomized) runs in its own CI step;
``HYPOTHESIS_PROFILE=long`` draws at least 100 cases.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import GridConfig, PlexusOptions, SpmmNoise
from repro.dist import LAPTOP, PERLMUTTER
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.graph.shardio import save_sharded
from repro.runtime import MultiprocTrainer, WorkloadSpec, build_trainer, latest_checkpoint
from repro.runtime import checkpoint as ckpt
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

#: every grid of at most 8 ranks
GRIDS = [g for g in itertools.product(range(1, 9), repeat=3) if np.prod(g) <= 8]

MACHINES = {"laptop": LAPTOP, "perlmutter": PERLMUTTER}


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
    max_inflight: int | None = None
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


@st.composite
def cases(draw) -> Case:
    grid = draw(st.sampled_from(GRIDS))
    n_layers = draw(st.integers(1, 3))
    backend = draw(st.sampled_from(["inproc", "shm", "tcp"]))
    workers = 0 if backend == "inproc" else draw(st.integers(1, min(grid[2], 3)))
    chunks = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    resumable = workers and len(chunks) > 1
    return Case(
        grid=grid,
        # down to fewer nodes than ranks: empty shards
        n=draw(st.integers(4, 64)),
        dims=tuple(draw(st.lists(st.integers(2, 20), min_size=n_layers + 1, max_size=n_layers + 1))),
        machine=draw(st.sampled_from(sorted(MACHINES))),
        overlap=draw(st.booleans()),
        blocks=draw(st.integers(1, 3)),
        max_inflight=draw(st.sampled_from([None, 1, 2])),
        float32=draw(st.booleans()),
        trainable=draw(st.booleans()),
        permutation=draw(st.sampled_from(["none", "single", "double"])),
        noise=draw(st.booleans()),
        disk=draw(st.booleans()),
        workers=workers,
        transport="shm" if backend == "inproc" else backend,
        mailbox=draw(st.sampled_from([4096, 8 << 20])),
        chunks=chunks,
        resume=draw(st.sampled_from([None, "inproc->pool", "pool->inproc"])) if resumable else None,
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
            max_inflight=case.max_inflight,
        ),
        adjacency=a,
        features=feats,
        labels=labels,
        train_mask=mask,
    )


def _books(model) -> dict:
    """An in-process model's books in the pool's ``state()`` form."""
    return ckpt.assemble_slices([ckpt.capture_books(model)])


def _run_arm(case: Case, spec: WorkloadSpec, tmp: Path) -> tuple[list, dict]:
    """Train ``spec`` the way the case draws it; returns every epoch's
    stats and the final cube-wide books."""
    epochs = []
    if case.workers == 0:
        trainer = build_trainer(spec, backend="inproc")
        for c in case.chunks:
            epochs += trainer.train(c).epochs
        return epochs, _books(trainer.model)
    saved = tmp / "ckpt"
    pool = dict(timeout=60, transport=case.transport, mailbox_bytes=case.mailbox)
    # the pool's chunks, and the in-process ones resumed after them
    pooled, resumed = case.chunks, ()
    if case.resume == "inproc->pool":
        first = build_trainer(spec, backend="inproc")
        epochs += first.train(case.chunks[0]).epochs
        first.save_checkpoint(saved, epoch=case.chunks[0])
        pooled = case.chunks[1:]
        pool.update(checkpoint_dir=saved, checkpoint_every=sum(pooled))
    elif case.resume == "pool->inproc":
        pooled, resumed = case.chunks[:1], case.chunks[1:]
        pool.update(checkpoint_dir=saved, checkpoint_every=case.chunks[0])
    with MultiprocTrainer(spec, **pool) as mpt:
        for c in pooled:
            epochs += mpt.train(c).epochs
        books = mpt.state()
    if resumed:
        last = build_trainer(spec, backend="inproc")
        last.load_checkpoint(latest_checkpoint(saved)[1])
        for c in resumed:
            epochs += last.train(c).epochs
        books = _books(last.model)
    return epochs, books


#: the configurations every run checks, by name: first the hand-picked
#: parity cases this test replaced ...
PINNED = {
    # X2Y2Z2 schedules ...
    "eager": Case(),
    "overlap": Case(overlap=True),
    "overlap-blocked-bounded": Case(overlap=True, blocks=2, max_inflight=1),
    # ... SpMM noise keyed by identity, on one worker and over tcp ...
    "noise-one-worker": Case(noise=True, workers=1, chunks=(3,)),
    "noise-tcp-overlap-blocked": Case(noise=True, overlap=True, blocks=2, transport="tcp", chunks=(3,)),
    # ... Gz=4 on 2+1+1 planes, every exchange through overflow segments, float32 ...
    "uneven-plane-split": Case(grid=(1, 2, 4), workers=3),
    "mailbox-overflow": Case(mailbox=4096, chunks=(2,)),
    "float32": Case(float32=True, chunks=(2,)),
    # ... padded rows (N=49: 25 / 24 along Z) and uneven tiling (X1Y2Z4, N=50) ...
    "padded-rows": Case(n=49),
    "padded-rows-overlap-blocked-bounded": Case(n=49, overlap=True, blocks=2, max_inflight=1),
    "uneven-tiling-three-workers": Case(grid=(1, 2, 4), n=50, dims=(10, 9, 9, 5), workers=3),
    "uneven-tiling-three-workers-overlap": Case(
        grid=(1, 2, 4), n=50, dims=(10, 9, 9, 5), workers=3, overlap=True
    ),
    "padded-rows-tcp": Case(n=49, transport="tcp", overlap=True),
    # ... max_inflight on PERLMUTTER's inter-node Z links ...
    "inter-node-eager-1": Case(machine="perlmutter", max_inflight=1),
    "inter-node-overlap-blocked-1": Case(machine="perlmutter", max_inflight=1, overlap=True, blocks=2),
    "inter-node-overlap-blocked-2": Case(machine="perlmutter", max_inflight=2, overlap=True, blocks=3),
    "inter-node-tcp": Case(machine="perlmutter", transport="tcp", max_inflight=1, overlap=True, blocks=2),
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
        epochs, books = _run_arm(case, spec, tmp)
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
    event("shard_dir" if case.disk else "in memory")
    _check(case)
