"""Epoch-boundary checkpoint/restore (inproc surface; tier-1).

Acceptance: a training run interrupted at a checkpoint boundary and resumed
from disk must be **bitwise identical** — losses, weights, Adam moments,
per-rank clocks and phase totals — to the uninterrupted run.  Also covered:
an overlap schedule's link reservations and in-flight cross-epoch prefetch
restoring into the saving instance and into another one alike, a padded
checkpoint crossing between the in-process trainer and a 2-worker pool,
the refused version-1 format, manifest/latest/prune directory management,
torn checkpoints (no manifest) being invisible to resume, and the one
checkpoint loop (``checkpoint.train_to`` under ``train_plexus``): a job
interrupted on one backend and completed on the other, ``every < 1``
refused, one ``checkpoint`` trace span per save.

The multiproc crash-recovery path over the same files lives in
``tests/test_runtime_faults.py`` (spawn-heavy; run in its own CI step).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GridConfig, PlexusOptions
from repro.core.batch import stack_data
from repro.dist import LAPTOP
from repro.errors import CheckpointError
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.runtime import WorkloadSpec, build_trainer, latest_checkpoint
from repro.runtime import checkpoint as ckpt
from repro.sparse.ops import gcn_normalize

N_NODES = 48
DIMS = [16, 16, 8]
CFG = GridConfig(2, 2, 2)
#: the link keys of CFG: every X, Y and Z group's global member ranks
X2Y2Z2_LINKS = ["0-1", "0-2", "0-4", "1-3", "1-5", "2-3", "2-6", "3-7", "4-5", "4-6", "5-7", "6-7"]
#: indivisible sharding: every stack is padded
RAGGED = dict(cfg=GridConfig(2, 3, 2), n=50, dims=[10, 9, 9, 5])


def _dataset(n=N_NODES, dims=DIMS):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
    feats = synth_features(n, dims[0], seed=2)
    labels = degree_labels(a, dims[-1], seed=3)
    mask, _, _ = random_split_masks(n, seed=4)
    return a, feats, labels, mask


def _spec(cfg=CFG, n=N_NODES, dims=DIMS, **opts):
    a, feats, labels, mask = _dataset(n, dims)
    return WorkloadSpec(
        config=cfg,
        layer_dims=list(dims),
        workers=2,
        machine=LAPTOP,
        options=PlexusOptions(seed=0, **opts),
        adjacency=a,
        features=feats,
        labels=labels,
        train_mask=mask,
    )


def _trainer(*args, **kwargs):
    return build_trainer(_spec(*args, **kwargs), backend="inproc")


def _final_state(trainer) -> dict:
    model = trainer.model
    store = model.cluster.store
    return {
        "clocks": store.clocks.copy(),
        "by_phase": {k: v.copy() for k, v in store.by_phase.items()},
        "weights": {
            f"W{i}": stack_data(l.w_stack).copy() for i, l in enumerate(model.layers)
        },
        "f0": stack_data(model.f0_stack).copy(),
        "adam_t": model.optimizer.t,
        "adam_m": {k: v.copy() for k, v in model.optimizer.m.items()},
    }


def _assert_same(a: dict, b: dict) -> None:
    assert np.array_equal(a["clocks"], b["clocks"])
    assert set(a["by_phase"]) == set(b["by_phase"])
    for k, v in a["by_phase"].items():
        assert np.array_equal(v, b["by_phase"][k]), k
    for k, v in a["weights"].items():
        assert np.array_equal(v, b["weights"][k]), k
    assert np.array_equal(a["f0"], b["f0"])
    assert a["adam_t"] == b["adam_t"]
    for k, v in a["adam_m"].items():
        assert np.array_equal(v, b["adam_m"][k]), k


class TestRoundTrip:
    def test_eager_resume_is_bitwise(self, tmp_path):
        """Save at epoch 2, resume in a *fresh* trainer, finish: identical
        to the uninterrupted run — losses, clocks, weights, Adam state."""
        ref = _trainer()
        losses_ref = ref.train(5).losses

        saver = _trainer()
        head = saver.train(2).losses
        path = saver.save_checkpoint(tmp_path, epoch=2)
        assert head == losses_ref[:2]

        resumed = _trainer()
        manifest = resumed.load_checkpoint(path)
        assert manifest["epoch"] == 2 and manifest["world"] == CFG.total
        tail = resumed.train(3).losses
        assert tail == losses_ref[2:]
        _assert_same(_final_state(ref), _final_state(resumed))

    def test_overlap_restore_same_instance(self, tmp_path):
        """With overlap + the cross-epoch F prefetch in flight at the
        boundary, the saving instance restores (links + pending handle
        inventory) and replays bitwise."""
        tr = _trainer(overlap=True)
        tr.train(2)
        assert tr.model._f0_pending is not None  # prefetch crosses the boundary
        path = tr.save_checkpoint(tmp_path, epoch=2)
        # X2Y2Z2's twelve links, each named by its group's global ranks —
        # whenever, wherever and in whatever order they were constructed
        assert sorted(ckpt.load_slice(path, 0, 8)["links"]) == X2Y2Z2_LINKS
        assert sorted(tr.model.cluster.store.links) == X2Y2Z2_LINKS
        first = tr.train(3).losses
        state_first = _final_state(tr)

        tr.load_checkpoint(path)  # rewind the same instance
        replay = tr.train(3).losses
        assert replay == first
        _assert_same(state_first, _final_state(tr))

    @pytest.mark.parametrize("cfg", [CFG, GridConfig(4, 2, 1)], ids=lambda c: c.name)
    def test_overlap_restores_cross_instance(self, tmp_path, cfg):
        """A checkpoint holding link reservations past the boundary and an
        in-flight prefetch (on X4Y2Z1 the no-cost handle of a size-1 Z axis)
        restores into another instance — whose communicators were built
        later, after other models' — and replays bitwise."""
        ref = _trainer(cfg, overlap=True)
        losses_ref = ref.train(5).losses
        tr = _trainer(cfg, overlap=True)
        tr.train(2)
        path = tr.save_checkpoint(tmp_path, epoch=2)
        other = _trainer(cfg, overlap=True)
        other.load_checkpoint(path)
        assert other.model._f0_pending is not None
        assert other.model.cluster.store.links == tr.model.cluster.store.links
        assert other.train(3).losses == losses_ref[2:]
        _assert_same(_final_state(ref), _final_state(other))

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        """A slice file of the previous format (integer link keys that would
        restore as dead links) is refused typed, not read."""
        import pickle

        tr = _trainer()
        tr.train(1)
        path = tr.save_checkpoint(tmp_path, epoch=1)
        file = path / ckpt.worker_file_name(0, CFG.total)
        with open(file, "rb") as f:
            state = pickle.load(f)
        assert state["format"] == ckpt.FORMAT_VERSION == 2 and "noise_rng" not in state
        with open(file, "wb") as f:
            pickle.dump({**state, "format": 1}, f)
        with pytest.raises(CheckpointError, match="format 1 != supported 2"):
            _trainer().load_checkpoint(path)

    @pytest.mark.parametrize("workers", [1, 2], ids=["inproc", "two-workers"])
    def test_older_slice_files_queue_book_is_ignored(self, tmp_path, workers):
        """A version-2 checkpoint written while links kept bounded in-flight
        queues carries a ``link_queues`` book in every slice file; the
        current engine keeps no queues, so a restore — of one slice, or of
        a pool's slices re-assembled — ignores the book and replays
        bitwise."""
        import pickle

        from repro.runtime import MultiprocTrainer

        ref = _trainer(overlap=True)
        losses_ref = ref.train(4).losses
        if workers == 1:
            tr = _trainer(overlap=True)
            tr.train(2)
            path = tr.save_checkpoint(tmp_path, epoch=2)
        else:
            with MultiprocTrainer(_spec(overlap=True), timeout=60) as mpt:
                mpt.train(2)
                path = mpt.save_checkpoint(tmp_path, epoch=2)
        files = sorted(path.glob("worker-*.pkl"))
        assert len(files) == workers
        links = {}
        for file in files:
            state = pickle.loads(file.read_bytes())
            assert "link_queues" not in state
            links.update(state["links"])
            queues = {k: [t] for k, t in state["links"].items()}
            file.write_bytes(pickle.dumps({**state, "link_queues": queues}))
        assert sorted(links) == X2Y2Z2_LINKS
        resumed = _trainer(overlap=True)
        resumed.load_checkpoint(path)
        assert resumed.model.cluster.store.links == links
        assert resumed.train(2).losses == losses_ref[2:]
        _assert_same(_final_state(ref), _final_state(resumed))

    @pytest.mark.parametrize(
        "opts",
        [
            {},
            {"overlap": True},
            {"overlap": True, "aggregation_blocks": 3},
            {"overlap": True, "trainable_features": True},
        ],
        ids=["eager", "overlap", "overlap-3blocks", "overlap-trainable-f0"],
    )
    def test_ragged_resume_is_bitwise(self, tmp_path, opts):
        """Indivisible sharding (X2Y3Z2, N=50, dims 10-9-9-5: every stack is
        padded): save at epoch 3, restore into a fresh model, epochs 4-6 and
        the final state equal the uninterrupted run bitwise.  What is
        persisted does not depend on the in-memory layout: an in-flight
        padded F0 gather is plain flat arrays on disk."""
        ref = _trainer(**RAGGED, **opts)
        losses_ref = ref.train(6).losses
        assert ref.model.f0_stack.rows is not None

        saver = _trainer(**RAGGED, **opts)
        assert saver.train(3).losses == losses_ref[:3]
        path = saver.save_checkpoint(tmp_path, epoch=3)
        state = ckpt.load_slice(path, 0, 12)
        in_flight = saver.model._f0_pending is not None
        assert in_flight == (opts.get("overlap", False) and not opts.get("trainable_features", False))
        if in_flight:
            held = saver.model._f0_pending._result
            assert held.rows is not None and held.cube.shape[0] == 1  # once per Z group
            saved = state["pending_f0"]["result"]
            assert set(saved) == {"data", "rows", "cols"}
            assert all(type(v) is np.ndarray for v in saved.values())
            assert saved["data"].shape == (12,) + held.cube.shape[3:]
            assert np.array_equal(saved["rows"], held.rows) and np.array_equal(saved["cols"], held.cols)
        for name, w in state["weights"].items():
            assert type(w) is np.ndarray and w.shape[0] == 12, name

        resumed = _trainer(**RAGGED, **opts)
        resumed.load_checkpoint(path)
        assert resumed.train(3).losses == losses_ref[3:]
        _assert_same(_final_state(ref), _final_state(resumed))

    def test_ragged_checkpoint_crosses_layouts(self, tmp_path):
        """The padded overlap workload with its F0 prefetch in flight: an
        in-process checkpoint boots a 2-worker pool and the pool's boots the
        in-process trainer, each bitwise on the uninterrupted run.  A
        worker's prefetch extents are its cut of the global gather plan, so
        every slice file carries them and the slices re-assemble."""
        import pickle

        from repro.runtime import MultiprocTrainer

        spec = _spec(**RAGGED, overlap=True)
        ref = build_trainer(spec, backend="inproc")
        losses_ref = ref.train(6).losses
        want = _final_state(ref)

        # in-process -> 2 workers
        saver = build_trainer(spec, backend="inproc")
        saver.train(3)
        path = saver.save_checkpoint(tmp_path / "a", epoch=3)
        with MultiprocTrainer(spec, timeout=60) as mpt:
            assert mpt.load_checkpoint(path)["epoch"] == 3
            assert mpt.epochs_done == 3
            assert mpt.train(3).losses == losses_ref[3:]
            pool = mpt.state()
        assert np.array_equal(pool["clocks"], want["clocks"])
        for books in ("by_phase", "weights"):
            assert set(pool[books]) == set(want[books])
            for k, v in want[books].items():
                assert np.array_equal(pool[books][k], v), k

        # 2 workers -> in-process
        with MultiprocTrainer(spec, timeout=60) as mpt:
            assert mpt.train(3).losses == losses_ref[:3]
            path = mpt.save_checkpoint(tmp_path / "b", epoch=3)
        slices = [pickle.loads(p.read_bytes()) for p in sorted(path.glob("worker-*.pkl"))]
        assert [(s["lo"], s["hi"]) for s in slices] == [(0, 6), (6, 12)]
        assert all(s["pending_f0"]["result"]["rows"] is not None for s in slices)
        resumed = build_trainer(spec, backend="inproc")
        resumed.load_checkpoint(path)
        assert resumed.train(3).losses == losses_ref[3:]
        _assert_same(want, _final_state(resumed))

    def test_restore_rejects_mismatched_model(self, tmp_path):
        tr = _trainer()
        tr.train(1)
        path = tr.save_checkpoint(tmp_path, epoch=1)
        state = ckpt.load_slice(path, 0, CFG.total)
        state["weights"]["W0"] = state["weights"]["W0"][:, :-1, :]
        with pytest.raises(CheckpointError, match="W0"):
            ckpt.restore_model(_trainer().model, state)
        state = ckpt.load_slice(path, 0, CFG.total)
        del state["weights"]["W1"]
        with pytest.raises(CheckpointError, match="parameters"):
            ckpt.restore_model(_trainer().model, state)


class TestDirectoryManagement:
    def test_latest_prune_and_torn_checkpoints(self, tmp_path):
        tr = _trainer()
        for e in (1, 2, 3):
            tr.train(1)
            tr.save_checkpoint(tmp_path, epoch=e)
        # keeping two pruned epoch 1; the newest complete checkpoint is epoch 3
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [ckpt.checkpoint_name(2), ckpt.checkpoint_name(3)]
        epoch, path = latest_checkpoint(tmp_path)
        assert (epoch, path.name) == (3, ckpt.checkpoint_name(3))
        # tearing the newest (no manifest) makes epoch 2 the latest again
        (path / ckpt.MANIFEST_NAME).unlink()
        epoch, path = latest_checkpoint(tmp_path)
        assert epoch == 2
        with pytest.raises(CheckpointError, match="torn"):
            ckpt.read_manifest(tmp_path / ckpt.checkpoint_name(3))

    def test_latest_on_missing_or_empty_root(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None
        assert latest_checkpoint(tmp_path) is None

    def test_prune_never_deletes_the_only_restore_point(self, tmp_path):
        tr = _trainer()
        tr.train(1)
        tr.save_checkpoint(tmp_path, epoch=1)
        assert ckpt.prune_checkpoints(tmp_path, keep=0) == []
        assert latest_checkpoint(tmp_path) is not None


#: the train_plexus workload of the checkpoint-loop tests (a 2-worker pool)
_PLEXUS_KW = dict(gpus=8, config=GridConfig(2, 1, 4), seed=0, scale="tiny")


class TestTrainPlexusCheckpointing:
    @pytest.mark.parametrize(
        "first,then",
        [("inproc", "inproc"), ("inproc", "multiproc"), ("multiproc", "inproc")],
    )
    def test_total_target_resume(self, tmp_path, first, then):
        """train_plexus with checkpoint_dir treats epochs as a total target:
        an interrupted job re-run with the same directory — on either
        backend, whichever wrote it — completes and returns the
        bitwise-identical TrainResult."""
        from repro import train_plexus

        ref = train_plexus("reddit", epochs=5, **_PLEXUS_KW)
        d = str(tmp_path / "ckpt")
        part = train_plexus("reddit", epochs=3, checkpoint_dir=d, backend=first, **_PLEXUS_KW)
        assert part.losses == ref.losses[:3]
        full = train_plexus("reddit", epochs=5, checkpoint_dir=d, backend=then, **_PLEXUS_KW)
        assert full.epochs == ref.epochs
        assert ckpt.read_manifest(latest_checkpoint(d)[1])["backend"] == then

    @pytest.mark.parametrize("with_dir", [True, False], ids=["dir", "no-dir"])
    @pytest.mark.parametrize("backend", ["inproc", "multiproc"])
    def test_every_below_one_is_refused(self, tmp_path, backend, with_dir):
        """Refused whether or not a checkpoint directory is given."""
        from repro import train_plexus

        with pytest.raises(ValueError, match="every must be >= 1"):
            train_plexus(
                "reddit", epochs=2, checkpoint_dir=str(tmp_path) if with_dir else None,
                checkpoint_every=0, backend=backend, **_PLEXUS_KW,
            )

    @pytest.mark.parametrize("backend", ["inproc", "multiproc"])
    def test_every_save_is_a_checkpoint_span(self, tmp_path, backend):
        """One ``checkpoint`` span per save, from the loop, on both backends:
        in the in-process trace and in the launcher's."""
        import json

        from repro import train_plexus

        out = tmp_path / "trace"
        train_plexus(
            "reddit", epochs=2, checkpoint_dir=str(tmp_path / "ckpt"), backend=backend,
            trace_dir=str(out), **_PLEXUS_KW,
        )
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        spans = [e for e in events if e["name"] == "checkpoint" and e["ph"] == "B"]
        process = "inproc" if backend == "inproc" else "launcher"
        assert [(e["process"], e["args"]) for e in spans] == [
            (process, {"epoch": epoch, "backend": backend}) for epoch in (1, 2)
        ]
        # a clean run's rows report no replay
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        ours = [r for r in rows if r["process"] == process]
        assert ours and all(r["gauges"]["restarts_used"] == 0 for r in ours)
