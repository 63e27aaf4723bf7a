"""Fault tolerance of the multi-process runtime (chaos suite).

Spawn-heavy: runs in its own CI step under a hard timeout, deselected from
tier-1.  Acceptance for the fault-tolerant worker runtime:

* **detection latency** — a worker killed mid-epoch surfaces as a typed
  exception (worker id, exit code, last completed epoch, original
  traceback text) in *seconds*, not the 120 s bus barrier timeout; a
  wedged one within the bus ``timeout`` when a peer waits on it, else
  within 2 x ``timeout`` of silence, on both transports;
* **payload integrity** — a flipped mailbox byte trips the frame CRC at
  read time and raises :class:`~repro.errors.PayloadCorruption`;
* **plans that fire** — a plan that could never fire on the pool is a
  ``ValueError`` before any worker spawns, and a NaN loss (the same bits
  on every worker) is no SPMD divergence;
* **resume** — ``train_to`` on a new pool continues the job from the
  directory (cold start), and ``save_checkpoint`` / ``load_checkpoint``
  cross backends and worker layouts both ways, an overlap schedule's link
  reservations and in-flight prefetch included; a refused checkpoint
  reaches the caller as ``CheckpointError`` on either backend.

Replay after a fault — bitwise equal to the uninterrupted run, from the
checkpoint the plan implies — is drawn and pinned by
``tests/test_differential.py``.
"""

from __future__ import annotations

import pickle
import time
from contextlib import nullcontext
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro.core import GridConfig, PlexusOptions
from repro.dist import LAPTOP
from repro.errors import (
    BarrierTimeout,
    CheckpointError,
    PayloadCorruption,
    WorkerCrashed,
    WorkerFailed,
)
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.runtime import (
    FaultPlan,
    MultiprocTrainer,
    WorkloadSpec,
    build_trainer,
    latest_checkpoint,
)
from repro.runtime import checkpoint as ckpt
from repro.runtime import launch
from repro.runtime.checkpoint import train_to
from repro.runtime.faults import EXIT_CODE
from repro.sparse.ops import gcn_normalize

N_NODES = 48
DIMS = [16, 16, 8]
CFG = GridConfig(2, 2, 2)
EPOCHS = 5


def _dataset():
    a = gcn_normalize(rmat_graph(N_NODES, avg_degree=6, seed=1))
    feats = synth_features(N_NODES, DIMS[0], seed=2)
    labels = degree_labels(a, DIMS[-1], seed=3)
    mask, _, _ = random_split_masks(N_NODES, seed=4)
    return a, feats, labels, mask


#: how each transport's waiting peer names a wedged worker 1
_HUNG_PEER = {"shm": "worker 1 is at message", "tcp": "tcp rendezvous with worker 1"}


def _spec(faults=(), cfg=CFG, workers=2, **opts):
    a, feats, labels, mask = _dataset()
    return WorkloadSpec(
        config=cfg,
        layer_dims=list(DIMS),
        workers=workers,
        machine=LAPTOP,
        options=PlexusOptions(seed=0, **opts),
        adjacency=a,
        features=feats,
        labels=labels,
        train_mask=mask,
        faults=faults,
    )


def _state_equal(a: dict, b: dict) -> None:
    assert np.array_equal(a["clocks"], b["clocks"])
    for key in ("by_phase", "by_category"):
        assert set(a[key]) == set(b[key])
        for label, vec in a[key].items():
            assert np.array_equal(vec, b[key][label]), label
    assert set(a["weights"]) == set(b["weights"])
    for name, w in a["weights"].items():
        assert np.array_equal(w, b["weights"][name]), name


#: a trainer of either backend as a context manager
_TRAINERS = {
    "inproc": lambda spec: nullcontext(build_trainer(spec, backend="inproc")),
    "multiproc": lambda spec: MultiprocTrainer(spec, timeout=60),
}


def _slice_states(ckpt_dir) -> list[dict]:
    return [pickle.loads(p.read_bytes()) for p in sorted(ckpt_dir.glob("worker-*.pkl"))]


@pytest.fixture(scope="module", params=[False, True], ids=["eager", "overlap"])
def baseline(request):
    """Uninterrupted multiproc run per schedule: the parity reference."""
    overlap = request.param
    with MultiprocTrainer(_spec(overlap=overlap), timeout=60) as mpt:
        losses = mpt.train(EPOCHS).losses
        state = mpt.state()
    return overlap, losses, state


class TestDetection:
    """Typed failure surfacing, well under the bus barrier timeout."""

    def test_dead_worker_detected_fast_with_identity(self):
        plan = FaultPlan(worker=1, point="pre_barrier", action="die", epoch=1)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashed, match="multiproc runtime failed") as ei:
            with MultiprocTrainer(_spec(faults=(plan,)), timeout=120) as mpt:
                mpt.train(3)
        elapsed = time.monotonic() - t0
        assert elapsed < 30, f"detection took {elapsed:.1f}s (barrier timeout is 120s)"
        assert ei.value.worker_id == 1
        assert ei.value.exitcode == EXIT_CODE
        assert ei.value.last_epoch == 1

    def test_mid_collective_death_detected(self):
        plan = FaultPlan(worker=0, point="mid_collective", action="die", epoch=0)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashed) as ei:
            with MultiprocTrainer(_spec(faults=(plan,)), timeout=120) as mpt:
                mpt.train(1)
        assert time.monotonic() - t0 < 30
        assert ei.value.worker_id == 0

    def test_worker_exception_carries_original_traceback(self):
        plan = FaultPlan(worker=1, point="pre_barrier", action="raise", epoch=0)
        with pytest.raises(WorkerFailed, match="InjectedFault") as ei:
            with MultiprocTrainer(_spec(faults=(plan,)), timeout=60) as mpt:
                mpt.train(1)
        err = ei.value
        assert err.worker_id == 1
        assert err.traceback_text and "injected fault at pre_barrier" in err.traceback_text
        # the worker's traceback rides along in the rendered message
        assert "injected fault at pre_barrier" in str(err)

    def test_corrupted_payload_raises_at_read_time(self):
        plan = FaultPlan(worker=0, point="pre_barrier", action="corrupt", epoch=1)
        with pytest.raises(PayloadCorruption, match="multiproc runtime failed"):
            with MultiprocTrainer(_spec(faults=(plan,)), timeout=60) as mpt:
                mpt.train(3)

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_hung_worker_trips_the_bus_deadline(self, transport):
        """A worker wedged mid-collective is reported by the peer waiting on
        it at the bus, within the one ``timeout`` on either transport."""
        plan = FaultPlan(worker=1, point="mid_collective", action="hang", epoch=1)
        t0 = time.monotonic()
        with pytest.raises(BarrierTimeout) as ei:
            with MultiprocTrainer(
                _spec(faults=(plan,)), timeout=2, transport=transport
            ) as mpt:
                mpt.train(3)
        elapsed = time.monotonic() - t0
        assert elapsed < 15, f"wedge detection took {elapsed:.1f}s"
        assert _HUNG_PEER[transport] in str(ei.value)
        assert ei.value.last_epoch == 1

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_hung_worker_under_overlap_with_inflight_prefetch(self, transport):
        """Wedge detection while the overlap schedule holds in-flight
        prefetch handles across the hang point: the bus deadline ends the
        wait, and the message reports every worker's last-seen heartbeat
        age and last completed epoch (the straggler table)."""
        plan = FaultPlan(worker=1, point="mid_collective", action="hang", epoch=1)
        t0 = time.monotonic()
        with pytest.raises(BarrierTimeout) as ei:
            with MultiprocTrainer(
                _spec(faults=(plan,), overlap=True), timeout=2, transport=transport
            ) as mpt:
                mpt.train(3)
        elapsed = time.monotonic() - t0
        assert elapsed < 15, f"wedge detection took {elapsed:.1f}s"
        assert ei.value.last_epoch == 1
        msg = str(ei.value)
        assert _HUNG_PEER[transport] in msg
        assert "per-worker liveness" in msg
        assert "last heartbeat" in msg and "last completed epoch" in msg

    @pytest.mark.parametrize(
        "workers,epochs", [(1, 1), (2, 2)], ids=["one-worker", "two-workers-last-epoch"]
    )
    def test_a_wedged_worker_no_peer_waits_on_is_named(self, workers, epochs):
        """No peer waits at the bus on a worker wedged after its last
        epoch (or on the only worker): the launcher names it once it has
        sent nothing for 2 x timeout."""
        hung = workers - 1
        plan = FaultPlan(worker=hung, point="post_epoch", action="hang", epoch=epochs - 1)
        t0 = time.monotonic()
        with pytest.raises(BarrierTimeout) as ei:
            with MultiprocTrainer(
                _spec(faults=(plan,), workers=workers), timeout=2
            ) as mpt:
                mpt.train(epochs)
        elapsed = time.monotonic() - t0
        assert elapsed < 2 * 2 + 10, f"wedge detection took {elapsed:.1f}s"
        assert ei.value.worker_id == hung
        assert "per-worker liveness" in str(ei.value)

    def test_corrupt_trips_crc_on_overflow_segment(self, monkeypatch):
        """A 4 KiB mailbox forces every exchange through overflow segments;
        the flipped byte must trip the CRC on that path too."""
        monkeypatch.setattr(launch, "DEFAULT_MAILBOX_BYTES", 4096)
        plan = FaultPlan(worker=0, point="pre_barrier", action="corrupt", epoch=1)
        with pytest.raises(PayloadCorruption, match="multiproc runtime failed"):
            with MultiprocTrainer(_spec(faults=(plan,)), timeout=60) as mpt:
                mpt.train(3)

    def test_fault_plan_validation(self, monkeypatch):
        with pytest.raises(ValueError, match="pre_barrier"):
            FaultPlan(worker=0, point="post_epoch", action="corrupt")
        with pytest.raises(ValueError, match="point"):
            FaultPlan(worker=0, point="nowhere")
        with pytest.raises(ValueError, match="action"):
            FaultPlan(worker=0, point="post_epoch", action="explode")
        # a plan that could never fire on the pool: refused before any spawn
        spawned = []
        monkeypatch.setattr(MultiprocTrainer, "_spawn_pool", lambda self: spawned.append(self))
        for plan in (
            FaultPlan(worker=2, point="post_epoch"),
            FaultPlan(worker=-1, point="post_epoch"),
            FaultPlan(worker=0, point="post_epoch", epoch=-1),
            FaultPlan(worker=0, point="pre_barrier", exchange=-1),
        ):
            with pytest.raises(ValueError, match="never fires on 2 workers"):
                MultiprocTrainer(_spec(faults=(plan,)), timeout=60)
        assert spawned == []

    def test_nan_loss_is_no_desync(self):
        """A NaN loss has the same bits on every worker: the pool returns it
        like the in-process run instead of reporting an SPMD divergence."""
        spec = _spec()
        spec.features[0, 0] = np.nan
        want = build_trainer(spec, backend="inproc").train(2)
        with MultiprocTrainer(spec, timeout=60) as mpt:
            got = mpt.train(2)
        assert np.isnan(want.losses).all()

        def bits(result) -> bytes:
            return np.array([astuple(e) for e in result.epochs]).tobytes()

        assert bits(got) == bits(want)

    def test_every_worker_answers_state(self):
        with MultiprocTrainer(_spec(), timeout=60) as mpt:
            assert mpt.state()["load_reports"] == [None, None]

    def test_an_echo_waits_for_the_death_behind_it(self):
        """A dead worker's EOF can reach the launcher milliseconds after a
        peer's report that it lost that worker: the launcher reports the
        death, not the echo.  (No spawn: pipes stand in for the two
        workers' control connections, and worker 1's closes 50 ms after
        worker 0 reported losing it.)"""
        import threading
        from collections import deque
        from multiprocessing import Pipe

        launcher_ends, worker_ends = zip(Pipe(), Pipe())
        mpt = MultiprocTrainer.__new__(MultiprocTrainer)
        mpt.__dict__.update(
            workers=2, _closed=True, _collector=None, _bus=None,
            _conns=list(launcher_ends), _procs=[None, None], _gone=set(),
            _inbox=[deque(), deque()], _heard=[0.0, 0.0], _worker_epoch=[3, 3],
        )
        worker_ends[0].send(("error", {
            "worker": 0, "etype": "BarrierTimeout", "traceback": "",
            "message": "tcp rendezvous with worker 1 failed: connection lost",
        }))
        closer = threading.Timer(0.05, worker_ends[1].close)
        closer.start()
        try:
            with pytest.raises(WorkerCrashed) as info:
                mpt._replies(60)
        finally:
            closer.join(5)
            worker_ends[0].close()
        assert (info.value.worker_id, info.value.last_epoch) == (1, 3)


class TestResume:
    def test_cold_start_resume_from_checkpoint_dir(self, baseline, tmp_path):
        """A brand-new pool continues the job from the newest checkpoint in
        the directory, bitwise — and returns the whole job's stats, the
        resumed epochs' from the manifest."""
        overlap, losses, state = baseline
        spec = _spec(overlap=overlap)
        with MultiprocTrainer(spec, timeout=60) as mpt:
            head = train_to(mpt, 3, tmp_path).losses
        assert head == losses[:3]
        # one link-key space: a key is its group's global ranks, so worker
        # 0 (ranks 0-3) holds its planes' X / Y links and every Z link, the
        # workers' X / Y keys are disjoint, their Z keys equal, and the
        # union is what the whole cube holds in process
        w0, w1 = (set(st["links"]) for st in _slice_states(latest_checkpoint(tmp_path)[1]))
        assert sorted(w0) == ["0-1", "0-2", "0-4", "1-3", "1-5", "2-3", "2-6", "3-7"]
        assert w0 & w1 == {"0-4", "1-5", "2-6", "3-7"}
        whole = build_trainer(spec, backend="inproc")
        whole.train(1)
        assert w0 | w1 == set(whole.model.cluster.store.links) and len(w0 | w1) == 12
        with MultiprocTrainer(spec, timeout=60) as mpt:
            loaded, trained = [], []
            load, train = mpt.load_checkpoint, mpt.train

            def spied_load(path) -> dict:
                manifest = load(path)
                loaded.append(manifest["epoch"])
                return manifest

            def spied_train(n):
                trained.append(n)
                return train(n)

            mpt.load_checkpoint, mpt.train = spied_load, spied_train
            assert train_to(mpt, EPOCHS, tmp_path).losses == losses
            # it resumed: loaded the epoch-3 checkpoint and trained the rest
            assert loaded == [3] and trained == [1] * (EPOCHS - 3)
            assert mpt.epochs_done == EPOCHS
            _state_equal(state, mpt.state())

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
    def test_checkpoints_cross_backends(self, tmp_path, opts):
        """An inproc-written checkpoint boots a multiproc pool (reassembled
        and re-sliced) and vice versa, bitwise to the uninterrupted run —
        under overlap with link reservations past the boundary and, where
        the schedule has one, the cross-epoch F0 prefetch in flight."""
        spec = _spec(**opts)
        ref = build_trainer(spec, backend="inproc")
        losses = ref.train(EPOCHS).losses
        want = ckpt.capture_books(ref.model)
        in_flight = opts.get("overlap", False) and not opts.get("trainable_features", False)

        # inproc -> multiproc
        saver = build_trainer(spec, backend="inproc")
        saver.train(2)
        assert (saver.model._f0_pending is not None) == in_flight
        path = saver.save_checkpoint(tmp_path / "a", epoch=2)
        with MultiprocTrainer(spec, timeout=60) as mpt:
            assert mpt.load_checkpoint(path)["epoch"] == 2
            assert mpt.train(EPOCHS - 2).losses == losses[2:]
            _state_equal(want, mpt.state())

        # multiproc -> inproc
        with MultiprocTrainer(spec, timeout=60) as mpt:
            mpt.train(3)
            path = mpt.save_checkpoint(tmp_path / "b", epoch=3)
        assert all((st["pending_f0"] is not None) == in_flight for st in _slice_states(path))
        resumed = build_trainer(spec, backend="inproc")
        assert resumed.load_checkpoint(path)["epoch"] == 3
        assert resumed.train(EPOCHS - 3).losses == losses[3:]
        got = ckpt.capture_books(resumed.model)
        _state_equal(want, got)
        assert got["links"] == want["links"]

    def test_overlap_checkpoint_reslices_across_worker_layouts(self, tmp_path):
        """X2Y2Z4 under overlap, prefetch in flight: a 2-worker pool's
        checkpoint boots a 4-worker pool, whose checkpoint boots the
        in-process trainer — each bitwise on the uninterrupted run."""
        spec = _spec(cfg=GridConfig(2, 2, 4), overlap=True)
        ref = build_trainer(spec, backend="inproc")
        losses = ref.train(EPOCHS).losses
        want = ckpt.capture_books(ref.model)
        with MultiprocTrainer(spec, timeout=60) as mpt:
            mpt.train(2)
            path = mpt.save_checkpoint(tmp_path, epoch=2)
        states = _slice_states(path)
        assert [(st["lo"], st["hi"]) for st in states] == [(0, 8), (8, 16)]
        assert all(st["pending_f0"] is not None for st in states)
        with MultiprocTrainer(replace(spec, workers=4), timeout=60) as mpt:
            mpt.load_checkpoint(path)
            assert mpt.epochs_done == 2
            assert mpt.train(2).losses == losses[2:4]
            path = mpt.save_checkpoint(tmp_path, epoch=4)
        assert latest_checkpoint(tmp_path) == (4, path) and len(_slice_states(path)) == 4
        resumed = build_trainer(spec, backend="inproc")
        resumed.load_checkpoint(path)
        assert resumed.train(EPOCHS - 4).losses == losses[4:]
        _state_equal(want, ckpt.capture_books(resumed.model))

    def test_refused_checkpoint_is_typed_across_the_control_pipe(self, tmp_path):
        """A version-1 slice file is refused by the worker that reads it,
        and the refusal reaches the caller as ``CheckpointError`` with the
        worker's traceback — the error ``load_checkpoint`` raises in process."""
        spec = _spec()
        with MultiprocTrainer(spec, timeout=60) as mpt:
            mpt.train(1)
            path = mpt.save_checkpoint(tmp_path, epoch=1)
        for file in path.glob("worker-*.pkl"):
            file.write_bytes(pickle.dumps({**pickle.loads(file.read_bytes()), "format": 1}))
        with MultiprocTrainer(spec, timeout=60) as mpt:
            with pytest.raises(CheckpointError, match="format 1 != supported 2") as ei:
                mpt.load_checkpoint(path)
        assert ei.value.worker_id in (0, 1)
        assert "load_checkpoint" in ei.value.traceback_text
        with pytest.raises(CheckpointError, match="format 1 != supported 2"):
            build_trainer(spec, backend="inproc").load_checkpoint(path)

    @pytest.mark.parametrize("backend", ["inproc", "multiproc"])
    def test_mismatched_checkpoint_refused(self, tmp_path, backend):
        """A checkpoint of another world or other layer dims is refused by
        the one manifest check, on either backend, before any state moves."""
        spec = _spec()
        with MultiprocTrainer(spec, timeout=60) as mpt:
            train_to(mpt, 1, tmp_path)
        for other in (
            _spec(cfg=GridConfig(2, 2, 4)),  # world 16
            replace(spec, layer_dims=[DIMS[0], 24, DIMS[-1]]),
        ):
            with _TRAINERS[backend](other) as trainer:
                with pytest.raises(CheckpointError, match="world=8, dims=.* this workload is"):
                    train_to(trainer, 2, tmp_path)
