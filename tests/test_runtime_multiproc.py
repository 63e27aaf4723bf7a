"""The multi-process execution runtime: parity, transport, data, cleanup.

Acceptance for ``repro.runtime``: ``backend="multiproc"`` — the model
sharded across OS worker processes over the shared-memory transport — must
produce **bitwise-identical** losses, weights, per-rank clocks, and phase
totals to ``backend="inproc"`` (the parity oracle) on every sharding —
divisible or padded, with rows that tile the Z groups unevenly — eager and
overlap schedules alike, ``max_inflight`` bounds on intra- and inter-node Z
links included.  Also covered:

* the rendezvous transport (mailbox overflow path, uneven z-plane splits,
  single-worker degenerate bus, tcp);
* the sharded data loader feeding the runtime — each worker reads only the
  file blocks of its own shard rows, reports per-worker bytes, and
  round-trips bitwise with in-memory loading;
* ``evaluate()`` over the bus (shm and tcp): the in-process value, off the
  books, the following epochs bitwise;
* the SpMM noise model: per-rank draws keyed by identity, so every backend
  and every worker count charges the in-process kernel times;
* validation of the backend's restrictions before spawning (worker
  counts);
* crash hygiene — a hard-killed worker or a failed build must leave no
  ``/dev/shm`` segment behind.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer
from repro.dist import LAPTOP, PERLMUTTER, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.graph.shardio import save_sharded
from repro.runtime import (
    MultiprocTrainer,
    WorkloadSpec,
    build_trainer,
    cleanup_orphans,
    worker_slice,
)
from repro.runtime.shm import SHM_PREFIX
from repro.sparse.ops import gcn_normalize

N_NODES = 48
DIMS = [16, 16, 8]


def _dataset(n=N_NODES, dims=DIMS, dtype=np.float64):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
    feats = synth_features(n, dims[0], seed=2).astype(dtype)
    labels = degree_labels(a, dims[-1], seed=3)
    mask, _, _ = random_split_masks(n, seed=4)
    return a, feats, labels, mask


def _spec(cfg, workers, n=N_NODES, dims=DIMS, machine=LAPTOP, **opts):
    a, feats, labels, mask = _dataset(n, dims, opts.get("compute_dtype") or np.float64)
    return WorkloadSpec(
        config=cfg,
        layer_dims=list(dims),
        workers=workers,
        machine=machine,
        options=PlexusOptions(seed=0, **opts),
        adjacency=a,
        features=feats,
        labels=labels,
        train_mask=mask,
    )


def _inproc_state(trainer: PlexusTrainer) -> dict:
    model = trainer.model
    store = model.cluster.store
    weights = {f"W{i}": np.asarray(l.w_stack) for i, l in enumerate(model.layers)}
    return {
        "clocks": store.clocks.copy(),
        "by_phase": {k: v.copy() for k, v in store.by_phase.items()},
        "by_category": {k: v.copy() for k, v in store.by_category.items()},
        "weights": weights,
    }


def _assert_states_equal(inproc: dict, multi: dict) -> None:
    assert np.array_equal(inproc["clocks"], multi["clocks"])
    for key in ("by_phase", "by_category"):
        assert set(inproc[key]) == set(multi[key])
        for label, vec in inproc[key].items():
            assert np.array_equal(vec, multi[key][label]), label
    assert set(inproc["weights"]) == set(multi["weights"])
    for name, w in inproc["weights"].items():
        assert np.array_equal(w, multi["weights"][name]), name


def _run_both(
    cfg, workers, epoch_chunks=(2, 2), mailbox_bytes=8 << 20, transport="shm", **opts
):
    """Train the same workload on both backends; return everything."""
    spec = _spec(cfg, workers, **opts)
    inproc = build_trainer(spec, backend="inproc")
    results_in = [inproc.train(e) for e in epoch_chunks]
    with MultiprocTrainer(
        spec, mailbox_bytes=mailbox_bytes, timeout=60, transport=transport
    ) as mpt:
        results_mp = [mpt.train(e) for e in epoch_chunks]
        state_mp = mpt.state()
    return inproc, results_in, results_mp, state_mp


def _check(cfg, workers, **kw):
    """Both backends on one workload: losses, epoch breakdowns, clocks, phase
    totals and weights bitwise equal; returns the in-process model."""
    inproc, r_in, r_mp, st = _run_both(cfg, workers, **kw)
    for a, b in zip(r_in, r_mp):
        assert a.losses == b.losses
        for ea, eb in zip(a.epochs, b.epochs):
            assert (ea.loss, ea.epoch_time, ea.comm_time, ea.comp_time) == (
                eb.loss,
                eb.epoch_time,
                eb.comm_time,
                eb.comp_time,
            )
    _assert_states_equal(_inproc_state(inproc), st)
    return inproc.model


class TestMultiprocParity:
    """The acceptance criterion: bitwise-identical to the inproc oracle."""

    def test_eager(self):
        _check(GridConfig(2, 2, 2), workers=2)

    def test_overlap_schedules(self):
        """W prefetch, the dH/SpMM pipeline and the cross-epoch F prefetch
        all ride the shm transport; two train() calls keep an in-flight
        prefetch across the command boundary."""
        _check(GridConfig(2, 2, 2), workers=2, overlap=True)

    def test_overlap_blocked_and_bounded(self):
        """Blocked aggregation + max_inflight (intra-node Z on LAPTOP)
        compose with the replicated queue state."""
        _check(
            GridConfig(2, 2, 2),
            workers=2,
            overlap=True,
            aggregation_blocks=2,
            max_inflight=1,
        )

    @pytest.mark.parametrize(
        "schedule", [{}, {"overlap": True, "aggregation_blocks": 2}], ids=["eager", "overlap-blocked"]
    )
    def test_spmm_noise_is_identical_on_every_backend(self, schedule):
        """A noise draw is a function of (seed, global rank, step, layer,
        pass, block): a worker draws exactly its ranks' values, so one
        worker, two workers and either transport charge the in-process
        kernel times — epochs, clocks and phase totals bitwise."""
        from dataclasses import replace

        from repro.core.noise import SpmmNoise

        cfg = GridConfig(2, 2, 2)
        spec = _spec(cfg, 2, noise=SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11), **schedule)
        inproc = build_trainer(spec, backend="inproc")
        r_in = inproc.train(3)
        expected = _inproc_state(inproc)
        quiet = build_trainer(_spec(cfg, 2, **schedule), backend="inproc")
        assert quiet.train(3).losses == r_in.losses  # noise moves clocks only
        assert not np.array_equal(expected["clocks"], _inproc_state(quiet)["clocks"])
        for workers, transport in ((1, "shm"), (2, "shm"), (2, "tcp")):
            pool = replace(spec, workers=workers)
            with MultiprocTrainer(pool, timeout=60, transport=transport) as mpt:
                assert mpt.train(3).epochs == r_in.epochs, (workers, transport)
                _assert_states_equal(expected, mpt.state())

    def test_uneven_plane_split(self):
        """Gz=4 over 3 workers: quasi-equal plane chunks (2+1+1)."""
        _check(GridConfig(1, 2, 4), workers=3)

    def test_mailbox_overflow_path(self):
        """A 4 KiB mailbox forces every exchange through overflow segments
        — same bits, and nothing leaks."""
        _check(GridConfig(2, 2, 2), workers=2, epoch_chunks=(2,), mailbox_bytes=4096)

    def test_float32_benchmark_mode(self):
        _check(GridConfig(2, 2, 2), workers=2, epoch_chunks=(2,), compute_dtype=np.float32)


class TestPaddedParity:
    """Indivisible sharding crosses the bus: padded stacks and unevenly
    tiling rows, bitwise equal to in-process like every other workload."""

    @pytest.mark.parametrize(
        "schedule",
        [{}, {"overlap": True, "aggregation_blocks": 2, "max_inflight": 1}],
        ids=["eager", "overlap-blocked-bounded"],
    )
    def test_padded_rows(self, schedule):
        """X2Y2Z2, N=49: layer 0's A rows split 25 / 24 along Z, so worker
        0's products fill their pad and worker 1's do not — the Z plans come
        from the global extents the frames carry, not from either slice."""
        model = _check(GridConfig(2, 2, 2), workers=2, n=49, **schedule)
        assert model.f0_stack.rows is not None

    @pytest.mark.parametrize("schedule", [{}, {"overlap": True}], ids=["eager", "overlap"])
    def test_uneven_tiling_over_three_workers(self, schedule):
        """X1Y2Z4, N=50, dims 10-9-9-5 on 2+1+1 planes: the W gathers' Z
        rows (2, 1, 1, 1) arrive in three chunks, and worker 0's own F0
        rows (13, 13) fill the pad that workers 1 and 2 (12) do not."""
        model = _check(GridConfig(1, 2, 4), workers=3, n=50, dims=[10, 9, 9, 5], **schedule)
        assert model.f0_stack.rows is not None

    def test_padded_rows_over_tcp(self):
        model = _check(GridConfig(2, 2, 2), workers=2, n=49, transport="tcp", overlap=True)
        assert model.f0_stack.rows is not None


class TestInterNodeBoundedParity:
    """``max_inflight`` on inter-node Z links (PERLMUTTER: 4 GPUs per node,
    so the Z groups of X2Y2Z2 join ranks ``r`` and ``r + 4`` across two
    nodes): the bound is per link, so a Z link's queue is replicated in every
    worker like its busy-until time, and the pool trains bitwise like
    in-process.  The overlap cases lift issues on those links (layer 1's
    x-role is Z: its per-block all-reduces queue there)."""

    @pytest.mark.parametrize(
        "schedule",
        [
            {"max_inflight": 1},
            {"max_inflight": 1, "overlap": True, "aggregation_blocks": 2},
            {"max_inflight": 2, "overlap": True, "aggregation_blocks": 3},
        ],
        ids=["eager-1", "overlap-blocked-1", "overlap-blocked-2"],
    )
    def test_shm(self, schedule):
        _check(GridConfig(2, 2, 2), workers=2, machine=PERLMUTTER, **schedule)

    def test_tcp(self):
        _check(
            GridConfig(2, 2, 2), workers=2, machine=PERLMUTTER, transport="tcp",
            max_inflight=1, overlap=True, aggregation_blocks=2,
        )


class TestRuntimeSemantics:
    def test_worker_slice_geometry(self):
        cfg = GridConfig(2, 3, 4)  # plane = 6
        slices = [worker_slice(cfg, 3, w) for w in range(3)]
        assert slices == [(0, 12), (12, 18), (18, 24)]
        assert all((hi - lo) % 6 == 0 for lo, hi in slices)
        with pytest.raises(ValueError, match="workers"):
            worker_slice(cfg, 5, 0)  # more workers than z-planes

    def test_reset_and_retrain(self):
        """reset() zeroes every worker's timeline; a fresh run then matches
        a fresh inproc run from epoch zero."""
        spec = _spec(GridConfig(2, 2, 2), workers=2)
        inproc = build_trainer(spec, backend="inproc")
        first = inproc.train(2).losses
        with MultiprocTrainer(spec, timeout=60) as mpt:
            assert mpt.train(2).losses == first
            mpt.reset()
            st = mpt.state()
            assert st["clocks"].max() == 0.0
            assert not st["by_phase"]

    @pytest.mark.skipif(
        not Path("/proc/self/environ").exists(), reason="needs Linux /proc"
    )
    def test_workers_spawn_with_their_share_of_blas_threads(self, monkeypatch):
        """W workers on C cores start with ``C // W`` BLAS/OpenMP threads
        each (not ``C`` each: W x C threads on C cores) and with glibc's
        mmap *and* trim thresholds pinned, unless the user set a variable;
        the launcher's own environment is restored."""
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        alloc = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

        def spawned_env(pid: int) -> dict:
            raw = Path(f"/proc/{pid}/environ").read_bytes().decode()
            return dict(kv.split("=", 1) for kv in raw.split("\0") if "=" in kv)

        for name in names + alloc:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")  # the user's choice wins
        monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "1048576")
        share = str(max(1, (os.cpu_count() or 1) // 2))
        with MultiprocTrainer(_spec(GridConfig(2, 2, 2), workers=2), timeout=60) as mpt:
            for proc in mpt._procs:
                env = spawned_env(proc.pid)
                assert [env.get(n) for n in names] == [share, share, "3"]
                # the mmap threshold is pinned even beside a user's trim
                # threshold: that one alone would freeze it at 128 KiB
                assert [env.get(n) for n in alloc] == [str(32 << 20), "1048576"]
        assert [os.environ.get(n) for n in names] == [None, None, "3"]
        assert [os.environ.get(n) for n in alloc] == [None, "1048576"]

    @pytest.mark.parametrize(
        "schedule", [{}, {"overlap": True, "aggregation_blocks": 2}], ids=["eager", "overlap-blocked"]
    )
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_evaluate_matches_inproc_off_the_books(self, transport, workers, schedule):
        """``evaluate()`` crosses the bus like every other Z collective: the
        in-process value, ``state()`` untouched by the call (under overlap a
        cross-epoch F0 prefetch is in flight across it), and the epochs
        after it still bitwise equal to in-process."""
        spec = _spec(GridConfig(2, 1, 4), workers, **schedule)
        _, val_mask, _ = random_split_masks(N_NODES, seed=4)
        inproc = build_trainer(spec, backend="inproc")
        inproc.train(2)
        expected = inproc.evaluate(val_mask)
        r_in = inproc.train(2)
        with MultiprocTrainer(spec, timeout=60, transport=transport) as mpt:
            mpt.train(2)
            before = mpt.state()
            assert mpt.evaluate(val_mask) == expected
            _assert_states_equal(before, mpt.state())
            r_mp = mpt.train(2)
            _assert_states_equal(_inproc_state(inproc), mpt.state())
        assert r_mp.epochs == r_in.epochs

    def test_launcher_rejects_unsupported_workloads(self):
        with pytest.raises(ValueError, match="workers"):
            MultiprocTrainer(_spec(GridConfig(2, 2, 2), 4))
        with pytest.raises(ValueError, match="backend"):
            build_trainer(_spec(GridConfig(2, 2, 2), 2), backend="gpu")

    def test_train_plexus_backend_seam(self):
        """The one-call entry point routes through the runtime: same losses
        and epoch times from both backends on the configuration the
        performance model picks — for reddit's 41 classes a padded one."""
        from repro import select_best_config, train_plexus
        from repro.core import axis_roles
        from repro.graph import load_dataset

        ds = load_dataset("reddit", scale="tiny", seed=0)
        dims = [ds.n_features, 64, 64, ds.n_classes]
        cfg = select_best_config(8, ds.paper_stats, dims, PERLMUTTER)[0][0]
        assert ds.n_classes % cfg.size(axis_roles(len(dims) - 2).x)  # the logits are padded
        r_in = train_plexus("reddit", gpus=8, epochs=2, seed=0)
        r_mp = train_plexus("reddit", gpus=8, epochs=2, seed=0, backend="multiproc", workers=2)
        assert r_in.losses == r_mp.losses
        assert [e.epoch_time for e in r_in.epochs] == [e.epoch_time for e in r_mp.epochs]

    def test_workload_spec_validation(self):
        a, feats, labels, mask = _dataset()
        with pytest.raises(ValueError, match="either"):
            WorkloadSpec(
                config=GridConfig(2, 2, 2), layer_dims=DIMS, workers=2, machine=LAPTOP
            )


class TestShardedLoaderFeedsRuntime:
    """Sec. 5.4 parallel loading drives the worker pool: every worker reads
    only the file blocks overlapping its own shard rows."""

    CFG = GridConfig(2, 1, 2)
    N = 32
    DIMS = [12, 8]  # one layer: the z-block rows partition cleanly

    def _save(self, tmp_path: Path):
        a, feats, labels, mask = _dataset(self.N, self.DIMS)
        root = tmp_path / "shards"
        # the on-disk format holds the *normalized* adjacency (offline
        # preprocessing), which is what the workers feed the model directly
        save_sharded(a, feats, labels, root, grid=(4, 4))
        return a, feats, labels, mask, root

    def _spec_from(self, root, mask, shard_dir=True, a=None, feats=None, labels=None):
        kwargs = dict(shard_dir=str(root)) if shard_dir else dict(
            adjacency=a, features=feats, labels=labels
        )
        return WorkloadSpec(
            config=self.CFG,
            layer_dims=list(self.DIMS),
            workers=2,
            machine=LAPTOP,
            options=PlexusOptions(seed=0, permutation="none"),
            train_mask=mask,
            **kwargs,
        )

    def test_disk_roundtrip_matches_in_memory_bitwise(self, tmp_path):
        a, feats, labels, mask, root = self._save(tmp_path)
        inproc = build_trainer(
            self._spec_from(root, mask, shard_dir=False, a=a, feats=feats, labels=labels),
            backend="inproc",
        )
        losses_in = inproc.train(3).losses
        with MultiprocTrainer(self._spec_from(root, mask), timeout=60) as mpt:
            losses_disk = mpt.train(3).losses
            st = mpt.state()
        assert losses_disk == losses_in
        _assert_states_equal(_inproc_state(inproc), st)
        # one builder: the in-process backend reads the directory through
        # the same loader (every block, for the whole cube)
        disk_inproc = build_trainer(self._spec_from(root, mask), backend="inproc")
        assert disk_inproc.train(3).losses == losses_in
        _assert_states_equal(_inproc_state(inproc), _inproc_state(disk_inproc))

    def test_each_worker_reads_only_its_own_blocks(self, tmp_path):
        _, _, _, mask, root = self._save(tmp_path)
        total_files = len(list(root.glob("*.np[yz]")))
        total_bytes = sum(p.stat().st_size for p in root.glob("*.np[yz]"))
        with MultiprocTrainer(self._spec_from(root, mask), timeout=60) as mpt:
            mpt.train(1)
            reports = mpt.load_reports()
        assert len(reports) == 2 and all(r is not None for r in reports)
        for r in reports:
            assert 0 < r.files_read < total_files
            assert 0 < r.bytes_read < total_bytes
        # the single-layer z-block rows partition the file grid exactly:
        # together the workers read each block once, nothing twice
        assert sum(r.files_read for r in reports) == total_files
        assert sum(r.bytes_read for r in reports) == total_bytes

    def test_padded_shard_dir_workload_matches_in_memory(self, tmp_path):
        """X1Y1Z2 with N=49 puts 25 / 24 rows on two workers whose own
        slices each hold one row extent: worker 1's products, logits
        included, still pad to the whole cube's 25 rows its labels use, so
        the pool reading the directory trains bitwise like the in-process
        in-memory twin."""
        from dataclasses import replace

        n, dims = 49, [12, 8]
        a, feats, labels, mask = _dataset(n, dims)
        root = tmp_path / "shards"
        save_sharded(a, feats, labels, root, grid=(4, 4))
        spec = WorkloadSpec(
            config=GridConfig(1, 1, 2), layer_dims=dims, workers=2, machine=LAPTOP,
            options=PlexusOptions(seed=0, permutation="none"), train_mask=mask,
            shard_dir=str(root),
        )
        twin = replace(spec, shard_dir=None, adjacency=a, features=feats, labels=labels)
        in_memory = build_trainer(twin, backend="inproc")
        assert in_memory.model.label_stack.rows is not None
        losses = in_memory.train(3).losses
        with MultiprocTrainer(spec, timeout=60) as mpt:
            assert mpt.train(3).losses == losses
            _assert_states_equal(_inproc_state(in_memory), mpt.state())

    def test_shard_dir_requires_identity_permutation(self, tmp_path):
        _, _, _, mask, root = self._save(tmp_path)
        spec = self._spec_from(root, mask)
        spec.options = PlexusOptions(seed=0, permutation="double")
        with pytest.raises(RuntimeError, match="permutation"):
            MultiprocTrainer(spec, timeout=60)


def _session_segments() -> list[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        pytest.skip("no /dev/shm on this platform")
    return [p.name for p in shm.glob(SHM_PREFIX + "*")]


class TestCrashCleanup:
    """No leaked /dev/shm blocks after a failed run (satellite acceptance)."""

    def test_worker_crash_releases_segments(self):
        spec = _spec(GridConfig(2, 2, 2), workers=2)
        mpt = MultiprocTrainer(spec, timeout=15)
        try:
            assert _session_segments()  # the session's mailboxes exist
            mpt._crash_worker(0)
            with pytest.raises(RuntimeError, match="multiproc runtime failed"):
                mpt.train(1)
        finally:
            mpt.close()
        assert _session_segments() == []

    def test_failed_build_releases_segments(self, tmp_path):
        spec = WorkloadSpec(
            config=GridConfig(2, 2, 2),
            layer_dims=DIMS,
            workers=2,
            machine=LAPTOP,
            options=PlexusOptions(seed=0, permutation="none"),
            train_mask=np.ones(N_NODES, dtype=bool),
            shard_dir=str(tmp_path / "missing"),
        )
        with pytest.raises(RuntimeError, match="multiproc runtime failed"):
            MultiprocTrainer(spec, timeout=15)
        assert _session_segments() == []

    def test_cleanup_orphans_sweeps_prefix_only(self, tmp_path):
        from multiprocessing.shared_memory import SharedMemory

        orphan = SharedMemory(name=f"{SHM_PREFIX}orphan-test", create=True, size=64)
        orphan.close()
        removed = cleanup_orphans()
        assert f"{SHM_PREFIX}orphan-test" in removed
        assert _session_segments() == []

    def test_cleanup_orphans_spares_live_sibling_sessions(self):
        """The sweep keys liveness off the launcher pid embedded in the
        session id: a concurrently *running* sibling session's segments are
        not orphans and must survive a generic sweep."""
        import subprocess
        import sys

        from multiprocessing.shared_memory import SharedMemory

        _session_segments()  # skip on platforms without /dev/shm
        # pid 1 is alive and is not us: a live sibling launcher
        live_name = f"{SHM_PREFIX}1p{'ab' * 5}-m0"
        live = SharedMemory(name=live_name, create=True, size=64)
        live.close()
        # a pid that has already exited: a genuine orphan
        dead_pid = int(
            subprocess.run(
                [sys.executable, "-c", "import os; print(os.getpid())"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        dead_name = f"{SHM_PREFIX}{dead_pid}p{'cd' * 5}-m0"
        dead = SharedMemory(name=dead_name, create=True, size=64)
        dead.close()
        try:
            removed = cleanup_orphans()
            assert dead_name in removed
            assert live_name not in removed
            assert live_name in _session_segments()
        finally:
            cleanup_orphans(include_live=True)
        assert _session_segments() == []

    def test_cleanup_orphans_leaves_running_pool_functional(self):
        """A generic sweep fired while this process's own pool is live (the
        concurrent-sessions hazard) must not unlink its segments: training
        still works afterwards."""
        spec = _spec(GridConfig(2, 2, 2), workers=2)
        with MultiprocTrainer(spec, timeout=60) as mpt:
            first = mpt.train(1).losses
            assert cleanup_orphans() == []  # our own session: live, spared
            assert _session_segments()  # mailboxes intact
            assert mpt.train(1).losses != first  # pool still trains
        assert _session_segments() == []

    def test_cleanup_orphans_ignores_foreign_prefixes(self):
        """Shared memory that is not ours — whatever the name shape — is
        never touched by the sweep."""
        from multiprocessing.shared_memory import SharedMemory

        _session_segments()  # skip on platforms without /dev/shm
        foreign = SharedMemory(name="plexusx-not-ours", create=True, size=64)
        try:
            removed = cleanup_orphans()
            assert "plexusx-not-ours" not in removed
            assert Path("/dev/shm/plexusx-not-ours").exists()
        finally:
            foreign.close()
            foreign.unlink()


class TestMultiprocTracing:
    """``trace_dir`` must not perturb results and must merge every process."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator")
    def test_workers_do_not_page_fault_in_steady_state(self, tmp_path):
        """Dense uniform layers whose per-epoch temporaries exceed glibc's
        default 128 KiB mmap threshold: with the allocator pinned at spawn,
        every worker reports < 50 minor faults per epoch after warm-up
        (unpinned: thousands), read from the ``minor_faults`` gauge."""
        import json

        from repro.obs import summarize_trace_dir

        warm, epochs = 3, 5
        spec = _spec(GridConfig(4, 4, 4), workers=2, n=768, dims=[96, 96, 96, 96],
                     compute_dtype=np.float32)
        with MultiprocTrainer(spec, timeout=120, trace_dir=tmp_path) as mpt:
            mpt.train(warm + epochs)
        faults: dict[str, dict[int, float]] = {}
        for line in (tmp_path / "metrics.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert {"minor_faults", "major_faults", "max_rss_kb"} <= set(row["gauges"]), row
            faults.setdefault(row["process"], {})[row["epoch"]] = row["gauges"]["minor_faults"]
        assert {"launcher", "worker 0", "worker 1"} <= set(faults)
        for w in ("worker 0", "worker 1"):
            per_epoch = (faults[w][warm + epochs] - faults[w][warm]) / epochs
            assert per_epoch < 50, (w, faults[w])
        assert "worker 1: minor_faults=" in summarize_trace_dir(tmp_path)

    def test_traced_run_bitwise_and_merged(self, tmp_path):
        import json

        from repro.obs import validate_trace_dir

        spec = _spec(GridConfig(2, 2, 2), workers=2)
        with MultiprocTrainer(spec, timeout=60) as plain:
            r_plain = plain.train(2)
        out = tmp_path / "tr"
        with MultiprocTrainer(spec, timeout=60, trace_dir=out) as traced:
            r_traced = traced.train(2)
            state = traced.state()
        for a, b in zip(r_plain.epochs, r_traced.epochs):
            assert (a.loss, a.epoch_time, a.comm_time, a.comp_time) == (
                b.loss, b.epoch_time, b.comm_time, b.comp_time,
            )
        assert validate_trace_dir(out) == []
        doc = json.loads((out / "trace.json").read_text())
        procs = {e["args"]["name"] for e in doc["traceEvents"] if e.get("ph") == "M"}
        assert {"launcher", "worker 0", "worker 1"} <= procs
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"worker.epoch", "forward", "backward", "launcher.train_stretch"} <= names
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert any(
            r["process"].startswith("worker")
            and r["counters"].get("frames_sent", 0) > 0
            for r in rows
        )
        # the exported sim-phase totals equal the pool's assembled buckets
        summary = json.loads((out / "summary.json").read_text())
        for ph, vec in state["by_phase"].items():
            assert np.array_equal(np.asarray(summary["sim_phase_totals"][ph]), vec), ph
