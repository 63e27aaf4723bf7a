"""The multi-process execution runtime: transport, data, cleanup.

Parity — ``backend="multiproc"`` bitwise equal to ``backend="inproc"`` on
every workload — is ``tests/test_differential.py``'s.  Covered here:

* the runtime's own surface: the z-plane split, the workers'
  spawn environment, the ``train_plexus`` seam, spec validation;
* the sharded data loader feeding the runtime — each worker reads only the
  file blocks holding its own shards' node rows (under a permutation:
  every block, once) and reports per-worker bytes;
* ``evaluate()`` over the bus (shm and tcp): the in-process value, off the
  books, the following epochs bitwise;
* validation of the backend's restrictions before spawning (worker
  counts);
* crash hygiene — a hard-killed worker or a failed build must leave no
  ``/dev/shm`` segment behind;
* pool formation — workers start from small arguments and read the spec
  from their control connection (shm and tcp), and a worker lost before
  its spec is a typed crash, fast;
* tracing: bitwise against an untraced run, merged across processes, and
  the workers' steady-state page-fault budget.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import GridConfig, PlexusOptions, PlexusTrainer
from repro.dist import LAPTOP, PERLMUTTER
from repro.errors import WorkerCrashed
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.graph.shardio import save_sharded
from repro.runtime import (
    FaultPlan,
    MultiprocTrainer,
    WorkloadSpec,
    build_trainer,
    cleanup_orphans,
    worker_slice,
)
from repro.runtime import launch
from repro.runtime.net import POOL_FORMATION_S
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


class TestRuntimeSemantics:
    def test_worker_slice_geometry(self):
        cfg = GridConfig(2, 3, 4)  # plane = 6
        slices = [worker_slice(cfg, 3, w) for w in range(3)]
        assert slices == [(0, 12), (12, 18), (18, 24)]
        assert all((hi - lo) % 6 == 0 for lo, hi in slices)
        with pytest.raises(ValueError, match="workers"):
            worker_slice(cfg, 5, 0)  # more workers than z-planes

    @pytest.mark.skipif(
        not Path("/proc/self/environ").exists(), reason="needs Linux /proc"
    )
    def test_workers_spawn_with_the_allocator_pinned_and_no_thread_variable(self, monkeypatch):
        """The launcher sizes no worker's BLAS/OpenMP pool: a worker is
        spawned with the thread variables the user set and no others (it
        pins BLAS to one thread itself, on importing ``repro``), and with
        glibc's mmap *and* trim thresholds pinned unless the user set one;
        the launcher's own environment is restored."""
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        alloc = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

        def spawned_env(pid: int) -> dict:
            raw = Path(f"/proc/{pid}/environ").read_bytes().decode()
            return dict(kv.split("=", 1) for kv in raw.split("\0") if "=" in kv)

        for name in names + alloc:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")  # the user's choice reaches the workers
        monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "1048576")
        with MultiprocTrainer(_spec(GridConfig(2, 2, 2), workers=2), timeout=60) as mpt:
            for proc in mpt._procs:
                env = spawned_env(proc.pid)
                assert [env.get(n) for n in names] == [None, None, "3"]
                # the mmap threshold is pinned even beside a user's trim
                # threshold: that one alone would freeze it at 128 KiB
                assert [env.get(n) for n in alloc] == [str(32 << 20), "1048576"]
        assert [os.environ.get(n) for n in names] == [None, None, "3"]
        assert [os.environ.get(n) for n in alloc] == [None, "1048576"]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
    def test_a_worker_runs_one_thread_whatever_its_cpu_share(self, tmp_path, monkeypatch):
        """One worker holds every CPU of the launcher's mask as its share,
        and with no thread variable set anywhere its BLAS still runs one
        thread: below every break-even the worker process has one thread,
        its main one (sized by the share, BLAS gave it one per CPU)."""
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        with MultiprocTrainer(_spec(GridConfig(2, 2, 2), workers=1), timeout=60, trace_dir=tmp_path) as mpt:
            mpt.train(1)
            (proc,) = mpt._procs
            assert len(os.listdir(f"/proc/{proc.pid}/task")) == 1
        rows = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        gauges = [r["gauges"] for r in rows if r["process"] == "worker 0"]
        assert gauges and all(g["threads"] == 1 for g in gauges)
        assert gauges[-1]["cpu_share"] == len(os.sched_getaffinity(0))
        assert gauges[-1]["spmm_parts"] == gauges[-1]["gemm_parts"] == 1 and gauges[-1]["pass_parts"] == 0

    @pytest.mark.parametrize(
        "workers, masked", [(1, False), (2, False), (2, True)], ids=["one", "two", "two-on-one-cpu"]
    )
    def test_a_worker_splits_its_spmm_over_its_cpu_share(self, tmp_path, workers, masked):
        """Each worker's CPU share is ``max(1, len(affinity) // W)`` of the
        mask it inherits (``taskset``: the launcher's), and caps its SpMM
        and memory-bound pass splits; a worker whose share is 1 never
        starts a thread.  The
        workload is large enough that a share of up to 7 splits that far."""
        spec = _spec(GridConfig(2, 2, 2), workers, n=1024, dims=[160, 16, 8])
        expected = build_trainer(spec).train(2).losses
        cpus = os.sched_getaffinity(0)
        if masked:
            os.sched_setaffinity(0, {min(cpus)})
        try:
            share = max(1, len(os.sched_getaffinity(0)) // workers)
            with MultiprocTrainer(spec, timeout=60, trace_dir=tmp_path) as mpt:
                assert mpt.train(2).losses == expected
        finally:
            os.sched_setaffinity(0, cpus)
        rows = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        rows = [r for r in rows if r["process"].startswith("worker")]
        assert {r["process"] for r in rows} == {f"worker {w}" for w in range(workers)}
        for row in rows:
            g = row["gauges"]
            assert g["cpu_share"] == share and g["spmm_parts"] == min(share, 7)
            assert g["gemm_parts"] == 1  # its GEMMs stay below break-even
            # its SpMM outputs' zero-fill (2.6 MB) splits; a share of 1 splits no pass
            assert g["pass_parts"] == (share if share > 1 else 0)
            if share == 1:  # only the main thread, across every epoch
                assert g["threads"] == 1

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
    only the file blocks holding its own shards' node rows."""

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

    def _spec_from(self, root, mask, permutation="none"):
        return WorkloadSpec(
            config=self.CFG,
            layer_dims=list(self.DIMS),
            workers=2,
            machine=LAPTOP,
            options=PlexusOptions(seed=0, permutation=permutation),
            train_mask=mask,
            shard_dir=str(root),
        )

    def test_each_worker_reads_only_its_own_blocks(self, tmp_path):
        _, _, _, mask, root = self._save(tmp_path)
        total_files = len(list(root.glob("*.np[yz]")))
        total_bytes = sum(p.stat().st_size for p in root.glob("*.np[yz]"))
        with MultiprocTrainer(self._spec_from(root, mask), timeout=60) as mpt:
            mpt.train(1)
            reports = mpt.state()["load_reports"]
        assert len(reports) == 2 and all(r is not None for r in reports)
        for r in reports:
            assert 0 < r.files_read < total_files
            assert 0 < r.bytes_read < total_bytes
        # the single-layer z-block rows partition the file grid exactly:
        # together the workers read each block once, nothing twice
        assert sum(r.files_read for r in reports) == total_files
        assert sum(r.bytes_read for r in reports) == total_bytes

    def test_permuted_workers_read_every_file_once(self, tmp_path):
        """Under the double permutation (the default) a worker's shard rows
        are node ids scattered over every file block: each worker reads
        every file exactly once — no block twice, however many of its ids
        the block holds."""
        _, _, _, mask, root = self._save(tmp_path)
        files = list(root.glob("*.np[yz]"))
        with MultiprocTrainer(self._spec_from(root, mask, "double"), timeout=60) as mpt:
            mpt.train(1)
            reports = mpt.state()["load_reports"]
        for r in reports:
            assert r.files_read == len(files)
            assert r.bytes_read == sum(p.stat().st_size for p in files)


def _session_segments() -> list[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        pytest.skip("no /dev/shm on this platform")
    return [p.name for p in shm.glob(SHM_PREFIX + "*")]


class TestCrashCleanup:
    """No leaked /dev/shm blocks after a failed run (satellite acceptance)."""

    def test_worker_crash_releases_segments(self):
        spec = _spec(GridConfig(2, 2, 2), workers=2)
        spec.faults = (FaultPlan(worker=0, point="pre_barrier", action="die"),)
        mpt = MultiprocTrainer(spec, timeout=15)
        try:
            assert _session_segments()  # the session's mailboxes exist
            with pytest.raises(WorkerCrashed, match="multiproc runtime failed"):
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


class TestPoolFormation:
    """A worker starts from its id and a way to reach the launcher; the
    spec rides the control connection, so ``start()`` never waits for a
    child's imports and a pool forms in about one worker import."""

    @staticmethod
    def _patch_start(monkeypatch, after=None) -> list[tuple]:
        """Record the argument tuple of every process the launcher starts
        (``after(procs)`` runs once they are started)."""
        started: list[tuple] = []
        real = launch._start_workers

        def start(procs, ctx, target, args_of, *rest, **kw):
            started.extend(args_of)
            real(procs, ctx, target, args_of, *rest, **kw)
            if after is not None:
                after(procs)

        monkeypatch.setattr(launch, "_start_workers", start)
        return started

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_spawn_arguments_stay_small(self, transport, monkeypatch):
        spec = _spec(GridConfig(2, 2, 2), workers=2, n=1024, dims=[160, 16, 8])
        assert len(pickle.dumps(spec)) > 1 << 20
        expected = build_trainer(spec).train(2).losses
        started = self._patch_start(monkeypatch)
        with MultiprocTrainer(spec, timeout=60, transport=transport) as mpt:
            assert mpt.train(2).losses == expected
        assert len(started) == 2
        for args in started:
            size = len(pickle.dumps(args))
            assert size < 4 << 10, (args, size)

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_worker_lost_before_its_spec_is_a_crash(self, transport, monkeypatch):
        self._patch_start(monkeypatch, after=lambda procs: procs[1].kill())
        spec = _spec(GridConfig(2, 2, 2), workers=2)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashed) as info:
            MultiprocTrainer(spec, timeout=60, transport=transport)
        assert info.value.worker_id == 1
        assert time.monotonic() - t0 < POOL_FORMATION_S / 6
        assert _session_segments() == []
        assert cleanup_orphans() == []

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_trace_summary_times_each_workers_formation(self, transport, tmp_path):
        """A slow spawn is visible from the trace directory alone: one
        pool-formation line with each worker's import and build seconds."""
        import re

        from repro.obs import summarize_trace_dir

        with MultiprocTrainer(
            _spec(GridConfig(2, 2, 2), workers=2), timeout=60, transport=transport,
            trace_dir=tmp_path,
        ) as mpt:
            mpt.train(1)
        cell = r"import \d+\.\d\d build \d+\.\d\d"
        line = rf"  pool 1 \(2 workers, {transport}\): worker 0 {cell}, worker 1 {cell}$"
        assert re.search(line, summarize_trace_dir(tmp_path), re.M)


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
        assert {"launcher.hello", "launcher.spec", "launcher.ready"} <= names
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
