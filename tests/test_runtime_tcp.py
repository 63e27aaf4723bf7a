"""The tcp worker fabric: parity, rendezvous protocol, network chaos.

Spawn-heavy: runs in its own CI step under a hard timeout, deselected from
tier-1.  Acceptance for ``transport="tcp"``:

* **parity** — over loopback the socket transport is **bitwise identical**
  to both the shared-memory bus and the inproc oracle (losses, weights,
  per-rank clocks, phase totals): ``tests/test_differential.py`` draws the
  workloads, this file keeps the tcp-only seams (train() chunks across a
  prefetch, the ``train_plexus`` entry point);
* **rendezvous integrity** — workers peer-connect only off a membership
  manifest HMAC-signed with the session key; a tampered manifest is a
  typed refusal, and stale port files of dead launchers are swept by the
  same pid-liveness rule as the shm segments;
* **network chaos** — each injected fault either recovers transparently
  (``drop_conn`` reconnects and resumes mid-epoch, ``delay`` before the
  sends shifts wall time only: both bitwise-identical) or surfaces a typed
  exception naming the peer well inside the configured deadline
  (``corrupt`` trips the frame CRC, ``partition`` exhausts the bounded
  retry budget); no failure may ride to the 120 s barrier timeout;
* **recovery** — with checkpointing on, a partition mid-training restores
  the epoch-boundary checkpoint and replays bitwise-identically;
* **multi-host control plane** — a second launcher (``repro host``) can
  attach workers through the published port file and the pool trains
  normally with a remote member.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.core import GridConfig, PlexusOptions
from repro.dist import LAPTOP
from repro.errors import (
    BarrierTimeout,
    PayloadCorruption,
    PlexusRuntimeError,
    RendezvousDesync,
    UnsupportedWorkload,
)
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.runtime import (
    FaultPlan,
    MultiprocTrainer,
    WorkloadSpec,
    build_trainer,
    cleanup_orphans,
    cleanup_stale_rendezvous,
    host_workers,
)
from repro.runtime.rendezvous import (
    PORT_FILE_SUFFIX,
    discover_port_file,
    read_port_file,
    signed_manifest,
    verify_manifest,
    write_port_file,
)
from repro.runtime.shm import SHM_PREFIX
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


def _spec(faults=(), **opts):
    a, feats, labels, mask = _dataset()
    return WorkloadSpec(
        config=CFG,
        layer_dims=list(DIMS),
        workers=2,
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


@pytest.fixture(scope="module", params=[False, True], ids=["eager", "overlap"])
def baseline(request):
    """Uninterrupted shm run per schedule: the transport parity reference."""
    overlap = request.param
    with MultiprocTrainer(_spec(overlap=overlap), timeout=60) as mpt:
        result = mpt.train(EPOCHS)
        state = mpt.state()
    return overlap, result, state


class TestTcpParity:
    """tcp over loopback == shm == inproc, bit for bit, at the seams the
    differential test does not draw."""

    def test_train_chunks_keep_inflight_prefetch(self, baseline):
        """Two train() calls across the command boundary: the overlap
        schedule's cross-epoch prefetch rides the tcp frames too."""
        overlap, ref, state = baseline
        if not overlap:
            pytest.skip("the prefetch boundary only exists on overlap")
        with MultiprocTrainer(_spec(overlap=True), timeout=60, transport="tcp") as mpt:
            losses = mpt.train(2).losses + mpt.train(EPOCHS - 2).losses
            assert losses == ref.losses
            _state_equal(state, mpt.state())

    def test_train_plexus_tcp_seam(self):
        """The one-call entry point routes transport='tcp' end to end."""
        from repro import train_plexus

        cfg = GridConfig(2, 1, 4)
        r_in = train_plexus("reddit", gpus=8, epochs=2, config=cfg, seed=0)
        r_tcp = train_plexus(
            "reddit", gpus=8, epochs=2, config=cfg, seed=0,
            backend="multiproc", workers=2, transport="tcp",
        )
        assert r_in.losses == r_tcp.losses
        assert [e.epoch_time for e in r_in.epochs] == [e.epoch_time for e in r_tcp.epochs]

    def test_launcher_validates_tcp_arguments(self):
        with pytest.raises(ValueError, match="transport"):
            MultiprocTrainer(_spec(), transport="carrier-pigeon")
        with pytest.raises(ValueError, match="tcp"):
            MultiprocTrainer(_spec(), rendezvous="127.0.0.1:0")
        with pytest.raises(ValueError, match="tcp"):
            MultiprocTrainer(_spec(), remote_workers=1)
        with pytest.raises(ValueError, match="remote_workers"):
            MultiprocTrainer(_spec(), transport="tcp", remote_workers=3)
        from repro import train_plexus

        with pytest.raises(ValueError, match="multiproc"):
            train_plexus("reddit", epochs=1, transport="tcp")


class TestRendezvousProtocol:
    """The signed-manifest membership and port-file discovery (no spawns)."""

    KEY = b"k" * 32

    def test_manifest_roundtrip(self):
        peers = {0: ("127.0.0.1", 4001), 1: ("127.0.0.1", 4002)}
        blob, sig = signed_manifest(self.KEY, "sess-a", peers)
        info = verify_manifest(self.KEY, blob, sig)
        assert info["session"] == "sess-a"
        assert info["peers"] == {"0": ["127.0.0.1", 4001], "1": ["127.0.0.1", 4002]}

    def test_tampered_manifest_refused(self):
        blob, sig = signed_manifest(self.KEY, "sess-a", {0: ("127.0.0.1", 4001)})
        evil = blob.replace(b"4001", b"4999")
        with pytest.raises(RendezvousDesync, match="signature"):
            verify_manifest(self.KEY, evil, sig)
        with pytest.raises(RendezvousDesync, match="signature"):
            verify_manifest(b"x" * 32, blob, sig)  # wrong session key

    def test_port_file_roundtrip_and_liveness_sweep(self):
        """Port files follow the shm liveness rule: a dead launcher's file
        is stale state, a live sibling's is not."""
        live_session = f"{SHM_PREFIX}{os.getpid()}p{'ab' * 5}"
        live = write_port_file(live_session, "127.0.0.1", 4001, self.KEY)
        import subprocess
        import sys

        dead_pid = int(
            subprocess.run(
                [sys.executable, "-c", "import os; print(os.getpid())"],
                capture_output=True, text=True, check=True,
            ).stdout
        )
        dead_session = f"{SHM_PREFIX}{dead_pid}p{'cd' * 5}"
        dead = write_port_file(dead_session, "127.0.0.1", 4002, self.KEY)
        try:
            assert read_port_file(live) == ("127.0.0.1", 4001, self.KEY)
            assert discover_port_file() == live  # the dead file is ignored
            removed = cleanup_stale_rendezvous()
            assert dead.name in removed and live.name not in removed
            assert not dead.exists() and live.exists()
        finally:
            cleanup_stale_rendezvous(include_live=True)
        assert not live.exists()

    def test_cleanup_orphans_sweeps_stale_port_files_too(self):
        """One call cleans both kinds of leftover launcher state."""
        import subprocess
        import sys

        dead_pid = int(
            subprocess.run(
                [sys.executable, "-c", "import os; print(os.getpid())"],
                capture_output=True, text=True, check=True,
            ).stdout
        )
        stale = write_port_file(f"{SHM_PREFIX}{dead_pid}p{'ef' * 5}", "h", 1, self.KEY)
        removed = cleanup_orphans()
        assert stale.name in removed
        assert not stale.exists()

    def test_discovery_without_live_session_is_typed(self):
        cleanup_stale_rendezvous(include_live=True)
        with pytest.raises(PlexusRuntimeError, match="no live rendezvous"):
            discover_port_file()

    def test_unreadable_port_file_is_typed(self, tmp_path):
        bad = tmp_path / f"x{PORT_FILE_SUFFIX}"
        bad.write_text("{not json")
        with pytest.raises(PlexusRuntimeError, match="unreadable"):
            read_port_file(bad)


class TestNetworkChaos:
    """Injected network faults: transparent-and-bitwise or typed-and-fast."""

    def test_drop_conn_reconnects_and_resumes_bitwise(self, baseline):
        """A dropped peer connection mid-training reconnects under backoff
        and resumes from the interrupted frame seq: same bits, no restart."""
        overlap, ref, state = baseline
        plan = FaultPlan(worker=1, point="pre_barrier", action="drop_conn", epoch=1)
        with MultiprocTrainer(
            _spec(faults=(plan,), overlap=overlap), timeout=60, transport="tcp"
        ) as mpt:
            assert mpt.train(EPOCHS).losses == ref.losses
            _state_equal(state, mpt.state())

    def test_delay_before_sends_is_bitwise_invisible(self, baseline):
        """A ``delay`` at ``pre_barrier`` stalls the exchange's sends: wall
        time only — the simulated clocks and losses cannot move."""
        overlap, ref, state = baseline
        if overlap:
            pytest.skip("one schedule suffices for the delay path")
        plan = FaultPlan(worker=0, point="pre_barrier", action="delay", epoch=1, delay_s=0.3)
        with MultiprocTrainer(_spec(faults=(plan,)), timeout=60, transport="tcp") as mpt:
            assert mpt.train(EPOCHS).losses == ref.losses
            _state_equal(state, mpt.state())

    def test_corrupt_trips_crc_typed(self):
        """The transport-neutral ``corrupt`` flips a byte of the outgoing
        frame: the receiver's CRC check raises, typed and fast."""
        plan = FaultPlan(worker=0, point="pre_barrier", action="corrupt", epoch=1)
        t0 = time.monotonic()
        with pytest.raises(PayloadCorruption, match="multiproc runtime failed") as ei:
            with MultiprocTrainer(
                _spec(faults=(plan,)), timeout=120, transport="tcp"
            ) as mpt:
                mpt.train(3)
        assert time.monotonic() - t0 < 30
        assert "CRC" in str(ei.value) or "crc" in str(ei.value)

    def test_partition_surfaces_typed_error_naming_peer(self):
        """An unrecoverable partition exhausts the bounded retry budget and
        names the unreachable peer — well inside the 120 s barrier
        timeout."""
        plan = FaultPlan(worker=1, point="pre_barrier", action="partition", epoch=1)
        t0 = time.monotonic()
        with pytest.raises(BarrierTimeout, match=r"worker \d") as ei:
            with MultiprocTrainer(
                _spec(faults=(plan,)), timeout=120, transport="tcp"
            ) as mpt:
                mpt.train(3)
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"partition detection took {elapsed:.1f}s"
        # the worker-side report names the unreachable peer and the frame
        # seq where a reconnect would have resumed
        assert "tcp rendezvous with worker" in str(ei.value)
        assert "reconnect attempt" in str(ei.value)
        assert ei.value.last_epoch == 1
        # the launcher's straggler table rides along (satellite acceptance)
        assert "per-worker liveness" in str(ei.value)
        assert "last heartbeat" in str(ei.value)

    def test_partition_recovers_from_checkpoint_bitwise(self, baseline, tmp_path):
        """With checkpointing on, the partition triggers respawn-and-replay
        from the epoch-boundary checkpoint: bitwise-identical final state."""
        overlap, ref, state = baseline
        plan = FaultPlan(worker=1, point="pre_barrier", action="partition", epoch=2)
        with MultiprocTrainer(
            _spec(faults=(plan,), overlap=overlap),
            timeout=60,
            transport="tcp",
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            max_restarts=2,
        ) as mpt:
            result = mpt.train(EPOCHS)
            assert mpt._restarts_used == 1  # the fault fired and recovery ran
            assert result.losses == ref.losses
            _state_equal(state, mpt.state())

    def test_network_actions_require_tcp(self, monkeypatch):
        """A network fault planned on the shm bus is a typed refusal at
        construction — no worker process is ever started; ``corrupt`` is
        one action on both transports (on tcp it trips the frame CRC:
        ``test_corrupt_trips_crc_typed``)."""
        spawned = []
        monkeypatch.setattr(
            MultiprocTrainer, "_spawn_pool", lambda self, *a, **k: spawned.append(a)
        )
        for action in ("drop_conn", "partition"):
            plan = FaultPlan(worker=0, point="pre_barrier", action=action, epoch=0)
            with pytest.raises(UnsupportedWorkload, match=f"'{action}' acts on transport='tcp'"):
                MultiprocTrainer(_spec(faults=(plan,)), timeout=60)
        assert spawned == []
        plan = FaultPlan(worker=0, point="pre_barrier", action="corrupt", epoch=0)
        for transport in ("shm", "tcp"):
            MultiprocTrainer(_spec(faults=(plan,)), timeout=60, transport=transport).close()
        assert len(spawned) == 2


class TestMultiHost:
    """The two-launcher control plane over loopback."""

    def test_remote_worker_attaches_through_port_file(self):
        """A ``repro host`` loop fills the reserved slot via the published
        port file; the mixed-origin pool trains bitwise like the oracle."""
        oracle = build_trainer(_spec(), backend="inproc")
        ref = oracle.train(3).losses
        hosted = {}

        def _host():
            for _ in range(400):  # wait for the primary to publish
                try:
                    path = discover_port_file()
                    break
                except PlexusRuntimeError:
                    time.sleep(0.05)
            else:  # pragma: no cover - primary failed to start
                return
            hosted["served"] = host_workers(
                rendezvous=str(path), workers=1, rediscover_grace=0.5
            )

        th = threading.Thread(target=_host, daemon=True)
        th.start()
        try:
            with MultiprocTrainer(
                _spec(), timeout=60, transport="tcp",
                rendezvous="127.0.0.1:0", remote_workers=1,
            ) as mpt:
                assert mpt.ping() == [0, 1]
                assert mpt.train(3).losses == ref
        finally:
            th.join(timeout=30)
        assert hosted.get("served") == 1
