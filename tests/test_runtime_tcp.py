"""The tcp worker fabric: parity, rendezvous protocol, network chaos.

Spawn-heavy: runs in its own CI step under a hard timeout, deselected from
tier-1.  Acceptance for ``transport="tcp"``:

* **parity** — over loopback the socket transport is **bitwise identical**
  to both the shared-memory bus and the inproc oracle (losses, weights,
  per-rank clocks, phase totals): ``tests/test_differential.py`` draws the
  workloads, this file keeps the ``train_plexus`` entry point;
* **rendezvous integrity** — workers peer-connect only off a membership
  manifest HMAC-signed with the session key; a tampered manifest is a
  typed refusal, stale port files of dead launchers are swept by the
  same pid-liveness rule as the shm segments, and the control connection
  sets ``TCP_NODELAY`` on both ends;
* **network chaos** — an injected fault that fails surfaces a typed
  exception naming the peer well inside the configured deadline
  (``corrupt`` trips the frame checksum; ``drop_conn`` loses the connection,
  which the transport does not recover); no failure may ride to the 120 s
  barrier timeout.  That ``delay`` is bitwise invisible, and that a
  dropped connection replays bitwise from the epoch-boundary checkpoint,
  is drawn and pinned by ``tests/test_differential.py``; the bus on its
  own is ``tests/test_tcp_bus.py``;
* **multi-host control plane** — a second launcher (``repro host``) can
  attach workers through the published port file and the pool trains
  normally with a remote member.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time

import pytest

from repro.core import GridConfig, PlexusOptions
from repro.dist import LAPTOP
from repro.errors import (
    BarrierTimeout,
    PayloadCorruption,
    PlexusRuntimeError,
    RendezvousDesync,
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
    RendezvousListener,
    connect_rendezvous,
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


def _dataset():
    a = gcn_normalize(rmat_graph(N_NODES, avg_degree=6, seed=1))
    feats = synth_features(N_NODES, DIMS[0], seed=2)
    labels = degree_labels(a, DIMS[-1], seed=3)
    mask, _, _ = random_split_masks(N_NODES, seed=4)
    return a, feats, labels, mask


def _spec(faults=()):
    a, feats, labels, mask = _dataset()
    return WorkloadSpec(
        config=CFG,
        layer_dims=list(DIMS),
        workers=2,
        machine=LAPTOP,
        options=PlexusOptions(seed=0),
        adjacency=a,
        features=feats,
        labels=labels,
        train_mask=mask,
        faults=faults,
    )


class TestTcpParity:
    """tcp over loopback == shm == inproc, bit for bit, at the seams the
    differential test does not draw."""

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

    def test_control_connection_sets_tcp_nodelay_on_both_ends(self):
        """A command and its small reply go out at once: neither end of a
        control connection holds a segment back for Nagle's algorithm."""
        listener = RendezvousListener(authkey=self.KEY)
        dialed = []
        th = threading.Thread(
            target=lambda: dialed.append(
                connect_rendezvous(listener.host, listener.port, self.KEY)[0]
            )
        )
        th.start()
        try:
            accepted = listener.accept(time.monotonic() + 20)
            th.join(20)
            try:
                for conn in (dialed[0], accepted):
                    with socket.fromfd(conn.fileno(), socket.AF_INET, socket.SOCK_STREAM) as s:
                        assert s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                accepted.close()
                dialed[0].close()
        finally:
            listener.close()

    def test_gather_leaves_addressless_workers_out_of_the_manifest(self):
        """A shm worker's hello carries no peer address: it is admitted
        under its preferred id like a tcp worker, and the signed manifest
        lists only the workers that advertised one."""
        listener = RendezvousListener(authkey=self.KEY)
        welcomes: dict = {}

        def dial(preferred, addr):
            conn = connect_rendezvous(listener.host, listener.port, self.KEY)[0]
            conn.send(("hello", preferred, addr))
            welcomes[preferred] = conn.recv()
            conn.close()

        threads = [
            threading.Thread(target=dial, args=(0, None)),
            threading.Thread(target=dial, args=(1, ("127.0.0.1", 4002))),
        ]
        try:
            for th in threads:
                th.start()
            conns = listener.gather(2, 20)
            for th in threads:
                th.join(20)
            assert not any(th.is_alive() for th in threads)
            for conn in conns.values():
                conn.close()
        finally:
            listener.close()
        assert sorted(conns) == [0, 1]
        for w, (kind, wid, blob, sig) in welcomes.items():
            assert (kind, wid) == ("welcome", w)
            assert verify_manifest(self.KEY, blob, sig)["peers"] == {"1": ["127.0.0.1", 4002]}

    def test_unreadable_port_file_is_typed(self, tmp_path):
        bad = tmp_path / f"x{PORT_FILE_SUFFIX}"
        bad.write_text("{not json")
        with pytest.raises(PlexusRuntimeError, match="unreadable"):
            read_port_file(bad)


class TestNetworkChaos:
    """Injected network faults: transparent-and-bitwise or typed-and-fast."""

    def test_corrupt_trips_crc_typed(self):
        """The transport-neutral ``corrupt`` flips a byte of the outgoing
        frame: the receiver's word-sum check (the one frame check of both
        buses) raises, typed and fast."""
        plan = FaultPlan(worker=0, point="pre_barrier", action="corrupt", epoch=1)
        t0 = time.monotonic()
        with pytest.raises(PayloadCorruption, match="multiproc runtime failed") as ei:
            with MultiprocTrainer(
                _spec(faults=(plan,)), timeout=120, transport="tcp"
            ) as mpt:
                mpt.train(3)
        assert time.monotonic() - t0 < 30
        assert "tcp frame from worker 0 failed its checksum" in str(ei.value)

    def test_dropped_connection_surfaces_typed_error_naming_peer(self):
        """A lost connection is not recovered inside the transport: it
        raises the typed error naming the peer at once — well inside the
        120 s barrier timeout — and ``train_to`` replays from there."""
        plan = FaultPlan(worker=1, point="pre_barrier", action="drop_conn", epoch=1)
        t0 = time.monotonic()
        with pytest.raises(BarrierTimeout, match=r"worker \d") as ei:
            with MultiprocTrainer(
                _spec(faults=(plan,)), timeout=120, transport="tcp"
            ) as mpt:
                mpt.train(3)
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"lost-connection detection took {elapsed:.1f}s"
        # the worker-side report names the peer and the frame seq
        assert "tcp rendezvous with worker" in str(ei.value)
        assert "connection lost" in str(ei.value)
        assert ei.value.last_epoch == 1
        # the launcher's straggler table rides along (satellite acceptance)
        assert "per-worker liveness" in str(ei.value)
        assert "last heartbeat" in str(ei.value)

    def test_network_actions_require_tcp(self, monkeypatch):
        """A network fault planned on the shm bus, or aimed at a worker the
        tcp pool does not have, is a ``ValueError`` at construction — no
        worker process is ever started; ``corrupt`` is one action on both
        transports (on tcp it trips the frame checksum:
        ``test_corrupt_trips_crc_typed``)."""
        spawned = []
        monkeypatch.setattr(
            MultiprocTrainer, "_spawn_pool", lambda self, *a, **k: spawned.append(a)
        )
        plan = FaultPlan(worker=0, point="pre_barrier", action="drop_conn", epoch=0)
        with pytest.raises(ValueError, match="'drop_conn' acts on transport='tcp'"):
            MultiprocTrainer(_spec(faults=(plan,)), timeout=60)
        plan = FaultPlan(worker=2, point="pre_barrier", action="drop_conn", epoch=0)
        with pytest.raises(ValueError, match="never fires on 2 workers"):
            MultiprocTrainer(_spec(faults=(plan,)), timeout=60, transport="tcp")
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
                assert mpt.state()["load_reports"] == [None, None]
                assert mpt.train(3).losses == ref
        finally:
            th.join(timeout=30)
        assert hosted.get("served") == 1

    def test_a_pool_without_remote_slots_publishes_no_port_file(self, tmp_path, monkeypatch):
        """``repro host --rendezvous auto`` must never attach to a launcher
        with no slot to fill: while a tcp pool with ``remote_workers=0``
        runs, its temp dir holds no port file."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with MultiprocTrainer(_spec(), timeout=60, transport="tcp") as mpt:
            assert mpt.state()["load_reports"] == [None, None]
            assert list(tmp_path.glob(f"*{PORT_FILE_SUFFIX}")) == []
