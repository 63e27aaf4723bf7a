"""The tcp worker fabric: parity, rendezvous protocol, network chaos.

Spawn-heavy: runs in its own CI step under a hard timeout, deselected from
tier-1.  Acceptance for ``transport="tcp"``:

* **parity** — over loopback the socket transport is **bitwise identical**
  to both the shared-memory bus and the inproc oracle (losses, weights,
  per-rank clocks, phase totals): ``tests/test_differential.py`` draws the
  workloads, this file keeps the ``train_plexus`` entry point;
* **rendezvous integrity** — workers peer-connect only off a membership
  manifest HMAC-signed with the session key; a tampered manifest is a
  typed refusal, a dialer with another key is refused while admission
  goes on, a dialer that connects and stays silent cannot hold a
  pool's formation past its deadline, and the control connection sets
  ``TCP_NODELAY`` on both ends;
* **network chaos** — an injected fault that fails surfaces a typed
  exception naming the peer well inside the configured deadline
  (``corrupt`` trips the frame checksum; ``drop_conn`` loses the connection,
  which the transport does not recover); no failure may ride to the 120 s
  barrier timeout.  That ``delay`` is bitwise invisible, and that a
  dropped connection replays bitwise from the epoch-boundary checkpoint,
  is drawn and pinned by ``tests/test_differential.py``; the bus on its
  own is ``tests/test_tcp_bus.py``;
* **multi-host control plane** — a second launcher (``repro host``)
  attaches workers by dialing the primary's ``host:port`` with the shared
  ``$PLEXUS_AUTHKEY``; the pool trains bitwise like the oracle with a
  remote member, and the remote member rejoins a pool ``train_to``
  respawns after a failure.
"""

from __future__ import annotations

import socket
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
    host_workers,
)
from repro.runtime import launch
from repro.runtime.checkpoint import train_to
from repro.runtime.rendezvous import (
    RendezvousListener,
    connect_rendezvous,
    signed_manifest,
    verify_manifest,
)
from repro.sparse.ops import gcn_normalize

N_NODES = 48
DIMS = [16, 16, 8]
CFG = GridConfig(2, 2, 2)
#: a deployment's session key, as ``$PLEXUS_AUTHKEY`` holds it
KEY_HEX = "ab" * 32


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

    def test_remote_slots_need_an_explicit_port_and_the_key(self, monkeypatch):
        """A remote host can join only at an address it can name, with a key
        both sides hold: ``remote_workers`` without ``$PLEXUS_AUTHKEY``, or
        on port 0, is a ``ValueError`` before any process starts; with both,
        the session key is the deployment's."""
        spawned = []
        monkeypatch.setattr(MultiprocTrainer, "_spawn_pool", lambda self: spawned.append(self))
        monkeypatch.delenv("PLEXUS_AUTHKEY", raising=False)
        with pytest.raises(ValueError, match="PLEXUS_AUTHKEY"):
            MultiprocTrainer(_spec(), transport="tcp", rendezvous="127.0.0.1:29511", remote_workers=1)
        with pytest.raises(ValueError, match="PLEXUS_AUTHKEY"):
            host_workers("127.0.0.1:29511")
        monkeypatch.setenv("PLEXUS_AUTHKEY", KEY_HEX)
        for rendezvous in (None, "127.0.0.1:0", ("127.0.0.1", 0)):
            with pytest.raises(ValueError, match="non-zero"):
                MultiprocTrainer(_spec(), transport="tcp", rendezvous=rendezvous, remote_workers=1)
        assert spawned == []
        mpt = MultiprocTrainer(_spec(), transport="tcp", rendezvous=":29511", remote_workers=1)
        mpt.close()
        assert mpt.rendezvous == ("127.0.0.1", 29511)
        assert mpt._authkey == bytes.fromhex(KEY_HEX)
        monkeypatch.setenv("PLEXUS_AUTHKEY", "not hex")
        with pytest.raises(ValueError, match="hex"):
            MultiprocTrainer(_spec(), transport="tcp")
        assert spawned == [mpt]


class TestRendezvousProtocol:
    """The signed-manifest membership and the admission deadline (no spawns)."""

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

    @pytest.mark.parametrize("authenticated", [False, True], ids=["idle", "silent"])
    def test_a_silent_dialer_cannot_hold_formation_past_its_deadline(self, authenticated):
        """A client that connects and sends nothing (``idle``: not even the
        challenge's answer; ``silent``: authenticated, but no hello) is
        dropped when the formation deadline passes, and ``gather`` raises
        ``BarrierTimeout`` then.  The client is released 5 s in, so a gather
        that waited on it fails the time bound instead of hanging."""
        listener = RendezvousListener(authkey=self.KEY)
        held = []

        def dial():
            if authenticated:
                held.append(connect_rendezvous(listener.host, listener.port, self.KEY)[0])
            else:
                held.append(socket.create_connection((listener.host, listener.port)))

        th = threading.Thread(target=dial)
        release = threading.Timer(5.0, lambda: [c.close() for c in held])
        th.start()
        release.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(BarrierTimeout, match="deadline"):
                listener.gather(1, 1.0)
            elapsed = time.monotonic() - t0
            th.join(10)
            assert len(held) == 1
        finally:
            release.cancel()
            for c in held:
                c.close()
            listener.close()
        assert elapsed < 3.0, f"gather held {elapsed:.1f}s by a silent dialer"

    def test_a_dialer_with_another_key_is_refused_and_admission_goes_on(self):
        """A dialer holding another deployment's key fails the challenge
        with a typed error naming the address; the listener drops it and
        still admits the next dialer that holds this session's key."""
        listener = RendezvousListener(authkey=self.KEY)
        outcome: dict = {}

        def dial():
            try:
                connect_rendezvous(listener.host, listener.port, b"x" * 32)
            except PlexusRuntimeError as err:
                outcome["refused"] = err
            outcome["admitted"] = connect_rendezvous(listener.host, listener.port, self.KEY)[0]

        th = threading.Thread(target=dial)
        th.start()
        try:
            accepted = listener.accept(time.monotonic() + 20)
            th.join(20)
            accepted.close()
        finally:
            listener.close()
            if "admitted" in outcome:
                outcome["admitted"].close()
        assert not th.is_alive()
        assert "authentication" in str(outcome["refused"])
        assert f"{listener.host}:{listener.port}" in str(outcome["refused"])
        assert "admitted" in outcome


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


def _free_address() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


class TestMultiHost:
    """The two-launcher control plane over loopback: ``host_workers`` (the
    ``repro host`` loop) in a thread fills the primary's remote slot by
    address, with the key both read from ``$PLEXUS_AUTHKEY``."""

    @staticmethod
    def _host(monkeypatch, address: str) -> tuple[threading.Thread, dict]:
        monkeypatch.setenv("PLEXUS_AUTHKEY", KEY_HEX)
        hosted: dict = {}

        def serve():
            hosted["served"] = host_workers(address, workers=1, rediscover_grace=3.0)

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        return th, hosted

    def test_host_serves_no_session_at_an_address_that_stays_closed(self, monkeypatch):
        """With no primary listening, ``host_workers`` spawns nothing and
        returns 0 once its grace runs out, instead of dialing forever."""
        monkeypatch.setenv("PLEXUS_AUTHKEY", KEY_HEX)
        monkeypatch.setattr(launch, "_start_workers", lambda *a, **k: pytest.fail("spawned"))
        t0 = time.monotonic()
        assert host_workers(_free_address(), workers=1, rediscover_grace=0.5) == 0
        assert time.monotonic() - t0 < 5.0

    def test_remote_worker_attaches_by_address(self, monkeypatch):
        """The mixed-origin pool trains bitwise like the oracle, and the
        host serves one session: once the pool has formed its address
        accepts no one."""
        ref = build_trainer(_spec(), backend="inproc").train(3).losses
        address = _free_address()
        th, hosted = self._host(monkeypatch, address)
        try:
            with MultiprocTrainer(
                _spec(), timeout=60, transport="tcp", rendezvous=address, remote_workers=1,
            ) as mpt:
                assert mpt.state()["load_reports"] == [None, None]
                assert mpt.train(3).losses == ref
        finally:
            th.join(timeout=30)
        assert hosted.get("served") == 1

    def test_remote_worker_rejoins_a_respawned_pool(self, monkeypatch, tmp_path):
        """Local worker 0 dies at epoch 1; ``train_to`` respawns the pool
        at the same address, the host's next session fills the remote slot
        again, and the replay from the epoch-1 checkpoint is bitwise."""
        ref = build_trainer(_spec(), backend="inproc").train(3).losses
        plan = FaultPlan(worker=0, point="pre_barrier", action="die", epoch=1)
        address = _free_address()
        th, hosted = self._host(monkeypatch, address)
        try:
            with MultiprocTrainer(
                _spec(faults=(plan,)), timeout=60, transport="tcp", rendezvous=address,
                remote_workers=1,
            ) as mpt:
                restarts = []
                restart = mpt.restart
                mpt.restart = lambda: (restarts.append(mpt.epochs_done), restart())
                assert train_to(mpt, 3, tmp_path).losses == ref
        finally:
            th.join(timeout=30)
        assert restarts == [1]
        assert hosted.get("served") == 2
