"""Tests for the baselines: partitioners, BNS-GCN, CAGNET-SA."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import (
    BnsGcnModel,
    BnsGcnOptions,
    Cagnet15D,
    CagnetOptions,
    bfs_partition,
    boundary_nodes,
    gvb_partition,
    ldg_partition,
)
from repro.baselines.cagnet import block_partition
from repro.dist import FRONTIER, PERLMUTTER, VirtualCluster, all_to_all_time, ring_all_reduce_time
from repro.dist import comm
from repro.nn import Adam, SerialGCN


@pytest.fixture(scope="module")
def ds(tiny_products):
    return tiny_products


@pytest.fixture(scope="module")
def dims(tiny_products):
    return [tiny_products.n_features, 12, 12, tiny_products.n_classes]


@pytest.fixture(scope="module")
def serial3(tiny_products, dims):
    m = SerialGCN(dims, seed=0)
    feats = tiny_products.features.copy()
    opt = Adam(m.parameters(), lr=1e-2)
    ds = tiny_products
    return [m.train_step(ds.norm_adjacency, feats, ds.labels, ds.train_mask, opt) for _ in range(3)]


class TestPartitioners:
    @pytest.mark.parametrize("fn", [bfs_partition, ldg_partition])
    def test_assigns_every_node(self, ds, fn):
        res = fn(ds.adjacency, 4, seed=0)
        assert res.assignment.shape == (ds.n_nodes,)
        assert set(np.unique(res.assignment)) <= set(range(4))

    @pytest.mark.parametrize("fn", [bfs_partition, ldg_partition])
    def test_balanced_sizes(self, ds, fn):
        res = fn(ds.adjacency, 4, seed=0)
        sizes = res.part_sizes
        assert sizes.max() <= 1.3 * sizes.mean()

    def test_gvb_balances_nonzeros(self, ds):
        res = gvb_partition(ds.adjacency, 4)
        deg = np.diff(ds.adjacency.indptr)
        loads = np.array([deg[res.assignment == p].sum() for p in range(4)])
        assert loads.max() <= 1.2 * loads.mean()

    def test_gvb_beats_block_partition_on_nnz_balance(self, ds):
        deg = np.diff(ds.adjacency.indptr)

        def imbalance(res):
            loads = np.array([deg[res.assignment == p].sum() for p in range(4)])
            return loads.max() / loads.mean()

        assert imbalance(gvb_partition(ds.adjacency, 4)) <= imbalance(block_partition(ds.n_nodes, 4))

    def test_bfs_cut_beats_random_relabeling(self, ds):
        bfs = bfs_partition(ds.adjacency, 4, seed=0)
        rng = np.random.default_rng(0)
        random_assign = bfs.assignment.copy()
        rng.shuffle(random_assign)
        from repro.baselines.partitioner import PartitionResult

        rand = PartitionResult(assignment=random_assign, n_parts=4)
        assert bfs.edge_cut(ds.adjacency) < rand.edge_cut(ds.adjacency)

    def test_boundary_nodes_correct_brute_force(self, ds):
        res = bfs_partition(ds.adjacency, 3, seed=1)
        bnd = boundary_nodes(ds.adjacency, res)
        coo = ds.adjacency.tocoo()
        for p in range(3):
            expected = {
                int(c) for r, c in zip(coo.row, coo.col)
                if res.assignment[r] == p and res.assignment[c] != p
            }
            assert set(bnd[p].tolist()) == expected

    def test_parts_sorted_and_disjoint(self, ds):
        res = ldg_partition(ds.adjacency, 4, seed=0)
        parts = res.parts()
        all_nodes = np.concatenate(parts)
        assert len(all_nodes) == ds.n_nodes
        assert len(np.unique(all_nodes)) == ds.n_nodes

    def test_invalid_part_count(self, ds):
        with pytest.raises(ValueError):
            bfs_partition(ds.adjacency, 0)
        with pytest.raises(ValueError):
            gvb_partition(ds.adjacency, ds.n_nodes + 1)


class TestBnsGcn:
    @pytest.mark.parametrize("partitioner", ["bfs", "ldg", "gvb"])
    def test_exact_at_rate_one(self, ds, dims, serial3, partitioner):
        cluster = VirtualCluster(4, PERLMUTTER)
        m = BnsGcnModel(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims,
                        BnsGcnOptions(seed=0, partitioner=partitioner))
        losses = m.train(3).losses
        np.testing.assert_allclose(losses, serial3, atol=1e-9)

    def test_exact_with_eight_ranks(self, ds, dims, serial3):
        cluster = VirtualCluster(8, PERLMUTTER)
        m = BnsGcnModel(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, BnsGcnOptions(seed=0))
        np.testing.assert_allclose(m.train(3).losses, serial3, atol=1e-9)

    def test_sampling_is_approximate_but_trains(self, ds, dims, serial3):
        cluster = VirtualCluster(4, PERLMUTTER)
        m = BnsGcnModel(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims,
                        BnsGcnOptions(seed=0, boundary_rate=0.25))
        losses = m.train(3).losses
        assert all(np.isfinite(l) for l in losses)
        assert losses != pytest.approx(serial3, abs=1e-12)

    def test_total_nodes_with_boundary_at_least_n(self, ds, dims):
        cluster = VirtualCluster(4, PERLMUTTER)
        m = BnsGcnModel(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, BnsGcnOptions(seed=0))
        assert m.total_nodes_with_boundary() >= ds.n_nodes

    def test_boundary_grows_with_partitions(self, ds, dims):
        totals = []
        for p in (2, 4, 8):
            cluster = VirtualCluster(p, PERLMUTTER)
            m = BnsGcnModel(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, BnsGcnOptions(seed=0))
            totals.append(m.total_nodes_with_boundary())
        assert totals[0] < totals[1] < totals[2]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            BnsGcnOptions(boundary_rate=0.0)
        with pytest.raises(ValueError):
            BnsGcnOptions(boundary_rate=1.5)

    def test_epoch_breakdown_sane(self, ds, dims):
        cluster = VirtualCluster(4, PERLMUTTER)
        m = BnsGcnModel(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, BnsGcnOptions(seed=0))
        stats = m.train_epoch()
        assert stats.epoch_time > 0
        assert stats.comm_time >= 0 and stats.comp_time > 0


class TestCagnet:
    def test_sa_exact(self, ds, dims, serial3):
        cluster = VirtualCluster(4, PERLMUTTER)
        m = Cagnet15D(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, CagnetOptions(seed=0))
        np.testing.assert_allclose(m.train(3).losses, serial3, atol=1e-9)

    def test_sa_gvb_exact(self, ds, dims, serial3):
        cluster = VirtualCluster(4, PERLMUTTER)
        m = Cagnet15D(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims,
                      CagnetOptions(seed=0, use_gvb=True))
        np.testing.assert_allclose(m.train(3).losses, serial3, atol=1e-9)

    def test_block_partition_is_contiguous(self):
        res = block_partition(10, 3)
        np.testing.assert_array_equal(res.assignment, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_sampling_forbidden(self):
        with pytest.raises(ValueError):
            CagnetOptions(boundary_rate=0.5)

    def test_sa_exchanges_more_than_bns(self, ds, dims):
        """Contiguous blocks cut more edges than BFS partitions on RMAT."""
        c1 = VirtualCluster(4, PERLMUTTER)
        bns = BnsGcnModel(c1, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, BnsGcnOptions(seed=0))
        c2 = VirtualCluster(4, PERLMUTTER)
        sa = Cagnet15D(c2, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, CagnetOptions(seed=0))
        assert sa.total_nodes_with_boundary() >= bns.total_nodes_with_boundary()


class TestTimeline:
    """The baselines' one group is the world, run as the one axis of a
    ``(P, 1, 1)`` cube: what it schedules is the Eq. 4.5 law of each
    collective at the bandwidth node placement gives — nothing at P = 1,
    the intra-node links at P = 4 (one Perlmutter node), a node's full NIC
    aggregate at P = 8 (two Perlmutter nodes; one Frontier node)."""

    @staticmethod
    def _scheduled(monkeypatch, model) -> dict[str, list]:
        """The duration of every collective one epoch hands the schedule
        kernel, per phase in issue order."""
        seen: dict[str, list] = {}
        schedule = comm._schedule

        def spy(store, slots, ready, duration, phase):
            seen.setdefault(phase, []).append(duration)
            return schedule(store, slots, ready, duration, phase)

        monkeypatch.setattr(comm, "_schedule", spy)
        model.train_epoch()
        return seen

    @pytest.mark.parametrize(
        "build",
        [
            lambda *args: BnsGcnModel(*args, BnsGcnOptions(seed=0)),
            lambda *args: Cagnet15D(*args, CagnetOptions(seed=0)),
            lambda *args: Cagnet15D(*args, CagnetOptions(seed=0, use_gvb=True)),
        ],
        ids=["bns-gcn", "sa", "sa-gvb"],
    )
    @pytest.mark.parametrize(
        "machine,p,bandwidth",
        [
            (PERLMUTTER, 1, None),
            (PERLMUTTER, 4, PERLMUTTER.intra_node_bw),
            (PERLMUTTER, 8, PERLMUTTER.inter_node_bw),
            (FRONTIER, 8, FRONTIER.intra_node_bw),
        ],
        ids=["one-rank", "one-node", "two-nodes", "frontier-one-node"],
    )
    def test_durations_are_the_eq45_laws_at_the_placement_bandwidth(
        self, monkeypatch, ds, dims, build, machine, p, bandwidth
    ):
        cluster = VirtualCluster(p, machine)
        m = build(cluster, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims)
        seen = self._scheduled(monkeypatch, m)
        if p == 1:
            assert seen == {}
            assert float(cluster.category_totals("comm:").max()) == 0.0
            return
        lat, itemsize, layers = machine.latency, 8, range(len(dims) - 1)
        # rank r sends the owners' rows its peers need, and returns the
        # gradient rows of the ones it received (rate 1.0: all of them)
        sent = max(sum(len(m.recv_ids[q][r]) for q in range(p) if q != r) for r in range(p))
        got = max(sum(len(m.recv_ids[r][q]) for q in range(p) if q != r) for r in range(p))
        assert seen == {
            "comm:boundary_exchange": [
                all_to_all_time(sent * dims[i] * itemsize, p, bandwidth, lat) for i in layers
            ],
            "comm:loss_total": [ring_all_reduce_time(2 * itemsize, p, bandwidth, lat)],
            "comm:all_reduce_dw": [
                ring_all_reduce_time(dims[i] * dims[i + 1] * itemsize, p, bandwidth, lat)
                for i in reversed(layers)
            ],
            "comm:boundary_grad_exchange": [
                all_to_all_time(got * dims[i] * itemsize, p, bandwidth, lat)
                for i in reversed(layers) if i > 0
            ],
        }

    def test_sampled_exchange_is_paced_by_the_largest_sampled_payload(self, monkeypatch, ds, dims):
        """BNS-GCN at rate 0.5: each exchange moves only the rows sampled
        this epoch, and its duration is the law of the rank that sends the
        most of them."""
        p, layers = 4, range(len(dims) - 1)
        m = BnsGcnModel(VirtualCluster(p, PERLMUTTER), ds.norm_adjacency, ds.features, ds.labels,
                        ds.train_mask, dims, BnsGcnOptions(seed=0, boundary_rate=0.5))
        samples = []
        sample_boundary = m._sample_boundary

        def spy():
            samples.append(sample_boundary())
            return samples[-1]

        monkeypatch.setattr(m, "_sample_boundary", spy)
        seen = self._scheduled(monkeypatch, m)
        assert len(samples) == len(layers)
        # forward: rank r sends the rows each peer q sampled from it; the
        # gradient of what r sampled goes back to each owner q
        sent = [max(sum(len(s[q][r]) for q in range(p) if q != r) for r in range(p)) for s in samples]
        got = [max(sum(len(s[r][q]) for q in range(p) if q != r) for r in range(p)) for s in samples]
        full = max(sum(len(m.recv_ids[q][r]) for q in range(p) if q != r) for r in range(p))
        assert max(sent) < full
        bw, lat = PERLMUTTER.intra_node_bw, PERLMUTTER.latency
        assert seen["comm:boundary_exchange"] == [
            all_to_all_time(sent[i] * dims[i] * 8, p, bw, lat) for i in layers
        ]
        assert seen["comm:boundary_grad_exchange"] == [
            all_to_all_time(got[i] * dims[i] * 8, p, bw, lat) for i in reversed(layers) if i > 0
        ]

    def test_the_world_axis_takes_the_machine_launch_cost(self, ds, dims):
        machine = replace(PERLMUTTER, issue_overhead_s=3e-6)
        m = Cagnet15D(VirtualCluster(4, machine), ds.norm_adjacency, ds.features, ds.labels,
                      ds.train_mask, dims, CagnetOptions(seed=0))
        d = m.comm.descriptor
        assert (d.cube, d.size, d.bandwidth, d.latency, d.issue_overhead_s) == (
            (4, 1, 1), 4, machine.intra_node_bw, machine.latency, 3e-6
        )

    def test_boundary_exchange_is_a_transpose(self, ds, dims):
        m = BnsGcnModel(VirtualCluster(3, PERLMUTTER), ds.norm_adjacency, ds.features, ds.labels,
                        ds.train_mask, dims, BnsGcnOptions(seed=0))
        chunks = [[np.array([float(10 * i + j)]) for j in range(3)] for i in range(3)]
        received = m._all_to_all(chunks, "boundary_exchange")
        for i in range(3):
            for j in range(3):
                assert received[j][i] is chunks[i][j]
