"""Tests for the virtual cluster, process groups and collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    LAPTOP,
    PERLMUTTER,
    ProcessGroup,
    VirtualCluster,
    communicator,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
    all_to_all_time,
)
from repro.dist.group import axis_bandwidth


def _group(cluster, ranks=None, bandwidth=1e9):
    members = [cluster[r] for r in (ranks or range(cluster.world_size))]
    return ProcessGroup(members=members, machine=cluster.machine, bandwidth=bandwidth, latency=0.0)


class TestCluster:
    def test_world_size(self, cluster8):
        assert cluster8.world_size == 8

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)

    def test_advance_and_max_clock(self, cluster8):
        cluster8[3].advance(1.5, "comp:spmm")
        assert cluster8.max_clock() == 1.5

    def test_negative_advance_rejected(self, cluster8):
        with pytest.raises(ValueError):
            cluster8[0].advance(-1.0, "comp:x")

    def test_barrier_syncs_all_clocks(self, cluster8):
        cluster8[2].advance(2.0, "comp:x")
        cluster8.barrier()
        assert all(r.clock == 2.0 for r in cluster8)

    def test_barrier_wait_counted(self, cluster8):
        cluster8[0].advance(3.0, "comp:x")
        cluster8.barrier()
        assert cluster8[1].timeline.total("comm:barrier") == 3.0

    def test_reset(self, cluster8):
        cluster8[0].advance(1.0, "comp:x")
        cluster8.reset()
        assert cluster8.max_clock() == 0.0
        assert cluster8[0].timeline.total() == 0.0

    def test_node_assignment(self):
        c = VirtualCluster(8, PERLMUTTER)
        assert c[0].node == 0
        assert c[4].node == 1


class TestTimeline:
    def test_breakdown_partition(self, cluster8):
        r = cluster8[0]
        r.advance(1.0, "comp:spmm")
        r.advance(2.0, "comm:all_reduce")
        r.advance(0.5, "loss:misc")
        b = r.timeline.breakdown()
        assert b.comp == 1.0
        assert b.comm == 2.0
        assert b.other == 0.5
        assert b.total == 3.5

    def test_prefix_totals(self, cluster8):
        r = cluster8[0]
        r.advance(1.0, "comm:all_reduce")
        r.advance(1.0, "comm:all_gather")
        assert r.timeline.total("comm:") == 2.0
        assert r.timeline.total("comm:all_reduce") == 1.0

    def test_negative_duration_rejected(self, cluster8):
        with pytest.raises(ValueError):
            cluster8[0].timeline.add("x", -0.1)


class TestAxisBandwidth:
    """Eq. 4.6 cases on Perlmutter (4 GPUs/node, 100 GB/s injection)."""

    def test_intra_node_group(self):
        assert axis_bandwidth(PERLMUTTER, 4, 1) == PERLMUTTER.intra_node_bw

    def test_spanning_group_no_siblings(self):
        # inner=1: one group per node -> full injection bandwidth
        assert axis_bandwidth(PERLMUTTER, 8, 1) == PERLMUTTER.inter_node_bw

    def test_spanning_group_with_contention(self):
        # inner=4: four sibling groups share the node's NICs
        assert axis_bandwidth(PERLMUTTER, 8, 4) == PERLMUTTER.inter_node_bw / 4

    def test_contention_capped_at_node_size(self):
        assert axis_bandwidth(PERLMUTTER, 8, 64) == PERLMUTTER.inter_node_bw / 4

    def test_singleton_axis(self):
        assert axis_bandwidth(PERLMUTTER, 1, 16) == PERLMUTTER.intra_node_bw

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            axis_bandwidth(PERLMUTTER, 0, 1)


class TestProcessGroup:
    def test_duplicate_ranks_rejected(self, cluster8):
        with pytest.raises(ValueError):
            ProcessGroup(members=[cluster8[0], cluster8[0]], machine=cluster8.machine, bandwidth=1e9)

    def test_empty_rejected(self, cluster8):
        with pytest.raises(ValueError):
            ProcessGroup(members=[], machine=cluster8.machine, bandwidth=1e9)

    def test_members_of_different_stores_rejected(self, cluster8):
        other = VirtualCluster(8, cluster8.machine)
        with pytest.raises(ValueError, match="share one ClockStore"):
            ProcessGroup(members=[cluster8[0], other[1]], machine=cluster8.machine, bandwidth=1e9)

    def test_index_of(self, cluster8):
        g = _group(cluster8, [3, 5, 7])
        assert g.index_of(cluster8[5]) == 1
        with pytest.raises(KeyError):
            g.index_of(cluster8[0])

    def test_charge_identical_for_slice_and_fancy_member_selectors(self, cluster8):
        """Arithmetic-progression groups use a strided clock view, arbitrary
        groups an index vector — straggler accounting must not differ."""
        arith = _group(cluster8, [0, 2, 4])       # stride 2 -> slice selector
        ragged = _group(cluster8, [1, 3, 6])      # broken stride -> index vector
        assert isinstance(arith.member_idx, slice)
        assert not isinstance(ragged.member_idx, slice)
        cluster8[2].advance(1.0, "comp:x")
        cluster8[3].advance(1.0, "comp:x")
        shard = np.ones((4, 4))
        communicator(arith).all_reduce([shard] * 3, phase="p").wait()
        communicator(ragged).all_reduce([shard] * 3, phase="p").wait()
        # both groups: stragglers lifted to 1.0 plus the same transfer time
        t = ring_all_reduce_time(shard.nbytes, 3, arith.bandwidth, arith.latency)
        for r in (0, 4):
            assert cluster8[r].clock == pytest.approx(1.0 + t)
            assert cluster8[r].timeline.total("comm:p") == pytest.approx(1.0 + t)
        for r in (1, 6):
            assert cluster8[r].clock == pytest.approx(1.0 + t)
        assert cluster8[2].clock == pytest.approx(1.0 + t)
        assert cluster8[3].clock == pytest.approx(1.0 + t)
        assert cluster8[3].timeline.total("comm:p") == pytest.approx(t)

    def test_from_cluster_ranks_bandwidth_intra(self):
        c = VirtualCluster(4, PERLMUTTER)
        g = ProcessGroup.from_cluster_ranks([c[0], c[1]], PERLMUTTER)
        assert g.bandwidth == PERLMUTTER.intra_node_bw

    def test_from_cluster_ranks_bandwidth_inter(self):
        c = VirtualCluster(8, PERLMUTTER)
        g = ProcessGroup.from_cluster_ranks([c[0], c[7]], PERLMUTTER)
        assert g.bandwidth == PERLMUTTER.inter_node_bw


class TestCostModels:
    """Eq. 4.5 and friends, exact formulas (latency=0)."""

    def test_all_reduce_formula(self):
        assert ring_all_reduce_time(1e6, 4, 1e9, latency=0) == pytest.approx(2 * 0.75 * 1e6 / 1e9)

    def test_all_gather_formula(self):
        assert ring_all_gather_time(1e6, 4, 1e9, latency=0) == pytest.approx(0.75 * 1e6 / 1e9)

    def test_reduce_scatter_formula(self):
        assert ring_reduce_scatter_time(1e6, 4, 1e9, latency=0) == pytest.approx(0.75 * 1e6 / 1e9)

    def test_singleton_groups_are_free(self):
        assert ring_all_reduce_time(1e6, 1, 1e9) == 0.0
        assert ring_all_gather_time(1e6, 1, 1e9) == 0.0
        assert all_to_all_time(1e6, 1, 1e9) == 0.0

    def test_all_to_all_penalty_grows_with_g(self):
        per_g = [all_to_all_time(1e6, g, 1e9, latency=0) / ((g - 1) / g) for g in (2, 16, 256)]
        assert per_g[0] < per_g[1] < per_g[2]

    def test_all_reduce_approaches_2m_over_beta(self):
        t = ring_all_reduce_time(1e6, 1024, 1e9, latency=0)
        assert t == pytest.approx(2e6 / 1e9, rel=0.01)


class TestCollectiveSemantics:
    def test_all_reduce_sum(self, cluster8):
        g = _group(cluster8, [0, 1, 2])
        shards = [np.full((2, 2), float(i)) for i in range(3)]
        out = communicator(g).all_reduce(shards).wait()
        for o in out:
            np.testing.assert_array_equal(o, np.full((2, 2), 3.0))

    def test_all_reduce_max(self, cluster8):
        g = _group(cluster8, [0, 1])
        out = communicator(g).all_reduce([np.array([1.0, 5.0]), np.array([3.0, 2.0])], op="max").wait()
        np.testing.assert_array_equal(out[0], [3.0, 5.0])

    def test_all_reduce_bad_op(self, cluster8):
        g = _group(cluster8, [0, 1])
        with pytest.raises(ValueError):
            communicator(g).all_reduce([np.zeros(1), np.zeros(1)], op="min").wait()

    def test_all_reduce_shape_mismatch(self, cluster8):
        g = _group(cluster8, [0, 1])
        with pytest.raises(ValueError):
            communicator(g).all_reduce([np.zeros(1), np.zeros(2)]).wait()

    def test_all_reduce_wrong_count(self, cluster8):
        g = _group(cluster8, [0, 1])
        with pytest.raises(ValueError):
            communicator(g).all_reduce([np.zeros(1)]).wait()

    def test_all_gather_order(self, cluster8):
        g = _group(cluster8, [0, 1, 2])
        shards = [np.full((1, 2), float(i)) for i in range(3)]
        out = communicator(g).all_gather(shards, axis=0).wait()
        np.testing.assert_array_equal(out[0][:, 0], [0.0, 1.0, 2.0])

    def test_all_gather_unequal_shards(self, cluster8):
        g = _group(cluster8, [0, 1])
        out = communicator(g).all_gather([np.zeros((2, 3)), np.zeros((1, 3))], axis=0).wait()
        assert out[0].shape == (3, 3)

    def test_reduce_scatter_inverse_of_gather(self, cluster8, rng):
        g = _group(cluster8, [0, 1, 2])
        # reduce_scatter of identical copies recovers each shard scaled by G
        full = rng.standard_normal((7, 4))
        out = communicator(g).reduce_scatter([full.copy() for _ in range(3)], axis=0).wait()
        gathered = np.concatenate(out, axis=0)
        np.testing.assert_allclose(gathered, 3 * full)

    def test_reduce_scatter_axis1(self, cluster8, rng):
        g = _group(cluster8, [0, 1])
        full = rng.standard_normal((4, 5))
        out = communicator(g).reduce_scatter([full.copy(), full.copy()], axis=1).wait()
        assert out[0].shape == (4, 3)
        assert out[1].shape == (4, 2)

    def test_broadcast(self, cluster8):
        g = _group(cluster8, [0, 1, 2])
        out = communicator(g).broadcast(np.array([9.0]), root=1).wait()
        assert all(o[0] == 9.0 for o in out)

    def test_broadcast_invalid_root(self, cluster8):
        g = _group(cluster8, [0, 1])
        with pytest.raises(ValueError):
            communicator(g).broadcast(np.zeros(1), root=5).wait()

    def test_all_to_all_is_transpose(self, cluster8):
        g = _group(cluster8, [0, 1, 2])
        chunks = [[np.array([float(10 * i + j)]) for j in range(3)] for i in range(3)]
        out = communicator(g).all_to_all(chunks).wait()
        # received[j][i] == chunks[i][j]
        for i in range(3):
            for j in range(3):
                assert out[j][i][0] == 10 * i + j

    @given(
        rows=st.integers(1, 20),
        cols=st.integers(1, 8),
        gsize=st.integers(2, 6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_gather_then_split_is_identity(self, rows, cols, gsize, seed):
        rng = np.random.default_rng(seed)
        cluster = VirtualCluster(gsize, LAPTOP)
        g = _group(cluster)
        from repro.sparse import block_slices

        full = rng.standard_normal((rows, cols))
        shards = [full[s] for s in block_slices(rows, gsize)]
        gathered = communicator(g).all_gather(shards, axis=0).wait()
        np.testing.assert_allclose(gathered[0], full)

    def test_collective_advances_clocks_equally(self, cluster8):
        g = _group(cluster8, [0, 1], bandwidth=1e6)
        communicator(g).all_reduce([np.zeros(1000), np.zeros(1000)]).wait()
        assert cluster8[0].clock == cluster8[1].clock > 0

    def test_straggler_wait_attributed_to_comm(self, cluster8):
        cluster8[0].advance(5.0, "comp:x")
        g = _group(cluster8, [0, 1])
        communicator(g).all_reduce([np.zeros(4), np.zeros(4)]).wait()
        # rank 1 waited 5 s for rank 0 inside the collective
        assert cluster8[1].timeline.total("comm:") >= 5.0
