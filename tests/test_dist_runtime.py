"""Tests for the virtual cluster, the cost models and the collectives."""

import numpy as np
import pytest
from groupwise import axis_comm
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    LAPTOP,
    PERLMUTTER,
    VirtualCluster,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
    all_to_all_time,
    stack_shards,
)
from repro.dist.collectives import axis_bandwidth


def _advance(cluster, rank, duration, phase="comp:x"):
    """Advance one rank's clock (every other rank by 0)."""
    durations = np.zeros(cluster.world_size)
    durations[rank] = duration
    cluster.advance_all(durations, phase)


class TestCluster:
    def test_world_size(self, cluster8):
        assert cluster8.world_size == 8

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)

    def test_advance_and_max_clock(self, cluster8):
        _advance(cluster8, 3, 1.5, "comp:spmm")
        assert cluster8.max_clock() == 1.5

    def test_barrier_syncs_all_clocks(self, cluster8):
        _advance(cluster8, 2, 2.0)
        cluster8.barrier()
        assert np.all(cluster8.clocks == 2.0)

    def test_barrier_wait_counted(self, cluster8):
        _advance(cluster8, 0, 3.0)
        cluster8.barrier()
        assert cluster8.category_totals("comm:barrier")[1] == 3.0


class TestPhaseTotals:
    def test_category_partition(self, cluster8):
        _advance(cluster8, 0, 1.0, "comp:spmm")
        _advance(cluster8, 0, 2.0, "comm:all_reduce")
        _advance(cluster8, 0, 0.5, "loss:misc")
        assert cluster8.category_totals("comp:")[0] == 1.0
        assert cluster8.category_totals("comm:")[0] == 2.0
        assert cluster8.category_totals("loss:")[0] == 0.5
        assert cluster8.category_totals("")[0] == 3.5

    def test_prefix_totals(self, cluster8):
        _advance(cluster8, 0, 1.0, "comm:all_reduce")
        _advance(cluster8, 0, 1.0, "comm:all_gather")
        assert cluster8.category_totals("comm:")[0] == 2.0
        assert cluster8.category_totals("comm:all_reduce")[0] == 1.0
        assert cluster8.category_totals("comm:all")[0] == 2.0

    def test_negative_duration_rejected(self, cluster8):
        with pytest.raises(ValueError):
            cluster8.advance_all(-0.1, "comp:x")
        assert cluster8.max_clock() == 0.0
        assert cluster8.category_totals("")[0] == 0.0


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
    """The collectives of one group (the whole cluster: the baselines'
    ``(P, 1, 1)`` cube) on the product's communicator."""

    def test_all_reduce_sum(self):
        comm = axis_comm(VirtualCluster(3, LAPTOP))
        shards = np.stack([np.full((2, 2), float(i)) for i in range(3)])
        out = comm.all_reduce(shards).wait()
        for r in range(3):
            np.testing.assert_array_equal(out[r], np.full((2, 2), 3.0))

    def test_all_reduce_max(self):
        comm = axis_comm(VirtualCluster(2, LAPTOP))
        out = comm.all_reduce(np.array([[1.0, 5.0], [3.0, 2.0]]), op="max").wait()
        np.testing.assert_array_equal(out[0], [3.0, 5.0])

    def test_all_reduce_bad_op(self):
        comm = axis_comm(VirtualCluster(2, LAPTOP))
        with pytest.raises(ValueError):
            comm.all_reduce(np.zeros((2, 1)), op="min").wait()

    def test_all_reduce_shape_mismatch(self):
        comm = axis_comm(VirtualCluster(2, LAPTOP))
        with pytest.raises(ValueError, match="equal shard rows"):
            comm.all_reduce(stack_shards([np.zeros(1), np.zeros(2)])).wait()

    def test_all_reduce_wrong_count(self):
        comm = axis_comm(VirtualCluster(2, LAPTOP))
        with pytest.raises(ValueError, match="leading extent"):
            comm.all_reduce(np.zeros((1, 1))).wait()

    def test_all_gather_order(self):
        comm = axis_comm(VirtualCluster(3, LAPTOP))
        shards = np.stack([np.full((1, 2), float(i)) for i in range(3)])
        out = comm.all_gather(shards).wait()
        np.testing.assert_array_equal(out[0][:, 0], [0.0, 1.0, 2.0])

    def test_all_gather_unequal_shards(self):
        comm = axis_comm(VirtualCluster(2, LAPTOP))
        out = comm.all_gather(stack_shards([np.zeros((2, 3)), np.zeros((1, 3))])).wait()
        assert out[0].shape == (3, 3)

    def test_reduce_scatter_inverse_of_gather(self, rng):
        comm = axis_comm(VirtualCluster(3, LAPTOP))
        # reduce_scatter of identical copies recovers each block scaled by G
        full = rng.standard_normal((7, 4))
        out = comm.reduce_scatter(np.stack([full] * 3)).wait()
        assert [out[r].shape[0] for r in range(3)] == [3, 2, 2]
        np.testing.assert_allclose(np.concatenate([out[r] for r in range(3)]), 3 * full)

    @given(
        rows=st.integers(1, 20),
        cols=st.integers(1, 8),
        gsize=st.integers(2, 6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_gather_then_split_is_identity(self, rows, cols, gsize, seed):
        rng = np.random.default_rng(seed)
        comm = axis_comm(VirtualCluster(gsize, LAPTOP))
        from repro.sparse import block_slices

        full = rng.standard_normal((rows, cols))
        shards = stack_shards([full[s] for s in block_slices(rows, gsize)])
        gathered = comm.all_gather(shards).wait()
        np.testing.assert_allclose(gathered[0], full)

    def test_collective_advances_clocks_equally(self):
        cluster = VirtualCluster(2, LAPTOP)
        axis_comm(cluster, bandwidth=1e6).all_reduce(np.zeros((2, 1000))).wait()
        assert cluster.clocks[0] == cluster.clocks[1] > 0

    def test_straggler_wait_attributed_to_comm(self):
        cluster = VirtualCluster(2, LAPTOP)
        _advance(cluster, 0, 5.0)
        axis_comm(cluster).all_reduce(np.zeros((2, 4))).wait()
        # rank 1 waited 5 s for rank 0 inside the collective
        assert cluster.category_totals("comm:")[1] >= 5.0
