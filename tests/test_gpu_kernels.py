"""Tests for the GPU kernel models: SpMM geometry/metrics and GEMM modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    A100_40GB,
    MI250X_GCD,
    GemmMode,
    SpmmShard,
    gemm_flops,
    gemm_time,
    spmm_kernel_profile,
    spmm_time,
)
from repro.gpu.gemm import mode_factor
from repro.gpu.spmm import NNZ_PER_CTA, spmm_shape_factor, spmm_time_batch
from repro.graph import dataset_stats


def _config_u():
    st_ = dataset_stats("ogbn-products")
    return SpmmShard(rows=st_.nodes, k=st_.nodes // 64, cols=st_.features, nnz=st_.nonzeros // 64)


def _config_v():
    st_ = dataset_stats("ogbn-products")
    return SpmmShard(rows=st_.nodes, k=st_.nodes, cols=st_.features / 64, nnz=st_.nonzeros)


class TestSpmmShard:
    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            SpmmShard(rows=-1, k=1, cols=1, nnz=0)

    def test_zero_cols_rejected(self):
        with pytest.raises(ValueError):
            SpmmShard(rows=1, k=1, cols=0, nnz=0)

    @given(
        rows=st.integers(0, 5000),
        k=st.integers(0, 5000),
        cols=st.integers(1, 300),
        nnz=st.integers(0, 200000),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_time_matches_scalar_model(self, rows, k, cols, nnz):
        """A shard's time is the same whatever batch it is priced in — one
        shard alone (spmm_time), a rank's shards, a sweep's configurations —
        so the layers' per-rank vectors and the analytic sweeps agree."""
        from repro.dist.topology import FRONTIER, PERLMUTTER

        for machine in (PERLMUTTER, FRONTIER):
            scalar = spmm_time(SpmmShard(rows=rows, k=k, cols=float(cols), nnz=nnz), machine.device)
            batch = spmm_time_batch([1, rows, 7], [3, k, 5], [2.0, float(cols), 9.0], [0, nnz, 40], machine.device)
            assert float(batch[1]) == scalar


class TestTable2Reproduction:
    """The model must land near the paper's Nsight profile (Table 2)."""

    def test_grid_size_u(self):
        p = spmm_kernel_profile(_config_u(), A100_40GB)
        assert p.grid_size == pytest.approx(20_223, rel=0.05)

    def test_grid_size_v(self):
        p = spmm_kernel_profile(_config_v(), A100_40GB)
        assert p.grid_size == pytest.approx(1_313_241, rel=0.05)

    def test_grid_ratio_is_64x(self):
        u = spmm_kernel_profile(_config_u(), A100_40GB)
        v = spmm_kernel_profile(_config_v(), A100_40GB)
        assert v.grid_size / u.grid_size == pytest.approx(64, rel=0.05)

    def test_uncoalesced_explodes_for_v(self):
        u = spmm_kernel_profile(_config_u(), A100_40GB)
        v = spmm_kernel_profile(_config_v(), A100_40GB)
        assert v.uncoalesced_sectors > 20 * u.uncoalesced_sectors
        assert v.uncoalesced_sectors == pytest.approx(3_939_912, rel=0.25)

    def test_throughput_collapse_for_v(self):
        u = spmm_kernel_profile(_config_u(), A100_40GB)
        v = spmm_kernel_profile(_config_v(), A100_40GB)
        assert u.l2_throughput_pct == pytest.approx(61.31, rel=0.15)
        assert v.l2_throughput_pct == pytest.approx(12.65, rel=0.25)
        assert u.dram_throughput_pct == pytest.approx(72.83, rel=0.15)
        assert v.dram_throughput_pct == pytest.approx(8.24, rel=0.4)

    def test_v_about_8x_slower_at_equal_flops(self):
        u, v = _config_u(), _config_v()
        assert u.nnz * u.cols == pytest.approx(v.nnz * v.cols, rel=0.01)  # equal FLOPs
        ratio = spmm_time(v, A100_40GB) / spmm_time(u, A100_40GB)
        assert 6 <= ratio <= 11


class TestSpmmModel:
    def test_zero_nnz_is_free(self):
        assert spmm_time(SpmmShard(rows=10, k=10, cols=4, nnz=0), A100_40GB) == 0.0

    def test_shape_factor_saturates_at_wide(self):
        assert spmm_shape_factor(8) == 1.0
        assert spmm_shape_factor(128) == 1.0

    def test_shape_factor_penalizes_narrow(self):
        assert spmm_shape_factor(1) < spmm_shape_factor(4) < 1.0

    def test_shape_factor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spmm_shape_factor(0)

    @given(nnz=st.integers(1, 10**8))
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_nnz(self, nnz):
        a = spmm_time(SpmmShard(rows=1000, k=1000, cols=64, nnz=nnz), A100_40GB)
        b = spmm_time(SpmmShard(rows=1000, k=1000, cols=64, nnz=nnz * 2), A100_40GB)
        assert b >= a

    def test_grid_size_law(self):
        p = spmm_kernel_profile(SpmmShard(rows=100, k=100, cols=32, nnz=960), A100_40GB)
        assert p.grid_size == 960 // NNZ_PER_CTA

    def test_frontier_slower_than_perlmutter(self):
        shard = SpmmShard(rows=10**6, k=10**6, cols=32, nnz=10**7)
        assert spmm_time(shard, MI250X_GCD) > 5 * spmm_time(shard, A100_40GB)

    def test_l2_reuse_speeds_up_small_k(self):
        # same nnz/cols, smaller common dimension -> cache-resident -> faster
        big = SpmmShard(rows=10**5, k=10**7, cols=64, nnz=10**7)
        small = SpmmShard(rows=10**5, k=10**4, cols=64, nnz=10**7)
        assert spmm_time(small, A100_40GB) < spmm_time(big, A100_40GB)


class TestGemm:
    def test_flops(self):
        assert gemm_flops(2, 3, 4) == 48

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            gemm_flops(-1, 2, 3)

    def test_zero_dim_is_free(self):
        assert gemm_time(0, 10, 10, A100_40GB) == 0.0

    def test_nn_is_fastest_mode(self):
        for mode in (GemmMode.NT, GemmMode.TN, GemmMode.TT):
            assert mode_factor(A100_40GB, mode) <= mode_factor(A100_40GB, GemmMode.NN)

    def test_time_scales_with_flops(self):
        t1 = gemm_time(1024, 1024, 1024, A100_40GB)
        t2 = gemm_time(2048, 1024, 1024, A100_40GB)
        assert t2 == pytest.approx(2 * t1, rel=0.05)

    def test_bandwidth_floor_for_skinny(self):
        # a 1-column product is bandwidth-bound, not flops-bound
        t = gemm_time(10**7, 1, 1, A100_40GB)
        assert t >= 4.0 * (10**7 * 2) / A100_40GB.memory_bw * 0.9

    def test_rocblas_tn_fallback_triggers(self):
        # the pathological grad_W shape of Sec. 5.3: tiny output, huge k
        slow = gemm_time(128, 128, 2_000_000, MI250X_GCD, GemmMode.TN)
        fast = gemm_time(128, 128, 2_000_000, MI250X_GCD, GemmMode.NT)
        assert slow > 5 * fast
        assert slow >= 0.04  # ~50 ms territory (Fig. 6 right)

    def test_fallback_not_on_nvidia(self):
        slow = gemm_time(128, 128, 2_000_000, A100_40GB, GemmMode.TN)
        fast = gemm_time(128, 128, 2_000_000, A100_40GB, GemmMode.NT)
        assert slow < 5 * fast

    def test_fallback_not_for_large_outputs(self):
        t_big = gemm_time(4096, 4096, 2_000_000, MI250X_GCD, GemmMode.TN)
        flops_bound = gemm_flops(4096, 4096, 2_000_000) / (
            MI250X_GCD.peak_flops * MI250X_GCD.gemm_efficiency * mode_factor(MI250X_GCD, GemmMode.TN)
        )
        assert t_big == pytest.approx(flops_bound, rel=0.01)


class TestProfileRecord:
    def test_negative_counts_rejected(self):
        from repro.gpu.profiler import KernelProfile

        with pytest.raises(ValueError):
            KernelProfile("k", -1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            KernelProfile("k", 0, 0, 0, 0, -1)
