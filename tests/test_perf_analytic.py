"""Tests for the analytic scale models and the paper-shape properties they
must reproduce (Figs. 8-10 headline claims)."""

import math
from unittest import mock

import pytest

from repro.core import GridConfig, factor_triples
from repro.dist import FRONTIER, PERLMUTTER
from repro.experiments.common import gcn_layer_dims
from repro.graph import dataset_stats
from repro.perf import (
    PlexusAnalytic,
    best_plexus_config,
    bns_analytic,
    sa_analytic,
    strong_scaling_series,
)
from repro.perf.calibration import IMBALANCE_BY_SCHEME, BoundaryModel, PlexusCalibration, sa_needed_rows


def _dims(name):
    st = dataset_stats(name)
    return st, gcn_layer_dims(st.features, st.classes)


class TestCalibration:
    def test_imbalance_table_ordering(self):
        assert IMBALANCE_BY_SCHEME["double"] < IMBALANCE_BY_SCHEME["single"] < IMBALANCE_BY_SCHEME["none"]

    def test_boundary_growth_matches_paper_anecdote(self):
        """Sec. 7.1: products-14M total nodes 18M @32 -> 22M @256."""
        st = dataset_stats("products-14m")
        model = bns_analytic(st, gcn_layer_dims(st.features, st.classes), PERLMUTTER)
        assert model.total_nodes_with_boundary(32) == pytest.approx(18e6, rel=0.03)
        assert model.total_nodes_with_boundary(256) == pytest.approx(22e6, rel=0.03)

    def test_boundary_zero_for_single_partition(self):
        assert BoundaryModel().total_boundary(10**6, 1) == 0.0

    def test_sa_needed_rows_bounds(self):
        n, nnz = 10**6, 10**7
        rows = sa_needed_rows(n, nnz, 8)
        assert 0 < rows < n

    def test_sa_needed_rows_decreasing_in_p(self):
        n, nnz = 10**6, 10**7
        vals = [sa_needed_rows(n, nnz, p) for p in (2, 8, 32, 128)]
        assert vals == sorted(vals, reverse=True)

    def test_sa_needed_rows_invalid_p(self):
        with pytest.raises(ValueError):
            sa_needed_rows(10, 10, 0)


class TestPlexusAnalytic:
    def test_estimates_finite_positive(self):
        st, dims = _dims("ogbn-products")
        model = PlexusAnalytic(st, dims, PERLMUTTER)
        est = model.epoch_estimate(GridConfig(4, 4, 4))
        assert 0 < est.total < 10
        assert est.comm > 0 and est.comp > 0
        assert not est.oom

    @pytest.mark.parametrize(
        "bad", [dict(aggregation_blocks=-2), dict(aggregation_blocks=0), dict(permutation="triple")]
    )
    def test_refuses_inputs_it_cannot_price(self, bad):
        st, dims = _dims("reddit")
        with pytest.raises(ValueError):
            PlexusAnalytic(st, dims, PERLMUTTER, **bad)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_a_sweep_prices_each_configuration_as_alone(self, overlap):
        """One store rank per configuration: batching changes no bit."""
        st, dims = _dims("isolate-3-8m")
        model = PlexusAnalytic(st, dims, FRONTIER, aggregation_blocks=3, overlap=overlap, trainable_features=False)
        configs = factor_triples(64)
        for batched, cfg in zip(model.epoch_estimates(configs), configs):
            alone = model.epoch_estimate(cfg)
            assert (batched.comm, batched.comp, batched.detail) == (alone.comm, alone.comp, alone.detail)

    @pytest.mark.parametrize("name", ["X1Y4Z1", "X4Y1Z1", "X1Y1Z4", "X2Y2Z1", "X1Y1Z1"])
    def test_a_straggler_waits_at_the_next_synchronising_collective(self, name):
        """Every forward SpMM on Reddit at 4 GPUs is noisy: its slowest
        rank's lead reaches the epoch whole — past a size-1 X axis to the
        next collective that syncs ranks — and a lone rank has none."""
        st, dims = _dims("reddit")
        cfg, cal = GridConfig.parse(name), PlexusCalibration()
        lagged = PlexusAnalytic(st, dims, PERLMUTTER).epoch_estimate(cfg)
        with mock.patch.dict(IMBALANCE_BY_SCHEME, double=1.0):
            flat_cal = PlexusCalibration(variability_max_slowdown=cal.variability_mean_slowdown)
            flat = PlexusAnalytic(st, dims, PERLMUTTER, calibration=flat_cal).epoch_estimate(cfg)
        assert lagged.comp == flat.comp
        lead = IMBALANCE_BY_SCHEME["double"] * cal.variability_max_slowdown - cal.variability_mean_slowdown
        expected = lagged.detail["spmm_fwd"] / cal.variability_mean_slowdown * lead if cfg.total > 1 else 0.0
        assert lagged.total - flat.total == pytest.approx(expected, rel=1e-9)

    def test_detail_holds_the_engines_phases(self):
        st, dims = _dims("reddit")
        est = PlexusAnalytic(st, dims, PERLMUTTER).epoch_estimate(GridConfig(2, 2, 2))
        comp = sum(est.detail[p] for p in ("spmm_fwd", "spmm_bwd", "gemm_fwd", "gemm_dw", "gemm_dh"))
        assert comp == pytest.approx(est.comp)
        assert sum(est.detail.values()) == pytest.approx(est.total)
        assert {"all_reduce_h", "all_gather_w", "loss_total", "reduce_scatter_df", "epoch_sync"} <= est.detail.keys()

    def test_strong_scaling_monotone_for_large_graph(self):
        st, dims = _dims("ogbn-papers100m")
        pts = strong_scaling_series(PlexusAnalytic(st, dims, PERLMUTTER), [64, 256, 1024, 2048])
        times = [p.estimate.total for p in pts]
        assert times == sorted(times, reverse=True)

    def test_best_config_is_argmin(self):
        st, dims = _dims("ogbn-products")
        model = PlexusAnalytic(st, dims, PERLMUTTER)
        cfg, est = best_plexus_config(model, 16)
        from repro.core import factor_triples

        assert est.total == min(model.epoch_estimate(c).total for c in factor_triples(16))
        assert cfg.total == 16

    def test_double_permutation_faster_than_none(self):
        st, dims = _dims("products-14m")
        cfg = GridConfig(4, 4, 4)
        t_double = PlexusAnalytic(st, dims, PERLMUTTER, permutation="double").epoch_estimate(cfg).total
        t_none = PlexusAnalytic(st, dims, PERLMUTTER, permutation="none").epoch_estimate(cfg).total
        assert t_double < t_none

    def test_blocking_reduces_comm_and_comp_on_isolate(self):
        """Fig. 6 left: both components must drop."""
        st, dims = _dims("isolate-3-8m")
        cfg, _ = best_plexus_config(PlexusAnalytic(st, dims, PERLMUTTER), 16)
        d = PlexusAnalytic(st, dims, PERLMUTTER, aggregation_blocks=1).epoch_estimate(cfg)
        b = PlexusAnalytic(st, dims, PERLMUTTER, aggregation_blocks=32).epoch_estimate(cfg)
        assert b.comm < d.comm
        assert b.comp < d.comp

    def test_gemm_tuning_removes_grad_w_cost_on_frontier(self):
        """Fig. 6 right: grad_W goes from tens of ms to negligible."""
        st, dims = _dims("products-14m")
        cfg, _ = best_plexus_config(PlexusAnalytic(st, dims, FRONTIER), 512)
        u = PlexusAnalytic(st, dims, FRONTIER, tune_dw_gemm=False).epoch_estimate(cfg)
        t = PlexusAnalytic(st, dims, FRONTIER, tune_dw_gemm=True).epoch_estimate(cfg)
        assert u.detail["gemm_dw"] > 0.02
        assert t.detail["gemm_dw"] < 0.005
        assert t.total < u.total

    def test_tuning_is_noop_on_perlmutter(self):
        st, dims = _dims("products-14m")
        cfg = GridConfig(4, 8, 4)
        u = PlexusAnalytic(st, dims, PERLMUTTER, tune_dw_gemm=False).epoch_estimate(cfg)
        t = PlexusAnalytic(st, dims, PERLMUTTER, tune_dw_gemm=True).epoch_estimate(cfg)
        assert abs(u.total - t.total) / t.total < 0.2

    def test_frontier_slower_at_small_scale(self):
        """Sec. 7.2: ROCm SpMM an order of magnitude slower."""
        st, dims = _dims("reddit")
        p = best_plexus_config(PlexusAnalytic(st, dims, PERLMUTTER), 4)[1].total
        f = best_plexus_config(PlexusAnalytic(st, dims, FRONTIER), 4)[1].total
        assert f > 5 * p

    def test_frontier_scales_further(self):
        """Sec. 7.2: compute-heavier Frontier keeps scaling where
        Perlmutter has flattened (relative speedup 4 -> 128 devices)."""
        st, dims = _dims("ogbn-products")
        def rel_speedup(machine):
            a = best_plexus_config(PlexusAnalytic(st, dims, machine), 4)[1].total
            b = best_plexus_config(PlexusAnalytic(st, dims, machine), 128)[1].total
            return a / b
        assert rel_speedup(FRONTIER) > rel_speedup(PERLMUTTER)

    def test_memory_decreases_with_gpus(self):
        st, dims = _dims("ogbn-papers100m")
        m = PlexusAnalytic(st, dims, PERLMUTTER)
        assert m.memory_per_rank(GridConfig(8, 8, 8)) < m.memory_per_rank(GridConfig(2, 2, 2))


class TestBaselineAnalytics:
    def test_bns_u_shape(self):
        """BNS-GCN must improve then collapse (Fig. 8, products-14M)."""
        st, dims = _dims("products-14m")
        model = bns_analytic(st, dims, PERLMUTTER)
        t32 = model.epoch_estimate(32).total
        t64 = model.epoch_estimate(64).total
        t1024 = model.epoch_estimate(1024).total
        assert t64 < t32
        assert t1024 > 2 * t64

    def test_bns_beats_plexus_small_scale_loses_large(self):
        """The Fig. 8/9 crossover on products-14M."""
        st, dims = _dims("products-14m")
        bns = bns_analytic(st, dims, PERLMUTTER)
        plexus = PlexusAnalytic(st, dims, PERLMUTTER)
        assert bns.epoch_estimate(32).total < best_plexus_config(plexus, 32)[1].total
        assert bns.epoch_estimate(256).total > 1.5 * best_plexus_config(plexus, 256)[1].total

    def test_sa_no_scaling_on_reddit(self):
        """Fig. 8: SA is fastest at 4 GPUs but flat beyond."""
        st, dims = _dims("reddit")
        sa = sa_analytic(st, dims, PERLMUTTER)
        plexus = PlexusAnalytic(st, dims, PERLMUTTER)
        assert sa.epoch_estimate(4).total < best_plexus_config(plexus, 4)[1].total
        # no scaling: 8 -> 128 GPUs barely helps
        assert sa.epoch_estimate(128).total > 0.5 * sa.epoch_estimate(8).total

    def test_plexus_only_framework_scaling_to_128_on_reddit(self):
        st, dims = _dims("reddit")
        plexus = PlexusAnalytic(st, dims, PERLMUTTER)
        bns = bns_analytic(st, dims, PERLMUTTER)
        sa = sa_analytic(st, dims, PERLMUTTER)
        p128 = best_plexus_config(plexus, 128)[1].total
        assert p128 < bns.epoch_estimate(128).total
        assert p128 < sa.epoch_estimate(128).total

    def test_sa_oom_reproduces_isolate_failure(self):
        """Sec. 7.1: SA out-of-memory on Isolate-3-8M at small scale."""
        st, dims = _dims("isolate-3-8m")
        sa = sa_analytic(st, dims, PERLMUTTER)
        est = sa.epoch_estimate(16)
        assert est.oom
        assert math.isinf(est.total)

    def test_sa_memory_decreasing_in_p(self):
        st, dims = _dims("products-14m")
        sa = sa_analytic(st, dims, PERLMUTTER)
        assert sa.memory_per_rank(128) < sa.memory_per_rank(8)

    def test_gvb_variant_differs(self):
        st, dims = _dims("products-14m")
        plain = sa_analytic(st, dims, PERLMUTTER).epoch_estimate(64).total
        gvb = sa_analytic(st, dims, PERLMUTTER, gvb=True).epoch_estimate(64).total
        assert plain != gvb

    def test_invalid_p(self):
        st, dims = _dims("reddit")
        with pytest.raises(ValueError):
            bns_analytic(st, dims, PERLMUTTER).epoch_estimate(0)
