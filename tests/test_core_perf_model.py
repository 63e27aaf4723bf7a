"""Tests for the Sec. 4 performance model: Eq. 4.4 terms, the regression
fit, the Eq. 4.5-4.6 communication model, and config selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GridConfig, select_best_config
from repro.core.perf_model import (
    PAPER_COEFFICIENTS_MS,
    CommModel,
    CompModel,
    PerformanceModel,
    SpmmRegression,
    fit_spmm_regression,
    regression_validation,
)
from repro.dist import PERLMUTTER
from repro.graph import dataset_stats

ST = dataset_stats("ogbn-products")
DIMS = [ST.features, 128, 128, ST.classes]


class TestCompModel:
    def test_layer_terms_hand_computed(self):
        comp = CompModel(ST, DIMS)
        cfg = GridConfig(64, 1, 1)  # config U
        t = comp.layer_terms(cfg, 0)
        root = np.sqrt(float(ST.nonzeros) * ST.features)
        fwd = (ST.nodes / 64) * (1 / ST.features)
        bwd = ST.nodes * (1 / ST.features)
        np.testing.assert_allclose(t, [root, root * fwd, root * bwd])

    def test_roles_rotate_across_layers(self):
        comp = CompModel(ST, DIMS)
        cfg = GridConfig(64, 1, 1)
        # layer 1's x-role is Z (size 1), so fwd_penalty uses N/1
        t0 = comp.layer_terms(cfg, 0)
        t1 = comp.layer_terms(cfg, 1)
        assert t1[1] > t0[1]

    def test_terms_sum_over_layers(self):
        comp = CompModel(ST, DIMS)
        cfg = GridConfig(4, 4, 4)
        total = comp.terms(cfg)
        parts = sum(comp.layer_terms(cfg, i) for i in range(3))
        np.testing.assert_allclose(total, parts)

    def test_flops_term_constant_across_configs(self):
        """Eq. 4.3: the FLOPs term does not depend on the factorization."""
        comp = CompModel(ST, DIMS)
        t1 = comp.terms(GridConfig(64, 1, 1))[0]
        t2 = comp.terms(GridConfig(1, 64, 1))[0]
        t3 = comp.terms(GridConfig(4, 4, 4))[0]
        assert t1 == t2 == t3

    def test_tall_skinny_config_penalized(self):
        """Config V (Gy=64) must cost more than config U (Gx=64)."""
        comp = CompModel(ST, DIMS)
        assert comp.terms(GridConfig(1, 64, 1)).sum() > comp.terms(GridConfig(64, 1, 1)).sum()

    def test_paper_coefficients_scale(self):
        """With the paper's coefficients, layer-0 SpMM for ogbn-products is
        ~88 ms of flat cost — the magnitude their fit implies."""
        reg = SpmmRegression.paper_default()
        comp = CompModel(ST, [ST.features, ST.features])  # single layer, D=100
        pred = reg.predict(comp.terms(GridConfig(64, 1, 1)))
        assert 0.05 < pred < 0.15


class TestRegression:
    def test_fit_recovers_planted_coefficients(self, rng):
        true = np.array([5e-4, 2e-10, -1e-10])
        x = np.abs(rng.standard_normal((60, 3))) * np.array([1e5, 1e11, 1e11])
        y = x @ true
        reg = fit_spmm_regression(x, y)
        np.testing.assert_allclose(reg.coefficients, true, rtol=1e-6)

    def test_prediction_clipped_at_zero(self):
        reg = SpmmRegression((0.0, 0.0, -1.0))
        assert reg.predict(np.array([1.0, 1.0, 1.0])) == 0.0

    def test_fit_validates_shapes(self, rng):
        with pytest.raises(ValueError):
            fit_spmm_regression(rng.standard_normal((5, 2)), rng.standard_normal(5))
        with pytest.raises(ValueError):
            fit_spmm_regression(rng.standard_normal((5, 3)), rng.standard_normal(4))
        with pytest.raises(ValueError):
            fit_spmm_regression(rng.standard_normal((2, 3)), rng.standard_normal(2))

    def test_validation_protocol_on_clean_data(self, rng):
        true = np.array([5e-4, 2e-10, -1e-10])
        x = np.abs(rng.standard_normal((40, 3))) * np.array([1e5, 1e11, 1e11])
        y = x @ true + rng.standard_normal(40) * 1e-4
        stats = regression_validation(x, y, iterations=20)
        assert stats["r2_train"] > 0.9
        assert stats["r2_test"] > 0.8
        assert stats["rmse_test"] < 1.0

    def test_paper_default_coefficients(self):
        reg = SpmmRegression.paper_default()
        np.testing.assert_allclose(reg.coefficients, [c * 1e-3 for c in PAPER_COEFFICIENTS_MS])

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_property_fit_is_lstsq_optimal(self, seed):
        rng = np.random.default_rng(seed)
        x = np.abs(rng.standard_normal((20, 3))) + 0.1
        y = rng.standard_normal(20)
        reg = fit_spmm_regression(x, y)
        base = np.sum((y - x @ np.asarray(reg.coefficients)) ** 2)
        for _ in range(5):
            perturbed = np.asarray(reg.coefficients) + rng.standard_normal(3) * 1e-3
            assert np.sum((y - x @ perturbed) ** 2) >= base - 1e-9


class TestCommModel:
    def test_single_gpu_is_communication_free(self):
        comm = CommModel(ST, DIMS, PERLMUTTER)
        assert comm.epoch_comm_time(GridConfig(1, 1, 1)) == 0.0

    def test_positive_for_parallel_configs(self):
        comm = CommModel(ST, DIMS, PERLMUTTER)
        for cfg in (GridConfig(4, 1, 1), GridConfig(1, 4, 1), GridConfig(1, 1, 4)):
            assert comm.epoch_comm_time(cfg) > 0

    def test_scales_with_graph_size(self):
        big = dataset_stats("ogbn-papers100m")
        small = dataset_stats("reddit")
        cfg = GridConfig(4, 4, 4)
        t_big = CommModel(big, [128, 128, 128, 32], PERLMUTTER).epoch_comm_time(cfg)
        t_small = CommModel(small, [128, 128, 128, 32], PERLMUTTER).epoch_comm_time(cfg)
        assert t_big > t_small

    def test_frozen_features_skip_layer0_df(self):
        t_train = CommModel(ST, DIMS, PERLMUTTER, trainable_features=True).epoch_comm_time(GridConfig(2, 2, 2))
        t_frozen = CommModel(ST, DIMS, PERLMUTTER, trainable_features=False).epoch_comm_time(GridConfig(2, 2, 2))
        assert t_frozen < t_train


class TestSelection:
    def test_returns_valid_factorizations(self):
        ranked = select_best_config(64, ST, DIMS, PERLMUTTER, top_k=5)
        assert len(ranked) == 5
        for cfg, t in ranked:
            assert cfg.total == 64
            assert t >= 0

    def test_ranking_sorted(self):
        ranked = select_best_config(64, ST, DIMS, PERLMUTTER, top_k=28)
        times = [t for _, t in ranked]
        assert times == sorted(times)

    def test_3d_beats_extreme_1d(self):
        """Fig. 5: 3D configurations outperform 1D ones for ogbn-products."""
        model = PerformanceModel.build(ST, DIMS, PERLMUTTER)
        best_3d = min(
            model.predict_epoch_time(c) for c in [GridConfig(4, 4, 4), GridConfig(2, 8, 4), GridConfig(4, 8, 2)]
        )
        worst_1d = max(
            model.predict_epoch_time(c) for c in [GridConfig(64, 1, 1), GridConfig(1, 64, 1), GridConfig(1, 1, 64)]
        )
        assert best_3d < worst_1d

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            select_best_config(8, ST, DIMS, PERLMUTTER, top_k=0)
