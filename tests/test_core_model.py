"""The central correctness suite: the 3D-parallel model must reproduce the
serial reference exactly for every grid configuration, permutation scheme
and optimization flag — Sec. 3's 'no approximation' property, which Fig. 7
demonstrates and these tests assert to float64 tolerance."""

import numpy as np
import pytest

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, SpmmNoise
from repro.dist import PERLMUTTER, VirtualCluster
from repro.nn import Adam, SerialGCN

ATOL = 1e-9


def layer_adjacency(model, layer, a_norm):
    """The permuted global adjacency ``layer`` was cut from, recomputed (the
    model keeps none)."""
    version = layer.layer_idx % 2 if model.scheme.kind == "double" else 0
    return model.scheme.permuted_adjacency(a_norm, version).astype(model.dtype)


def _serial_losses(ds, dims, epochs, lr=1e-2, trainable=False, seed=0):
    model = SerialGCN(dims, seed=seed, trainable_features=trainable)
    feats = ds.features.copy()
    opt = Adam(model.parameters(feats), lr=lr)
    return [model.train_step(ds.norm_adjacency, feats, ds.labels, ds.train_mask, opt) for _ in range(epochs)]


def _plexus_losses(ds, dims, cfg, epochs, **opt_kwargs):
    options = PlexusOptions(seed=0, lr=1e-2, **opt_kwargs)
    cluster = VirtualCluster(cfg.total, PERLMUTTER)
    model = PlexusGCN(cluster, cfg, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, options)
    return PlexusTrainer(model).train(epochs).losses, model


@pytest.fixture(scope="module")
def ds(tiny_products):
    return tiny_products


@pytest.fixture(scope="module")
def dims(tiny_products):
    return [tiny_products.n_features, 12, 12, tiny_products.n_classes]


@pytest.fixture(scope="module")
def serial4(tiny_products, dims):
    return _serial_losses(tiny_products, dims, epochs=4)


class TestExactness:
    @pytest.mark.parametrize(
        "cfg",
        ["X2Y2Z2", "X4Y2Z1", "X1Y4Z2", "X2Y1Z4", "X8Y1Z1", "X1Y8Z1", "X1Y1Z8", "X4Y1Z2", "X1Y2Z4"],
    )
    def test_all_grid_configs_match_serial(self, ds, dims, serial4, cfg):
        losses, _ = _plexus_losses(ds, dims, GridConfig.parse(cfg), epochs=4, permutation="double")
        np.testing.assert_allclose(losses, serial4, atol=ATOL)

    @pytest.mark.parametrize("perm", ["none", "single", "double"])
    def test_all_permutation_schemes_match_serial(self, ds, dims, serial4, perm):
        losses, _ = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=4, permutation=perm)
        np.testing.assert_allclose(losses, serial4, atol=ATOL)

    def test_blocked_aggregation_exact(self, ds, dims, serial4):
        losses, _ = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=4, aggregation_blocks=4)
        np.testing.assert_allclose(losses, serial4, atol=ATOL)

    def test_gemm_tuning_exact(self, ds, dims, serial4):
        tuned, _ = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=4, tune_dw_gemm=True)
        untuned, _ = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=4, tune_dw_gemm=False)
        np.testing.assert_allclose(tuned, serial4, atol=ATOL)
        np.testing.assert_allclose(untuned, serial4, atol=ATOL)

    def test_noise_does_not_change_numerics(self, ds, dims, serial4):
        losses, _ = _plexus_losses(
            ds, dims, GridConfig(2, 2, 2), epochs=4, noise=SpmmNoise(threshold_nnz=1, sigma=0.5)
        )
        np.testing.assert_allclose(losses, serial4, atol=ATOL)

    def test_trainable_features_match_serial(self, ds, dims):
        serial = _serial_losses(ds, dims, epochs=4, trainable=True)
        losses, _ = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=4, trainable_features=True)
        np.testing.assert_allclose(losses, serial, atol=ATOL)

    def test_trainable_features_with_double_perm_and_blocks(self, ds, dims):
        serial = _serial_losses(ds, dims, epochs=3, trainable=True)
        losses, _ = _plexus_losses(
            ds, dims, GridConfig(2, 2, 2), epochs=3,
            trainable_features=True, permutation="double", aggregation_blocks=3,
        )
        np.testing.assert_allclose(losses, serial, atol=ATOL)

    def test_two_layer_network(self, ds):
        dims2 = [ds.n_features, 10, ds.n_classes]
        serial = _serial_losses(ds, dims2, epochs=3)
        losses, _ = _plexus_losses(ds, dims2, GridConfig(2, 2, 2), epochs=3)
        np.testing.assert_allclose(losses, serial, atol=ATOL)

    def test_five_layer_network(self, ds):
        dims5 = [ds.n_features, 8, 8, 8, 8, ds.n_classes]
        serial = _serial_losses(ds, dims5, epochs=3)
        losses, _ = _plexus_losses(ds, dims5, GridConfig(2, 2, 2), epochs=3)
        np.testing.assert_allclose(losses, serial, atol=ATOL)

    def test_indivisible_dimensions(self, ds):
        """N, D, C all indivisible by the grid: quasi-equal sharding."""
        dims_odd = [ds.n_features, 13, ds.n_classes]  # 24 feats, 13 hidden, 47 classes
        serial = _serial_losses(ds, dims_odd, epochs=3)
        losses, _ = _plexus_losses(ds, dims_odd, GridConfig(3, 2, 2), epochs=3)
        np.testing.assert_allclose(losses, serial, atol=ATOL)

    def test_single_rank_degenerate_grid(self, ds, dims, serial4):
        losses, _ = _plexus_losses(ds, dims, GridConfig(1, 1, 1), epochs=4)
        np.testing.assert_allclose(losses, serial4, atol=ATOL)


class TestModelStructure:
    def test_unique_shardsets_three_layers_double(self, ds, dims):
        _, model = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=1, permutation="double")
        # 3 layers x alternating parity -> all three (plane, parity) combos
        assert model.n_unique_adjacency_shardsets == min(6, 3)

    def test_unique_shardsets_six_layers_double(self, ds):
        dims6 = [ds.n_features] + [8] * 6 + [ds.n_classes]
        # 7 layers: min(6, 7) = 6 distinct shard sets (Sec. 5.1's bound)
        cluster = VirtualCluster(8, PERLMUTTER)
        model = PlexusGCN(cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims6, PlexusOptions(permutation="double"))
        assert model.n_unique_adjacency_shardsets == 6

    def test_unique_shardsets_single_perm(self, ds):
        dims6 = [ds.n_features] + [8] * 6 + [ds.n_classes]
        cluster = VirtualCluster(8, PERLMUTTER)
        model = PlexusGCN(cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims6, PlexusOptions(permutation="single"))
        # one permutation version: min(3, L) planes only
        assert model.n_unique_adjacency_shardsets == 3

    def test_double_perm_memory_at_most_2x_single(self, ds, dims):
        _, m_double = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=1, permutation="double")
        _, m_single = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=1, permutation="single")
        for d, s in zip(m_double.memory_per_rank(), m_single.memory_per_rank()):
            assert d <= 2.2 * s

    def test_memory_shrinks_with_more_ranks(self, ds, dims):
        _, m2 = _plexus_losses(ds, dims, GridConfig(2, 1, 1), epochs=1)
        _, m8 = _plexus_losses(ds, dims, GridConfig(2, 2, 2), epochs=1)
        assert max(m8.memory_per_rank()) < max(m2.memory_per_rank())

    def test_replica_ranks_share_adjacency_shards_but_are_billed_for_them(self):
        """Ranks along a layer's y-role hold the same ``(row, col)`` block of
        A: it is cut once and the ``csr_matrix`` object is shared — with one
        aggregation block the row-block list aliases the shard — every SpMM
        plan (A and A^T) stores one block per distinct shard, and
        ``memory_per_rank`` still bills every rank its own copy (values
        pinned from the per-rank cut of an earlier commit)."""
        from repro.graph.features import degree_labels, random_split_masks, synth_features
        from repro.graph.generators import rmat_graph
        from repro.sparse.ops import gcn_normalize

        cfg, n, dims = GridConfig(4, 4, 4), 128, [32, 32, 32, 16]
        a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=7))
        mask, _, _ = random_split_masks(n, seed=10)
        model = PlexusGCN(
            VirtualCluster(cfg.total, PERLMUTTER), cfg, a,
            synth_features(n, dims[0], seed=8, dtype=np.float32),
            degree_labels(a, dims[-1], seed=9), mask, dims,
            PlexusOptions(seed=0, compute_dtype=np.float32),
        )
        for layer in model.layers:
            assert len({id(s) for s in layer.a_shards}) == 16  # 64 ranks / Gy-role 4
            assert all(blocks == [shard] for blocks, shard in zip(layer._a_blocks, layer.a_shards))
            a_layer = layer_adjacency(model, layer, a)
            for r, shard in enumerate(layer.a_shards):
                rows = layer.sharding.a_row_slice(model.grid, r)
                cols = layer.sharding.a_col_slice(model.grid, r)
                assert (shard != a_layer[rows, cols]).nnz == 0
        # builds the plans: 3 forward, 2 backward (frozen layer 0), of which
        # layer 0's forward one is released after its first backward
        PlexusTrainer(model).train_epoch()
        plans = [
            bd for layer in model.layers for plan in (layer._bd_a, layer._bd_at)
            for bd in plan._stacked_plans.values()
        ]
        assert len(plans) == 4
        for bd in plans:  # a.nnz per plan, where the per-rank block CSR held 4 x
            assert len(bd.data) == a.nnz and bd.nnz == 4 * a.nnz
        assert not hasattr(model, "_perm_a") and not hasattr(model.layers[0], "at_shards")
        memory = model.memory_per_rank()
        assert memory[:8] == [2180, 2052, 1652, 2388, 2044, 1940, 1668, 2308]
        assert sum(memory) == 119360

    def test_quickstart_memory_per_rank_is_pinned(self):
        """The *simulated* per-GPU bytes (adjacency + weight + feature
        shards) on ``examples/quickstart.py``'s configuration: what this
        process stores of the graph may shrink, what a GPU is billed may not
        move."""
        from repro import load_dataset

        ds = load_dataset("ogbn-products", scale="tiny", seed=0)
        dims = [ds.n_features, 64, 64, ds.n_classes]
        model = PlexusGCN(
            VirtualCluster(8, PERLMUTTER), GridConfig(2, 2, 2), ds.norm_adjacency, ds.features,
            ds.labels, ds.train_mask, dims, PlexusOptions(seed=0),
        )
        assert model.memory_per_rank() == [
            200636, 205404, 210152, 214752, 214772, 219372, 224120, 228552
        ]

    def test_the_graph_is_stored_once(self):
        """Memory guard (N = 8 192 R-MAT, X2Y2Z2, float32, ``tracemalloc``
        from model construction on): what the process holds after two
        epochs and the peak of the third stay under 0.65 x what the per-rank
        block plans, the stored A^T, the stored permuted adjacency and caches
        held to the end of ``backward`` cost (35 397 971 / 50 634 551 B),
        less the 1.6 MB forward plan a frozen layer 0 releases after epoch 1
        (measured 17 930 707 -> 16 253 171 / 31 055 602 -> 29 376 981 B)."""
        import gc
        import tracemalloc

        from repro.graph.features import degree_labels, random_split_masks, synth_features
        from repro.graph.generators import rmat_graph
        from repro.sparse.ops import gcn_normalize

        cfg, n, dims = GridConfig(2, 2, 2), 8192, [32, 32, 32, 8]
        a = gcn_normalize(rmat_graph(n, avg_degree=32, seed=7))
        feats = synth_features(n, dims[0], seed=8, dtype=np.float32)
        labels = degree_labels(a, dims[-1], seed=9)
        mask, _, _ = random_split_masks(n, seed=10)
        gc.collect()
        tracemalloc.start()
        try:
            model = PlexusGCN(
                VirtualCluster(cfg.total, PERLMUTTER), cfg, a, feats, labels, mask, dims,
                PlexusOptions(seed=0, compute_dtype=np.float32),
            )
            trainer = PlexusTrainer(model)
            trainer.train(2)
            gc.collect()
            steady = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trainer.train_epoch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steady <= 21_400_000 and peak <= 31_300_000, (steady, peak)
        # ... of which the graph: three shard sets, two forward plans (layer 0's
        # is released) and two backward ones, each a.nnz (float32, int32) pairs
        # and its row pointers
        assert 7 * (8 * a.nnz) <= model.adjacency_bytes() <= 7 * (8 * a.nnz) + 2**20

    def test_invalid_layer_dims(self, ds):
        cluster = VirtualCluster(8, PERLMUTTER)
        with pytest.raises(ValueError):
            PlexusGCN(cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, [ds.n_features])

    def test_feature_dim_mismatch(self, ds):
        cluster = VirtualCluster(8, PERLMUTTER)
        with pytest.raises(ValueError):
            PlexusGCN(cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, [ds.n_features + 1, 8, ds.n_classes])


class TestTimingBehaviour:
    def test_epoch_time_positive_and_finite(self, ds, dims):
        cluster = VirtualCluster(8, PERLMUTTER)
        model = PlexusGCN(cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, PlexusOptions())
        stats = PlexusTrainer(model).train_epoch()
        assert 0 < stats.epoch_time < 10
        assert stats.comm_time >= 0
        assert stats.comp_time > 0

    def test_comm_plus_comp_close_to_epoch(self, ds, dims):
        cluster = VirtualCluster(8, PERLMUTTER)
        model = PlexusGCN(cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, PlexusOptions())
        stats = PlexusTrainer(model).train_epoch()
        assert stats.comm_time + stats.comp_time == pytest.approx(stats.epoch_time, rel=0.05)

    def test_noise_inflates_epoch_time(self, ds, dims):
        base, _ = _timed(ds, dims, None)
        noisy, _ = _timed(ds, dims, SpmmNoise(threshold_nnz=1, sigma=1.0, seed=0))
        assert noisy > base

    def test_mean_epoch_time_skips_warmup(self, ds, dims):
        cluster = VirtualCluster(8, PERLMUTTER)
        model = PlexusGCN(cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims, PlexusOptions())
        result = PlexusTrainer(model).train(5)
        assert result.mean_epoch_time(skip=2) > 0
        comm, comp = result.mean_breakdown(skip=2)
        assert comm >= 0 and comp > 0


def _timed(ds, dims, noise):
    cluster = VirtualCluster(8, PERLMUTTER)
    model = PlexusGCN(
        cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims,
        PlexusOptions(noise=noise),
    )
    stats = PlexusTrainer(model).train_epoch()
    return stats.epoch_time, stats
