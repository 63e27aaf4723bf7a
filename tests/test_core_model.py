"""The central correctness suite: the 3D-parallel model must reproduce the
serial reference exactly for every grid configuration, permutation scheme
and optimization flag — Sec. 3's 'no approximation' property, which Fig. 7
demonstrates and these tests assert to float64 tolerance."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, SpmmNoise
from repro.dist import PERLMUTTER, VirtualCluster
from repro.nn import Adam, SerialGCN

ATOL = 1e-9


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

    @pytest.mark.parametrize(
        "cfg, n, dims, opts, memory",
        [
            (GridConfig(4, 4, 4), 128, [32, 32, 32, 16], {},
             ([2180, 2052, 1652, 2388, 2044, 1940, 1668, 2308], 119360)),
            (GridConfig(2, 2, 2), 49, [8, 8, 8, 4], {"permutation": "none"}, None),
            (GridConfig(2, 2, 2), 72, [8] * 5 + [4],
             {"aggregation_blocks": 4, "permutation": "single"}, None),
            (GridConfig(2, 2, 2), 72, [8] * 5 + [4], {"permutation": "double"}, None),
        ],
        ids=["X4Y4Z4", "padded", "blocks", "double"],
    )
    def test_shards_cut_from_the_plans_are_the_oracles_cut(self, cfg, n, dims, opts, memory):
        """No layer stores a shard list: ``layer.a_shards`` is cut back out of
        its forward plan (whole or per row block) and equals the oracle's own
        cut of the permuted adjacency bitwise, one object per distinct
        ``(row, col)`` block of A — ranks along the y-role share it — while
        ``memory_per_rank`` still bills every rank its own copy (values pinned
        from the per-rank cut of an earlier commit), also once layer 0 has
        released its plan."""
        from oracle import PerRankOracle

        from repro.graph.features import degree_labels, random_split_masks, synth_features
        from repro.graph.generators import rmat_graph
        from repro.sparse.ops import gcn_normalize

        a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=7))
        mask, _, _ = random_split_masks(n, seed=10)
        args = (
            cfg, a, synth_features(n, dims[0], seed=8, dtype=np.float32),
            degree_labels(a, dims[-1], seed=9), mask, dims,
            PlexusOptions(seed=0, compute_dtype=np.float32, **opts),
        )
        model = PlexusGCN(VirtualCluster(cfg.total, PERLMUTTER), *args)
        oracle = PerRankOracle(VirtualCluster(cfg.total, PERLMUTTER), *args)
        for layer, ours in zip(model.layers, oracle.layers):
            assert not any(
                isinstance(v, list) and any(sp.issparse(x) for x in v) for v in vars(layer).values()
            )
            shards, by_block = layer.a_shards, {}
            for r, (shard, cut) in enumerate(zip(shards, ours.a_shards)):
                rows = layer.sharding.a_row_slice(model.grid, r)
                cols = layer.sharding.a_col_slice(model.grid, r)
                assert by_block.setdefault((rows.start, cols.start), shard) is shard
                assert shard.shape == cut.shape
                assert np.array_equal(shard.indptr, cut.indptr)
                assert np.array_equal(shard.indices, cut.indices)
                assert shard.data.tobytes() == cut.data.tobytes()
            assert len({id(s) for s in shards}) == len(by_block) == cfg.total // cfg.size(layer.roles.y)
        if memory is not None:
            PlexusTrainer(model).train_epoch()
            assert model.memory_per_rank()[:8] == memory[0]
            assert sum(model.memory_per_rank()) == memory[1]

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
        epochs and the peak of the third stay within 2 % of what the SpMM
        plans alone cost as the graph's only copy, with every activation
        freed at its last reader (measured 10 952 880 / 17 521 601 B; a
        21 979 766 B peak while each hidden layer cached Q beside relu(Q)
        and H, dH and the logits lived through all of backward;
        16 252 935 / 29 377 035 B when the per-rank shard sets were kept
        beside the plans, 35 397 971 / 50 634 551 B with per-rank block
        plans, a stored A^T and a stored permuted adjacency).  A frozen
        layer 0 holds no plan once its one forward has run, and its released
        plan refuses any use."""
        import gc
        import tracemalloc

        from repro.errors import PlanReleased
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
            model.forward()
            layer0 = model.layers[0]
            assert layer0._bd_at is None and [plan.nbytes for _, _, plan in layer0._agg_steps] == [0]
            with pytest.raises(PlanReleased):
                layer0.a_shards
            trainer.train(2)
            gc.collect()
            steady = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trainer.train_epoch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steady <= 11_200_000 and peak <= 17_880_000, (steady, peak)
        # ... of which the graph: two forward plans (layer 0's is released)
        # and two A^T ones, each a.nnz (float32, int32) pairs and its row pointers
        assert 4 * (8 * a.nnz) <= model.adjacency_bytes() <= 4 * (8 * a.nnz) + 2**20

    @pytest.mark.parametrize("trainable", [False, True])
    def test_an_activation_dies_at_its_last_reader(self, ds, dims, trainable):
        """The cache contract: a hidden layer caches its output relu(Q) —
        the next layer's F itself, not a copy and not Q beside it; after
        forward every cache holds populated stacks (the seam microbenchmarks
        read ``caches[1].f/.h/.q``), after the loss and backward none, and
        every activation a frozen layer 0 does not hold is freed."""
        import weakref

        from repro.core.trainer import distributed_masked_ce

        model = PlexusGCN(
            VirtualCluster(8, PERLMUTTER), GridConfig(2, 2, 2), ds.norm_adjacency, ds.features,
            ds.labels, ds.train_mask, dims, PlexusOptions(seed=0, trainable_features=trainable),
        )
        logits, caches = model.forward()
        assert caches[-1].q is logits
        assert all(c.q is after.f and not (c.q.cube < 0).any() for c, after in zip(caches, caches[1:]))
        # the gauge: every F and H, and the logits — no Q beside its relu(Q)
        owned = sum(c.f.cube.nbytes + c.h.cube.nbytes for c in caches) + logits.cube.nbytes
        assert model.activation_bytes(caches) == owned
        stacks = [s for c in caches for s in (c.f, c.h, c.q)]
        assert all(s.cube.size and not s.cube.flags.writeable for s in stacks)
        frozen = model.layers[0]._frozen
        held = set() if frozen is None else {id(frozen.f.cube), id(frozen.h.cube)}
        assert (frozen is None) == trainable
        refs = [weakref.ref(s.cube) for s in stacks if id(s.cube) not in held]
        del stacks
        _, d_logits = distributed_masked_ce(model, logits)
        del logits
        caches[-1].q = None
        model.backward(d_logits, caches)
        assert caches == [None] * model.n_layers
        assert [ref() for ref in refs] == [None] * len(refs)

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
