"""Tests for the distributed loss/accuracy and trainer plumbing."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer
from repro.core.batch import cube_boxes
from repro.core.trainer import _class_max, _fold_sum, distributed_accuracy, distributed_masked_ce
from repro.dist import PERLMUTTER, VirtualCluster
from repro.nn import masked_cross_entropy, masked_cross_entropy_grad


def _model(ds, cfg=GridConfig(2, 2, 2), perm="none", dims=None):
    dims = dims or [ds.n_features, 12, ds.n_classes]
    cluster = VirtualCluster(cfg.total, PERLMUTTER)
    return PlexusGCN(
        cluster, cfg, ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, dims,
        PlexusOptions(permutation=perm, seed=0),
    )


class TestDistributedLoss:
    def test_matches_serial_ce_on_forward_logits(self, tiny_products):
        ds = tiny_products
        model = _model(ds)
        logits, _ = model.forward()
        loss, _ = distributed_masked_ce(model, logits)
        # serial: run the same forward serially
        from repro.nn import SerialGCN

        serial = SerialGCN([ds.n_features, 12, ds.n_classes], seed=0)
        s_logits = serial.forward(ds.norm_adjacency, ds.features)
        expected = masked_cross_entropy(s_logits, ds.labels, ds.train_mask)
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_gradient_matches_serial(self, tiny_products):
        ds = tiny_products
        model = _model(ds)
        logits, _ = model.forward()
        _, d_logits = distributed_masked_ce(model, logits)
        from repro.nn import SerialGCN

        serial = SerialGCN([ds.n_features, 12, ds.n_classes], seed=0)
        s_logits = serial.forward(ds.norm_adjacency, ds.features)
        expected = masked_cross_entropy_grad(s_logits, ds.labels, ds.train_mask)
        # reassemble the sharded gradient
        final = model.shardings[-1]
        for r in range(model.grid.world_size):
            rows = final.out_row_slice(model.grid, r)
            cols = final.out_col_slice(model.grid, r)
            np.testing.assert_allclose(d_logits[r], expected[rows, cols], atol=1e-10)

    def test_loss_identical_across_ranks_with_class_sharding(self, tiny_products):
        """Classes sharded over a >1 x-role axis still give one global loss."""
        ds = tiny_products
        model = _model(ds, cfg=GridConfig(4, 1, 2))
        logits, _ = model.forward()
        loss, _ = distributed_masked_ce(model, logits)
        assert np.isfinite(loss)

    def test_empty_train_mask_raises(self, tiny_products):
        ds = tiny_products
        cluster = VirtualCluster(8, PERLMUTTER)
        model = PlexusGCN(
            cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels,
            np.zeros(ds.n_nodes, dtype=bool), [ds.n_features, 12, ds.n_classes], PlexusOptions(),
        )
        logits, _ = model.forward()
        with pytest.raises(ValueError):
            distributed_masked_ce(model, logits)


class TestClassAxisFolds:
    """The loss folds the class columns as whole row vectors instead of
    reducing along the narrow class axis.  The maximum is exact in any order;
    the sum must be numpy's own ``.sum(axis=-1)`` bit for bit — the per-rank
    oracle sums each row with it — so the fold replays numpy's pairwise
    order: sequential below 8 columns, 8 accumulators up to 128, halves
    split at a multiple of 8 beyond.  **The rule: every column count, both
    dtypes, and the strided ``cube[..., :c]`` views the loss hands it.**"""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        c=st.integers(1, 300),
        pad=st.integers(0, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    # every branch edge: 7 | 8, 15 | 16, 128 | 129, 136, one past it, the top
    @example(c=7, pad=0, dtype=np.float64, seed=0)
    @example(c=8, pad=1, dtype=np.float32, seed=1)
    @example(c=16, pad=2, dtype=np.float64, seed=2)
    @example(c=128, pad=0, dtype=np.float32, seed=3)
    @example(c=129, pad=3, dtype=np.float64, seed=4)
    @example(c=137, pad=0, dtype=np.float32, seed=5)
    @example(c=300, pad=1, dtype=np.float64, seed=6)
    def test_folds_equal_numpy_reductions(self, c, pad, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (2, 3, 5, c + pad)
        # magnitudes spread so that the order of additions shows in the last bits
        base = (rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, size=shape)).astype(dtype)
        boxes = cube_boxes((2, 3, 1), (2, 3, 1), c)
        for v in (np.ascontiguousarray(base[..., :c]), base[..., :c]):  # tight, column-strided
            summed = _fold_sum(v, np.empty(v.shape[:-1], dtype))
            assert summed.tobytes() == v.sum(axis=-1).tobytes()
            top = _class_max(v[:, :, None], boxes)[:, :, 0]
            assert top.tobytes() == v.max(axis=-1).tobytes()
        # the class boxes bound the fold: pad columns never reach a maximum
        assert _class_max(base[:, :, None], boxes).tobytes() == base[..., :c].max(axis=-1).tobytes()


class TestLossBudget:
    def test_one_loss_call_stays_within_the_parents_python_calls(self):
        """A deterministic count (``sys.setprofile``) of one loss call on the
        benchmark's ``toy128`` geometry — N=128, dims 32-32-32-16, X4Y4Z4:
        the label plan is cached and nothing on the class axis calls back
        into Python.  134 before the folds and the plan, 106 after."""
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
        logits, _ = model.forward()
        distributed_masked_ce(model, logits)  # the plan is built once
        calls = 0

        def profiler(_frame, event, _arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            distributed_masked_ce(model, logits)
        finally:
            sys.setprofile(previous)
        assert calls <= 134, calls


class TestDistributedAccuracy:
    @pytest.mark.parametrize("perm", ["none", "double"])
    def test_matches_serial_accuracy(self, tiny_products, perm):
        ds = tiny_products
        model = _model(ds, perm=perm)
        trainer = PlexusTrainer(model)
        acc = trainer.evaluate(ds.test_mask)
        from repro.nn import SerialGCN, accuracy

        serial = SerialGCN([ds.n_features, 12, ds.n_classes], seed=0)
        s_logits = serial.forward(ds.norm_adjacency, ds.features)
        expected = accuracy(s_logits, ds.labels, ds.test_mask)
        assert acc == pytest.approx(expected, abs=1e-12)

    def test_class_sharded_accuracy(self, tiny_products):
        ds = tiny_products
        model = _model(ds, cfg=GridConfig(4, 2, 1))
        acc = PlexusTrainer(model).evaluate(ds.val_mask)
        from repro.nn import SerialGCN, accuracy

        serial = SerialGCN([ds.n_features, 12, ds.n_classes], seed=0)
        expected = accuracy(serial.forward(ds.norm_adjacency, ds.features), ds.labels, ds.val_mask)
        assert acc == pytest.approx(expected, abs=1e-12)


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "cfg, n, classes",
        [
            (GridConfig(2, 1, 4), 48, 8),  # uniform: two class columns per shard
            (GridConfig(1, 2, 4), 49, 8),  # ragged rows (25 / 24)
            (GridConfig(1, 2, 4), 48, 3),  # 4 class shards, 3 classes: one rank owns no column
            (GridConfig(1, 3, 2), 49, 7),  # ragged rows and ragged class columns
        ],
    )
    def test_ties_resolve_like_argmax_over_the_gathered_row(self, cfg, n, classes, dtype):
        """Small-integer logits: most rows attain their maximum in several
        class shards at once, and the prediction must be the lowest class
        index among them — what ``argmax`` over the whole row answers."""
        from repro.core.batch import stack_shards
        from repro.graph.generators import rmat_graph
        from repro.sparse.ops import gcn_normalize

        rng = np.random.default_rng(5)
        a = gcn_normalize(rmat_graph(n, avg_degree=4, seed=1))
        labels = rng.integers(0, classes, n)
        model = PlexusGCN(
            VirtualCluster(cfg.total, PERLMUTTER), cfg, a, rng.standard_normal((n, 8)),
            labels, np.ones(n, dtype=bool), [8, 6, classes],
            PlexusOptions(permutation="none", seed=0, compute_dtype=dtype),
        )
        logits = rng.integers(0, 3, (n, classes)).astype(dtype)
        mask = rng.random(n) < 0.7
        final, grid = model.shardings[-1], model.grid
        ranks = range(grid.world_size)
        # the premise: rows whose maximum sits in more than one class shard
        col_shards = {(s.start, s.stop) for s in (final.out_col_slice(grid, r) for r in ranks)}
        attained = logits == logits.max(axis=1, keepdims=True)
        assert (sum(attained[:, c0:c1].any(axis=1) for c0, c1 in col_shards) > 1).sum() > n // 4
        stacked = stack_shards(
            [logits[final.out_row_slice(grid, r), final.out_col_slice(grid, r)] for r in ranks]
        )
        acc = distributed_accuracy(
            model, stacked, [mask[final.out_row_slice(grid, r)] for r in ranks]
        )
        assert acc == float((logits.argmax(axis=1) == labels)[mask].mean())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ragged_matches_serial_accuracy(self, tiny_products, dtype):
        """Indivisible N and classes (padded logits), both dtypes: the
        serial model's argmax accuracy."""
        from repro.nn import SerialGCN, accuracy

        ds = tiny_products
        cfg = GridConfig(3, 2, 2)
        dims = [ds.n_features, 13, ds.n_classes]
        model = PlexusGCN(
            VirtualCluster(cfg.total, PERLMUTTER), cfg, ds.norm_adjacency,
            ds.features.astype(dtype), ds.labels, ds.train_mask, dims,
            PlexusOptions(seed=0, compute_dtype=dtype),
        )
        assert model.layers[0].w_stack.rows is not None
        serial = SerialGCN(dims, seed=0)
        s_logits = serial.forward(ds.norm_adjacency, ds.features)
        expected = accuracy(s_logits, ds.labels, ds.test_mask)
        assert PlexusTrainer(model).evaluate(ds.test_mask) == pytest.approx(expected, abs=1e-12)


class TestEvaluateNoCharge:
    """`evaluate` drives the engine but must not pollute the timing record."""

    @pytest.mark.parametrize("cfg", [GridConfig(2, 2, 2), GridConfig(4, 1, 2)])
    def test_evaluate_leaves_clocks_unchanged(self, tiny_products, cfg):
        ds = tiny_products
        model = _model(ds, cfg=cfg)
        trainer = PlexusTrainer(model)
        trainer.train(2)
        cluster = model.cluster
        t0 = cluster.max_clock()
        clocks0 = cluster.clocks.copy()
        comm0 = cluster.category_totals("comm:")
        comp0 = cluster.category_totals("comp:")
        trainer.evaluate(ds.val_mask)
        assert cluster.max_clock() == t0
        assert np.array_equal(cluster.clocks, clocks0)
        assert np.array_equal(cluster.category_totals("comm:"), comm0)
        assert np.array_equal(cluster.category_totals("comp:"), comp0)

    def test_evaluate_between_epochs_does_not_skew_epoch_stats(self, tiny_products):
        """Interleaving evaluate with training gives the same epoch record
        as training straight through."""
        ds = tiny_products
        interleaved = PlexusTrainer(_model(ds))
        straight = PlexusTrainer(_model(ds))
        stats_a = []
        for _ in range(3):
            stats_a.append(interleaved.train_epoch())
            interleaved.evaluate(ds.val_mask)
        stats_b = [straight.train_epoch() for _ in range(3)]
        for ea, eb in zip(stats_a, stats_b):
            assert ea == eb

    def test_evaluate_consumes_no_noise_draws(self, tiny_products):
        """With the stochastic SpMM noise model, interleaved evaluations
        leave the epochs' charged kernel times equal to a straight-through
        run's: a draw is keyed by the Adam step, so an evaluation forward
        takes nothing away from the next epoch."""
        from repro.core import SpmmNoise

        ds = tiny_products

        def noisy_model():
            from repro.core import GridConfig, PlexusGCN, PlexusOptions
            from repro.dist import PERLMUTTER, VirtualCluster

            cluster = VirtualCluster(8, PERLMUTTER)
            return PlexusGCN(
                cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features,
                ds.labels, ds.train_mask, [ds.n_features, 12, ds.n_classes],
                PlexusOptions(seed=0, noise=SpmmNoise(threshold_nnz=1, sigma=0.5)),
            )

        interleaved = PlexusTrainer(noisy_model())
        straight = PlexusTrainer(noisy_model())
        stats_a = []
        for _ in range(3):
            stats_a.append(interleaved.train_epoch())
            interleaved.evaluate(ds.val_mask)
        stats_b = [straight.train_epoch() for _ in range(3)]
        for ea, eb in zip(stats_a, stats_b):
            assert ea == eb
        a, b = interleaved.model.cluster.store, straight.model.cluster.store
        assert np.array_equal(a.clocks, b.clocks) and a.links == b.links
        assert a.by_phase["comp:spmm_fwd"].tolist() == b.by_phase["comp:spmm_fwd"].tolist()


class TestTrainerPlumbing:
    def test_zero_epochs_rejected(self, tiny_products):
        trainer = PlexusTrainer(_model(tiny_products))
        with pytest.raises(ValueError):
            trainer.train(0)

    def test_losses_accessible(self, tiny_products):
        result = PlexusTrainer(_model(tiny_products)).train(3)
        assert len(result.losses) == 3
        assert all(np.isfinite(l) for l in result.losses)

    def test_loss_decreases_over_training(self, tiny_products):
        result = PlexusTrainer(_model(tiny_products)).train(12)
        assert result.losses[-1] < result.losses[0]


class TestAllocatorPin:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator")
    def test_steady_state_epochs_take_no_page_faults(self):
        """Dense layers whose per-epoch temporaries exceed glibc's default
        128 KiB mmap threshold (the workers' twin:
        ``test_workers_do_not_page_fault_in_steady_state``): a trainer pins
        the allocator of its process, so whether the heap top is trimmed
        between epochs — and re-faulted: thousands of minor faults per epoch
        — no longer depends on what set-up happened to free."""
        import resource

        from repro.graph.features import degree_labels, random_split_masks, synth_features
        from repro.graph.generators import rmat_graph
        from repro.sparse.ops import gcn_normalize

        cfg, n, dims = GridConfig(4, 4, 4), 768, [96, 96, 96, 96]
        a = gcn_normalize(rmat_graph(n, avg_degree=8, seed=7))
        mask, _, _ = random_split_masks(n, seed=10)
        model = PlexusGCN(
            VirtualCluster(cfg.total, PERLMUTTER), cfg, a,
            synth_features(n, dims[0], seed=8, dtype=np.float32),
            degree_labels(a, dims[-1], seed=9), mask, dims,
            PlexusOptions(seed=0, compute_dtype=np.float32),
        )
        trainer = PlexusTrainer(model)
        trainer.train(3)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train(5)
        assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5 < 50


class TestInterpreterBudget:
    """Indivisible is the normal case: it may not cost a loop over ranks."""

    @staticmethod
    def _python_calls_per_epoch(n: int, dims: list[int]) -> int:
        from repro.graph.features import degree_labels, random_split_masks, synth_features
        from repro.graph.generators import rmat_graph
        from repro.sparse.ops import gcn_normalize

        cfg = GridConfig(4, 4, 4)
        a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=7))
        mask, _, _ = random_split_masks(n, seed=10)
        model = PlexusGCN(
            VirtualCluster(cfg.total, PERLMUTTER), cfg, a,
            synth_features(n, dims[0], seed=8, dtype=np.float32),
            degree_labels(a, dims[-1], seed=9), mask, dims,
            PlexusOptions(seed=0, compute_dtype=np.float32, overlap=True, aggregation_blocks=4),
        )
        trainer = PlexusTrainer(model)
        trainer.train(3)  # plans cached, layer 0 replaying
        calls = 0

        def profiler(_frame, event, _arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            trainer.train_epoch()
        finally:
            sys.setprofile(previous)
        return calls

    def test_padded_epoch_stays_within_1_3x_the_calls_of_its_uniform_twin(self):
        """A deterministic count (``sys.setprofile``, no timing) on the
        benchmark's ``ragged130`` configuration — N=130, dims 34-34-34-18,
        X4Y4Z4, overlap, 4 aggregation blocks — against the same model at
        N=128, dims 32-32-32-16.  Per-rank bucketing made it 2.05x."""
        padded = self._python_calls_per_epoch(130, [34, 34, 34, 18])
        uniform = self._python_calls_per_epoch(128, [32, 32, 32, 16])
        assert padded <= 1.3 * uniform, (padded, uniform)
