"""The rank-batched product vs the per-rank oracle: exact-parity property tests.

``repro.core`` reorganizes every hot-path operation (stacked GEMMs,
block-diagonal SpMM, cube-reshaped axis collectives, stacked Adam) but must
not change a single bit of the float64 computation — the per-rank loop of
``tests/oracle.py`` (one rank and one process-group collective at a time) is
the reference, and Fig. 7's serial-parity check sits on top of it.  These
tests train the same model both ways on random grids up to X3Y2Z2 and assert
bitwise equality of losses, epoch records, weights, trainable features, the
simulated rank clocks and every phase bucket; in float32 mode (the benchmark
dtype) agreement is atol-bounded instead.

One execution path covers everything: divisible sharding runs on plain
ndarray stacks, indivisible (quasi-equal / ragged) sharding on zero-padded
masked stacks, blocked aggregation on per-block stacked SpMM plans.  The
three hypothesis suites below pin the workload family (uniform, ragged,
blocked incl. a 4-layer model) and draw the *product* of everything else:
permutation, overlap, aggregation blocks, the in-flight bound, SpMM noise,
trainable features and the grad-W GEMM form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import PerRankOracle

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, SpmmNoise
from repro.core.batch import (
    BlockDiagSpmm,
    PaddedStack,
    batched_matmul,
    concat_stack_rows,
    stack_data,
    stack_matmul,
    stack_shards,
)
from repro.dist import PERLMUTTER, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.sparse.ops import gcn_normalize, random_sparse

#: divisible by every axis size (1..3) and every pairwise axis product of
#: the grids below, so the uniform single-stack fast path engages
N_NODES = 72
DIMS = [24, 24, 12]

GRIDS = [
    GridConfig(3, 2, 2),
    GridConfig(2, 2, 2),
    GridConfig(3, 1, 2),
    GridConfig(1, 2, 3),
    GridConfig(2, 3, 1),
    GridConfig(1, 1, 1),
]

#: everything a run can vary besides its workload, drawn as a product
OPTIONS = st.fixed_dictionaries(
    {
        "permutation": st.sampled_from(["none", "single", "double"]),
        "overlap": st.booleans(),
        "aggregation_blocks": st.sampled_from([1, 3, 4]),
        "max_inflight": st.sampled_from([None, 1, 2]),
        "noise": st.booleans(),
        "trainable_features": st.booleans(),
        "tune_dw_gemm": st.booleans(),
    }
)


def _dataset(seed, n=N_NODES, dims=DIMS):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=seed))
    feats = synth_features(n, dims[0], seed + 1)
    labels = degree_labels(a, dims[-1], seed + 2)
    train, _, _ = random_split_masks(n, seed + 3)
    return a, feats, labels, train


def _train(build, data, cfg, dims=DIMS, epochs=3, dtype=np.float64, **opts):
    """Train ``build`` — ``PlexusGCN`` (the product, under ``PlexusTrainer``)
    or ``PerRankOracle`` — and return ``(model, result, cluster)``."""
    a, feats, labels, mask = data
    if opts.pop("noise", False):  # one sampler per run: the stream is stateful
        opts["noise"] = SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11)
    cluster = VirtualCluster(cfg.total, PERLMUTTER)
    model = build(
        cluster, cfg, a, feats.astype(dtype), labels, mask, dims,
        PlexusOptions(seed=0, compute_dtype=dtype, **opts),
    )
    trainer = PlexusTrainer(model) if build is PlexusGCN else model
    return model, trainer.train(epochs), cluster


def _assert_bitwise(data, cfg, dims=DIMS, **opts):
    """Product == oracle: losses and epoch records, every weight and input
    feature shard, per-rank clocks, comm/comp totals, every phase bucket."""
    mb, rb, cb = _train(PlexusGCN, data, cfg, dims, **opts)
    mo, ro, co = _train(PerRankOracle, data, cfg, dims, **opts)
    assert rb.losses == ro.losses
    assert rb.epochs == ro.epochs
    for lb, lo in zip(mb.layers, mo.layers):
        for wb, wo in zip(lb.w_shards, lo.w_shards):
            assert np.array_equal(wb, wo)
    for fb, fo in zip(mb.f0_shards, mo.f0_shards):
        assert np.array_equal(fb, fo)
    assert np.array_equal(cb.clocks, co.clocks)
    assert np.array_equal(cb.category_totals("comm:"), co.category_totals("comm:"))
    assert np.array_equal(cb.category_totals("comp:"), co.category_totals("comp:"))
    assert set(cb.store.by_phase) == set(co.store.by_phase)
    for phase, vec in cb.store.by_phase.items():
        assert np.array_equal(vec, co.store.by_phase[phase]), phase
    return mb


class TestEngineParity:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(grid_idx=st.integers(0, len(GRIDS) - 1), seed=st.integers(0, 50), opts=OPTIONS)
    def test_float64_bitwise(self, grid_idx, seed, opts):
        """Random grids up to X3Y2Z2, uniform sharding: everything bitwise."""
        model = _assert_bitwise(_dataset(seed), GRIDS[grid_idx], **opts)
        assert model.uniform

    def test_float32_atol(self):
        """Benchmark dtype: product and oracle agree to float32 round-off."""
        data = _dataset(9)
        _, rb, _ = _train(PlexusGCN, data, GRIDS[0], epochs=4, dtype=np.float32)
        _, ro, _ = _train(PerRankOracle, data, GRIDS[0], epochs=4, dtype=np.float32)
        np.testing.assert_allclose(rb.losses, ro.losses, atol=1e-5)

    def test_trainable_features_bitwise(self):
        _assert_bitwise(_dataset(3), GRIDS[1], epochs=4, trainable_features=True)

    def test_untuned_dw_gemm_bitwise(self):
        _assert_bitwise(_dataset(5), GRIDS[0], epochs=4, tune_dw_gemm=False)

    def test_noisy_runs_bitwise(self):
        """SpMM noise: the vectorized sampler consumes the same RNG stream
        as per-rank draws in rank order, so losses, weights and
        (noise-inflated) clocks match the reference bitwise."""
        _assert_bitwise(_dataset(7), GRIDS[0], epochs=4, noise=True)


class TestPaddedParity:
    """Indivisible (quasi-equal) sharding: the padded stacks must be bitwise
    identical to the per-rank oracle — losses, weights, per-rank clocks and
    phase totals, under every schedule."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        grid_idx=st.integers(0, len(GRIDS) - 1),
        n_nodes=st.sampled_from([70, 71, 73]),
        d_hidden=st.sampled_from([23, 25]),
        seed=st.integers(0, 20),
        opts=OPTIONS,
    )
    def test_float64_bitwise_ragged(self, grid_idx, n_nodes, d_hidden, seed, opts):
        dims = [25, d_hidden, 11]
        _assert_bitwise(_dataset(seed, n_nodes, dims), GRIDS[grid_idx], dims, **opts)

    def test_indivisible_hidden_dim(self):
        """One indivisible hidden dim on an otherwise divisible workload
        runs the padded stacks and matches the oracle."""
        dims = [DIMS[0], 13, DIMS[-1]]
        model = _assert_bitwise(_dataset(0), GRIDS[0], dims)
        assert not model.uniform

    def test_zero_class_columns(self):
        """More X-shards than classes: some ranks own zero logit columns."""
        dims = [24, 16, 3]
        _assert_bitwise(_dataset(1, 70, dims), GridConfig(5, 1, 2), dims)

    @pytest.mark.parametrize(
        "n_nodes,dims,cfg",
        [
            # fewer nodes than ranks: empty shards, and one-row / one-column
            # ones, whose products numpy hands to BLAS level 1/2 (stride-
            # sensitive rounding: the box plan copies those operands tight)
            (23, [3, 2, 2], GridConfig(3, 3, 3)),
            (64, [9, 7, 2], GridConfig(2, 2, 4)),
            # 24/23 classes per shard: pairwise-summed class reductions
            (101, [30, 21, 47], GridConfig(2, 2, 2)),
        ],
    )
    def test_thin_and_wide_shards(self, n_nodes, dims, cfg):
        _assert_bitwise(_dataset(3, n_nodes, dims), cfg, dims, trainable_features=True)

    def test_trainable_features_ragged(self):
        dims = [25, 23, 11]
        _assert_bitwise(_dataset(5, 70, dims), GRIDS[0], dims, trainable_features=True)

    def test_noisy_ragged_bitwise(self):
        dims = [25, 23, 11]
        _assert_bitwise(_dataset(9, 70, dims), GRIDS[0], dims, noise=True)


class TestBlockedAggregationParity:
    """Blocked aggregation (per-block stacked SpMM plans) vs the per-rank
    oracle: bitwise under every schedule, on uniform, ragged and 4-layer
    (roles wrap around: layer 3 reuses layer 0's shard set) workloads."""

    WORKLOADS = {
        "uniform": (N_NODES, DIMS),
        "ragged": (70, [25, 23, 11]),
        "four-layer": (50, [10, 9, 9, 5]),
    }

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        blocks=st.integers(2, 5),
        workload=st.sampled_from(sorted(WORKLOADS)),
        grid_idx=st.integers(0, len(GRIDS) - 1),
        seed=st.integers(0, 20),
        opts=OPTIONS,
    )
    def test_blocked_bitwise(self, blocks, workload, grid_idx, seed, opts):
        n, dims = self.WORKLOADS[workload]
        opts = {**opts, "aggregation_blocks": blocks}
        _assert_bitwise(_dataset(seed, n, dims), GRIDS[grid_idx], dims, **opts)


class TestBatchPrimitives:
    """The building blocks handle quasi-equal (grouped-by-shape) operands."""

    def test_batched_matmul_matches_per_rank(self, rng):
        a = [rng.standard_normal((3 + (r % 2), 4)) for r in range(6)]
        b = [rng.standard_normal((4, 2 + (r % 3))) for r in range(6)]
        out = batched_matmul(a, b)
        for r in range(6):
            assert np.array_equal(out[r], a[r] @ b[r])

    def test_block_diag_spmm_grouped(self, rng):
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(6)]
        f = [rng.standard_normal((5, 2)) for r in range(6)]
        out = BlockDiagSpmm(shards).apply(f)
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))

    def test_block_diag_spmm_stacked(self, rng):
        shards = [random_sparse(4, 5, 0.4, rng) for _ in range(6)]
        f = rng.standard_normal((6, 5, 3))
        out = BlockDiagSpmm(shards).apply_stacked(f)
        assert out.shape == (6, 4, 3)
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))

    def test_block_diag_spmm_stacked_rejects_unequal_rows(self, rng):
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(4)]
        f = rng.standard_normal((4, 5, 2))
        with pytest.raises(ValueError, match="uniform"):
            BlockDiagSpmm(shards).apply_stacked(f)

    def test_block_diag_spmm_padded(self, rng):
        """Ragged A rows *and* ragged F cols through one padded plan."""
        ks = [4 + (r % 2) for r in range(6)]
        shards = [random_sparse(3 + (r % 3), ks[r], 0.4, rng) for r in range(6)]
        f_list = [rng.standard_normal((ks[r], 2 + (r % 2))) for r in range(6)]
        out = BlockDiagSpmm(shards).apply_padded(PaddedStack.from_shards(f_list))
        assert isinstance(out, PaddedStack)
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f_list[r]))
        # pad rows of the output stay exact zeros
        for r in range(6):
            assert not stack_data(out)[r, out.rows[r]:, :].any()

    def test_block_diag_apply_batched_wraps_uniform_operand(self, rng):
        """Uniform dense stack against ragged A shards: the output comes
        back as a padded stack with the ragged row mask."""
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(4)]
        f = rng.standard_normal((4, 5, 2))
        out = BlockDiagSpmm(shards).apply_batched(f)
        assert isinstance(out, PaddedStack)
        for r in range(4):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))

    def test_stack_matmul_matches_batched_matmul_bitwise(self, rng):
        """The padded GEMM groups by exact shape like batched_matmul, so the
        results (incl. transposed operand layouts) are bitwise identical."""
        a_list = [rng.standard_normal((3 + (r % 2), 4)) for r in range(6)]
        b_list = [rng.standard_normal((4, 2 + (r % 3))) for r in range(6)]
        out = stack_matmul(PaddedStack.from_shards(a_list), PaddedStack.from_shards(b_list))
        ref = batched_matmul(a_list, b_list)
        for r in range(6):
            assert np.array_equal(out[r], ref[r])
        # transposed-a form (the grad-W kernel)
        out_t = stack_matmul(
            PaddedStack.from_shards(a_list).transpose(), PaddedStack.from_shards(b_list),
            ta=True,
        )
        ref_t = batched_matmul(a_list, b_list)
        for r in range(6):
            assert np.array_equal(out_t[r], ref_t[r])

    def test_stack_shards_picks_representation(self, rng):
        uniform = [rng.standard_normal((3, 4)) for _ in range(4)]
        assert isinstance(stack_shards(uniform), np.ndarray)
        ragged = [rng.standard_normal((3 + (r % 2), 4)) for r in range(4)]
        stacked = stack_shards(ragged)
        assert isinstance(stacked, PaddedStack)
        for r in range(4):
            assert np.array_equal(stacked[r], ragged[r])

    def test_concat_stack_rows_padded(self, rng):
        parts = []
        for b in range(3):
            parts.append(PaddedStack.from_shards(
                [rng.standard_normal((1 + ((r + b) % 2), 3)) for r in range(4)]
            ))
        out = concat_stack_rows(parts)
        for r in range(4):
            ref = np.concatenate([p[r] for p in parts], axis=0)
            assert np.array_equal(out[r], ref)
