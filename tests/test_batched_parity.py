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

One execution path and one stack type cover everything: indivisible
(quasi-equal / ragged) sharding zero-pads the stacks and carries per-rank
valid extents, divisible sharding is the case that pads nothing (``rows is
None``), blocked aggregation runs per-block stacked SpMM plans.  The three
hypothesis suites below pin the workload family (uniform, ragged, blocked
incl. a 4-layer model) and draw the *product* of everything else:
permutation, overlap, aggregation blocks and the
machine beside it (LAPTOP: every link intra-node; PERLMUTTER, 4 GPUs per
node: inter-node links on the grids past 4 ranks), SpMM noise, trainable features and the grad-W GEMM
form.  A uniform model whose stacks
carry *explicit* all-valid extents must train bitwise like the one built
with ``rows=None``: same algebra, the plans just observe nothing to cut.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import PerRankOracle
from test_sparse import random_sparse

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, SpmmNoise
from repro.core.batch import (
    BlockDiagSpmm,
    CubeStack,
    batched_matmul,
    concat_stack_rows,
    stack_data,
    stack_matmul,
    stack_shards,
)
from repro.dist import LAPTOP, PERLMUTTER, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.sparse.ops import gcn_normalize

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
        "machine": st.sampled_from([LAPTOP, PERLMUTTER]),
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


def explicit(stack: CubeStack) -> CubeStack:
    """The same stack (same memory) with every rank's extents spelled out:
    what ``rows=None`` stands for."""
    assert stack.rows is None
    world, extents = len(stack), stack.cube.shape[3:5]
    return CubeStack(stack.cube, stack.grid, *(np.full(world, e, dtype=np.int64) for e in extents))


def _spell_out_extents(model: PlexusGCN) -> None:
    """Swap a uniform model's persisted stacks for their explicit twins, so
    every stack derived from them carries all-valid ``rows`` / ``cols``."""
    for owner, name in [(model, "f0_stack"), (model, "label_stack"), (model, "mask_stack")] + [
        (layer, "w_stack") for layer in model.layers
    ]:
        setattr(owner, name, explicit(getattr(owner, name)))


def _train(
    build, data, cfg, dims=DIMS, epochs=3, dtype=np.float64, prepare=None, machine=PERLMUTTER, **opts
):
    """Train ``build`` — ``PlexusGCN`` (the product, under ``PlexusTrainer``)
    or ``PerRankOracle`` — on ``machine`` and return ``(model, result, cluster)``."""
    a, feats, labels, mask = data
    if opts.pop("noise", False):  # one sampler per run: the stream is stateful
        opts["noise"] = SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11)
    cluster = VirtualCluster(cfg.total, machine)
    model = build(
        cluster, cfg, a, feats.astype(dtype), labels, mask, dims,
        PlexusOptions(seed=0, compute_dtype=dtype, **opts),
    )
    if prepare is not None:
        prepare(model)
    trainer = PlexusTrainer(model) if build is PlexusGCN else model
    return model, trainer.train(epochs), cluster


def _assert_bitwise(data, cfg, dims=DIMS, prepare=None, **opts):
    """Product == oracle: losses and epoch records, every weight and input
    feature shard, per-rank clocks, comm/comp totals, every phase bucket."""
    mb, rb, cb = _train(PlexusGCN, data, cfg, dims, prepare=prepare, **opts)
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
        """Random grids up to X3Y2Z2, uniform sharding: everything bitwise —
        built with ``rows=None`` (even seeds) or with the same stacks'
        extents spelled out (odd seeds: activations, gradients and logits
        then carry all-valid ``rows`` / ``cols`` through every kernel)."""
        prepare = _spell_out_extents if seed % 2 else None
        model = _assert_bitwise(_dataset(seed), GRIDS[grid_idx], prepare=prepare, **opts)
        assert (model.layers[0].w_stack.rows is None) == (prepare is None)

    @pytest.mark.parametrize("opts", [{}, {"overlap": True, "aggregation_blocks": 3}])
    def test_explicit_all_valid_extents_train_like_none(self, opts):
        """Uniform is the zero-pad case: the same model with explicit
        all-valid extents gives the same bits, clocks and phase totals."""
        data = _dataset(4)
        (ma, ra, ca), (mb, rb, cb) = (
            _train(PlexusGCN, data, GRIDS[0], prepare=prepare, **opts)
            for prepare in (None, _spell_out_extents)
        )
        assert ra.epochs == rb.epochs
        assert np.array_equal(ca.clocks, cb.clocks)
        assert ca.store.by_phase.keys() == cb.store.by_phase.keys()
        for phase, vec in ca.store.by_phase.items():
            assert np.array_equal(vec, cb.store.by_phase[phase]), phase
        for la, lb in zip(ma.layers, mb.layers):
            assert la.w_stack.rows is None and lb.w_stack.rows is not None
            assert stack_data(la.w_stack).tobytes() == stack_data(lb.w_stack).tobytes()
            assert np.shares_memory(stack_data(lb.w_stack), mb.optimizer.params[f"W{mb.layers.index(lb)}"])

    @pytest.mark.parametrize("cfg", [GridConfig(8, 8, 8), GridConfig(4, 4, 32)], ids=lambda c: c.name)
    @pytest.mark.parametrize(
        "opts", [{}, {"overlap": True, "aggregation_blocks": 2}], ids=["eager", "overlap"]
    )
    def test_paper_scale_grid_bitwise(self, cfg, opts):
        """512 ranks on PERLMUTTER: Z groups cross nodes and the link keys
        number in the hundreds, which no drawn grid (at most 12 ranks) reaches."""
        _assert_bitwise(_dataset(0, 1024), cfg, **opts)

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
        assert model.layers[0].w_stack.rows is not None

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
            # 151/150 classes per shard: past 128 the pairwise sum halves
            (41, [12, 10, 301], GridConfig(2, 2, 2)),
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
        """Equal shards: raw, ``rows=None`` and explicit all-valid operands
        give the same bits; only the explicit one's result carries extents."""
        shards = [random_sparse(4, 5, 0.4, rng) for _ in range(6)]
        f = rng.standard_normal((6, 5, 3))
        plan = BlockDiagSpmm(shards)
        out = plan.apply_batched(f)
        assert out.shape == (6, 4, 3) and out.rows is None and out.cols is None
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))
        spelled = plan.apply_batched(explicit(CubeStack.of(f)))
        assert np.array_equal(spelled.rows, np.full(6, 4)) and np.array_equal(spelled.cols, np.full(6, 3))
        assert stack_data(spelled).tobytes() == stack_data(out).tobytes()

    def test_block_diag_spmm_rejects_mismatched_operand_rows(self, rng):
        """The operand's valid rows must be what each shard multiplies —
        whether they are spelled out or the cube's."""
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(4)]
        plan = BlockDiagSpmm(shards)
        with pytest.raises(ValueError, match="valid rows"):
            plan.apply_batched(rng.standard_normal((4, 6, 2)))
        short = stack_shards([rng.standard_normal((5 - (r % 2), 2)) for r in range(4)])
        with pytest.raises(ValueError, match="valid rows"):
            plan.apply_batched(short)

    def test_block_diag_spmm_rejects_a_pad_below_a_shard(self, rng):
        """A pad shorter than a shard's output rows is refused when the plan
        is built, by rank — not as a broadcast error in ``apply_batched``."""
        shards = [random_sparse(4 + (r % 2), 5, 0.4, rng) for r in range(4)]
        with pytest.raises(ValueError, match="rank 1: shard has 5 rows, more than the pad 4"):
            BlockDiagSpmm(shards, pad=4)
        out = BlockDiagSpmm(shards, pad=5).apply_batched(rng.standard_normal((4, 5, 2)))
        assert out.rows.tolist() == [4, 5, 4, 5]

    def test_block_diag_spmm_padded(self, rng):
        """Ragged A rows *and* ragged F cols through one padded plan."""
        ks = [4 + (r % 2) for r in range(6)]
        shards = [random_sparse(3 + (r % 3), ks[r], 0.4, rng) for r in range(6)]
        f_list = [rng.standard_normal((ks[r], 2 + (r % 2))) for r in range(6)]
        out = BlockDiagSpmm(shards).apply_batched(stack_shards(f_list))
        assert out.rows.tolist() == [s.shape[0] for s in shards]
        for r in range(6):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f_list[r]))
        # pad rows of the output stay exact zeros
        for r in range(6):
            assert not stack_data(out)[r, out.rows[r]:, :].any()

    def test_block_diag_apply_batched_wraps_uniform_operand(self, rng):
        """Uniform dense stack against ragged A shards: the output comes
        back with the ragged row extents (and all-valid columns)."""
        shards = [random_sparse(3 + (r % 2), 5, 0.4, rng) for r in range(4)]
        f = rng.standard_normal((4, 5, 2))
        out = BlockDiagSpmm(shards).apply_batched(f)
        assert out.rows.tolist() == [3, 4, 3, 4] and out.cols.tolist() == [2] * 4
        for r in range(4):
            assert np.array_equal(out[r], np.asarray(shards[r] @ f[r]))

    def test_stack_matmul_matches_batched_matmul_bitwise(self, rng):
        """The padded GEMM groups by exact shape like batched_matmul, so the
        results (incl. transposed operand layouts) are bitwise identical."""
        a_list = [rng.standard_normal((3 + (r % 2), 4)) for r in range(6)]
        b_list = [rng.standard_normal((4, 2 + (r % 3))) for r in range(6)]
        out = stack_matmul(stack_shards(a_list), stack_shards(b_list))
        ref = batched_matmul(a_list, b_list)
        for r in range(6):
            assert np.array_equal(out[r], ref[r])
        # transposed-a form (the grad-W kernel)
        out_t = stack_matmul(stack_shards(a_list).transpose(), stack_shards(b_list), ta=True)
        ref_t = batched_matmul(a_list, b_list)
        for r in range(6):
            assert np.array_equal(out_t[r], ref_t[r])

    def test_stack_shards_keeps_extents_only_where_something_is_padded(self, rng):
        uniform = [rng.standard_normal((3, 4)) for _ in range(4)]
        stacked = stack_shards(uniform)
        assert stacked.rows is None and stacked.cols is None
        assert stacked.cube.shape == (4, 1, 1, 3, 4) and stacked.cube.flags.writeable
        assert np.array_equal(stack_data(stacked), np.stack(uniform))
        # the decision is the *global* pad's, not the shards' at hand: equal
        # local shards below the pad (a worker's slice of a ragged cube) pad
        below = stack_shards(uniform, pad=(4, 4))
        assert below.rows.tolist() == [3] * 4 and below.cube.shape[3:] == (4, 4)
        with pytest.raises(ValueError, match="exceed the pad"):
            stack_shards(uniform, pad=(2, 4))
        ragged = [rng.standard_normal((3 + (r % 2), 4)) for r in range(4)]
        stacked = stack_shards(ragged)
        assert stacked.rows.tolist() == [3, 4, 3, 4] and stacked.cols.tolist() == [4] * 4
        for r in range(4):
            assert np.array_equal(stacked[r], ragged[r])

    def test_concat_stack_rows_padded(self, rng):
        parts = []
        for b in range(3):
            parts.append(stack_shards(
                [rng.standard_normal((1 + ((r + b) % 2), 3)) for r in range(4)]
            ))
        # a block every rank holds the same height of carries no extents
        parts.append(stack_shards([rng.standard_normal((2, 3)) for _ in range(4)]))
        assert parts[-1].rows is None
        out = concat_stack_rows(parts)
        for r in range(4):
            ref = np.concatenate([p[r] for p in parts], axis=0)
            assert np.array_equal(out[r], ref)
        spelled = concat_stack_rows(parts[:-1] + [explicit(parts[-1])])
        assert stack_data(spelled).tobytes() == stack_data(out).tobytes()
        assert np.array_equal(spelled.rows, out.rows) and np.array_equal(spelled.cols, out.cols)
