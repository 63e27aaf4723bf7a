"""Frozen layer 0: the aggregation is computed once and replayed.

With ``trainable_features=False`` the model computes layer 0's
``H0 = all-reduce_X(A @ all-gather_Z(F0))`` in the first forward, and from
then on re-issues the gather, the SpMM charges and the all-reduces with
their recorded durations while handing back the held result; the frozen
layer-0 ``dH`` GEMM is charged and its all-reduce scheduled, never
multiplied.  The simulated timeline must not be able to tell, and the
per-rank oracle (``tests/oracle.py``) — which memoises nothing and
recomputes everything every epoch — is the independent check:

* product == oracle bitwise (losses, weights, per-rank clocks, every
  phase bucket) over several epochs, on uniform grids, size-1 axes, an
  indivisible grid, with overlap, blocked aggregation, SpMM noise and a
  launch overhead;
* kernel-call counts prove the replay is live — and stays live after
  ``evaluate()`` and ``load_checkpoint()``;
* traced == untraced, and the sim events of replayed epochs still replay
  to the ``ClockStore`` buckets;
* multiproc (shm) == in-process, and the replayed epochs post fewer bytes
  in the same number of frames (a killed worker's bitwise replay is a
  ``tests/test_differential.py`` row);
* "frozen" is enforced: an in-place edit of F0 raises; trainable features
  memoise nothing.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from oracle import PerRankOracle

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, SpmmNoise
from repro.core.batch import stack_data
from repro.dist import LAPTOP, PERLMUTTER, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.obs import SimSink, sim_phase_totals, trace
from repro.obs.metrics import registry as metrics
from repro.runtime import MultiprocTrainer, WorkloadSpec, build_trainer
from repro.sparse.ops import gcn_normalize

EPOCHS = 4
#: (grid, nodes, layer dims): three layers so layer 0 is neither last nor
#: the only one; the last entry divides nothing (padded stacks, per-group
#: duration arrays)
WORKLOADS = {
    "X2Y2Z2": (GridConfig(2, 2, 2), 72, [24, 24, 16, 8]),
    "X4Y1Z2": (GridConfig(4, 1, 2), 72, [24, 24, 16, 8]),
    "X1Y1Z8": (GridConfig(1, 1, 8), 72, [24, 24, 16, 8]),
    "X8Y1Z1": (GridConfig(8, 1, 1), 72, [24, 24, 16, 8]),
    "X3Y2Z2-ragged": (GridConfig(3, 2, 2), 70, [23, 17, 11, 7]),
}
SCHEDULES = {
    "eager": {},
    "overlap": {"overlap": True},
    "blocked": {"aggregation_blocks": 4},
    "overlap-blocked": {"overlap": True, "aggregation_blocks": 4},
    "overlap-blocked-noisy": {"overlap": True, "aggregation_blocks": 4, "noise": True},
}


def _dataset(n, dims):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
    feats = synth_features(n, dims[0], seed=2)
    labels = degree_labels(a, dims[-1], seed=3)
    mask, _, _ = random_split_masks(n, seed=4)
    return a, feats, labels, mask


def _model(build, workload, machine=PERLMUTTER, sink=None, **opts):
    cfg, n, dims = WORKLOADS[workload]
    if opts.pop("noise", False):  # one sampler per model: the stream is stateful
        opts["noise"] = SpmmNoise(threshold_nnz=1, sigma=0.5, seed=11)
    cluster = VirtualCluster(cfg.total, machine)
    if sink is not None:
        cluster.store.trace = sink
    return build(cluster, cfg, *_dataset(n, dims), list(dims), PlexusOptions(seed=0, **opts))


def _trainer(workload="X2Y2Z2", machine=PERLMUTTER, sink=None, **opts):
    return PlexusTrainer(_model(PlexusGCN, workload, machine, sink, **opts))


def _oracle(workload, machine=PERLMUTTER, **opts) -> PerRankOracle:
    return _model(PerRankOracle, workload, machine, **opts)


def _assert_same_run(a, ra, b, rb) -> None:
    """Losses, epoch records, weights, per-rank clocks and every phase
    bucket of two in-process runs (``PlexusGCN`` or oracle), bitwise."""
    assert ra.losses == rb.losses
    assert ra.epochs == rb.epochs
    for la, lb in zip(a.layers, b.layers):
        for wa, wb in zip(la.w_shards, lb.w_shards):
            assert np.array_equal(wa, wb)
    sa, sb = a.cluster.store, b.cluster.store
    assert np.array_equal(sa.clocks, sb.clocks)
    assert set(sa.by_phase) == set(sb.by_phase)
    for phase, vec in sa.by_phase.items():
        assert np.array_equal(vec, sb.by_phase[phase]), phase


class TestReplayEqualsOracle:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_product_equals_oracle(self, workload, schedule):
        product = _trainer(workload, **SCHEDULES[schedule])
        oracle = _oracle(workload, **SCHEDULES[schedule])
        rp, ro = product.train(EPOCHS), oracle.train(EPOCHS)
        assert product.model.layers[0]._frozen is not None  # the replay ran
        _assert_same_run(product.model, rp, oracle, ro)

    @pytest.mark.parametrize("workload", ["X2Y2Z2", "X1Y1Z8", "X3Y2Z2-ragged"])
    def test_launch_overhead_is_replayed_too(self, workload):
        machine = dataclasses.replace(PERLMUTTER, issue_overhead_s=2e-6)
        opts = {"overlap": True, "aggregation_blocks": 4}
        product = _trainer(workload, machine, **opts)
        oracle = _oracle(workload, machine, **opts)
        _assert_same_run(product.model, product.train(EPOCHS), oracle, oracle.train(EPOCHS))


class TestReplayIsLive:
    """Kernel-call counts: ``2L-1`` SpMMs and ``3L`` GEMMs in the first
    epoch, one aggregation (one SpMM per block) and the dH GEMM fewer in
    every later one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import oracle
        import repro.core.batch as batch
        import repro.core.layers as layers

        counts = {"spmm": 0, "matmul": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(batch, "spmm", counting("spmm", batch.spmm))
        monkeypatch.setattr(oracle, "spmm", counting("spmm", oracle.spmm))  # its per-block SpMMs
        monkeypatch.setattr(layers, "stack_matmul", counting("matmul", layers.stack_matmul))

        def per_epoch(trainer):
            before = dict(counts)
            trainer.train_epoch()
            return counts["spmm"] - before["spmm"], counts["matmul"] - before["matmul"]

        return per_epoch

    @pytest.mark.parametrize("workload", ["X2Y2Z2", "X3Y2Z2-ragged"])
    @pytest.mark.parametrize("blocks", [1, 4])
    def test_counts_drop_after_the_first_epoch(self, calls, tmp_path, workload, blocks):
        trainer = _trainer(workload, overlap=True, aggregation_blocks=blocks)
        n_layers = trainer.model.n_layers
        first = (n_layers * blocks + n_layers - 1, 3 * n_layers)
        later = (first[0] - blocks, first[1] - 1)
        assert calls(trainer) == first
        assert calls(trainer) == later
        mask = np.ones(trainer.model.n, dtype=bool)
        trainer.evaluate(mask)
        assert calls(trainer) == later
        path = trainer.save_checkpoint(tmp_path, epoch=3)
        assert calls(trainer) == later
        trainer.load_checkpoint(path)
        assert calls(trainer) == later

    def test_evaluate_first_then_train(self, calls):
        """The memo is a function of forwards run, whoever ran them: an
        ``evaluate()`` before the first epoch records it off the books."""
        trainer = _trainer(overlap=True)
        reference = _trainer(overlap=True)
        trainer.evaluate(np.ones(trainer.model.n, dtype=bool))
        n_layers = trainer.model.n_layers
        # the aggregation is already held; dH is recorded by this backward
        assert calls(trainer) == (2 * n_layers - 2, 3 * n_layers)
        assert calls(trainer) == (2 * n_layers - 2, 3 * n_layers - 1)
        reference.train(2)
        assert np.array_equal(
            trainer.model.cluster.store.clocks, reference.model.cluster.store.clocks
        )

    @pytest.mark.parametrize("blocks", [1, 4])
    def test_oracle_memoises_nothing(self, calls, blocks):
        """What makes product == oracle an independent check of the replay:
        the oracle multiplies every SpMM of a frozen layer 0 every epoch
        (forward: one per rank and block when blocked, one grouped call
        otherwise; backward: one per rank, by its own ``A^T`` shards)."""
        oracle = _oracle("X2Y2Z2", overlap=True, aggregation_blocks=blocks)
        n_layers = len(oracle.layers)
        forward = n_layers * (oracle.world * blocks if blocks > 1 else 1)
        for _ in range(3):
            assert calls(oracle) == (forward + (n_layers - 1) * oracle.world, 0)

    def test_trainable_features_memoise_nothing(self, calls):
        trainer = _trainer(trainable_features=True)
        f0 = np.array(trainer.model.f0_stack)
        n_layers = trainer.model.n_layers
        for _ in range(3):
            assert calls(trainer) == (2 * n_layers, 3 * n_layers)
        assert trainer.model.layers[0]._frozen is None
        assert trainer.model.f0_stack.cube.flags.writeable
        assert not np.array_equal(f0, trainer.model.f0_stack)  # the optimizer wrote F0


class TestFrozenPlansReleased:
    """A frozen layer 0 never multiplies again after its first forward, which
    releases the forward SpMM plans — unless a later layer multiplies with the
    same ones (layer 3 on one permutation version; the default ``"double"``
    gives it its own shard-cache entry).  The oracle multiplies its own cuts."""

    @pytest.mark.parametrize("blocks", [1, 4])
    @pytest.mark.parametrize(
        "dims, permutation, kept",
        [([24, 24, 16, 8], "double", False), ([24, 24, 16, 12, 8], "single", True),
         ([24, 24, 16, 12, 8], "double", False)],
    )
    def test_released_unless_shared_and_parity_holds(self, dims, permutation, kept, blocks):
        cfg, n = GridConfig(2, 2, 2), 72
        opts = PlexusOptions(seed=0, permutation=permutation, aggregation_blocks=blocks)

        def build(cls):
            return cls(VirtualCluster(cfg.total, PERLMUTTER), cfg, *_dataset(n, dims), dims, opts)

        product, oracle = PlexusTrainer(build(PlexusGCN)), build(PerRankOracle)
        rp, ro = product.train(EPOCHS), oracle.train(EPOCHS)
        layers = product.model.layers
        held = [[plan.nbytes > 0 for _, _, plan in la._agg_steps] for la in layers]
        assert held == [[kept] * blocks] + [[True] * blocks] * (len(layers) - 1)
        first = layers[0]._agg_steps[0][2]
        assert any(la._agg_steps[0][2] is first for la in layers[1:]) == kept == layers[0].plans_shared
        _assert_same_run(product.model, rp, oracle, ro)


class TestFrozenIsEnforced:
    @pytest.mark.parametrize("workload", ["X2Y2Z2", "X3Y2Z2-ragged"])
    def test_in_place_edit_of_frozen_f0_raises(self, workload):
        model = _trainer(workload).model
        with pytest.raises(ValueError, match="read-only"):
            model.f0_shards[0][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            stack_data(model.f0_stack)[...] = 0.0


class TestTracing:
    @pytest.fixture(autouse=True)
    def _tracer_clean(self):
        trace.disable()
        metrics.clear()
        yield
        trace.disable()
        metrics.clear()

    @pytest.mark.parametrize("workload", ["X2Y2Z2", "X3Y2Z2-ragged"])
    def test_traced_equals_untraced_and_sim_events_replay(self, workload):
        opts = {"overlap": True, "aggregation_blocks": 4}
        plain = _trainer(workload, **opts)
        r_plain = plain.train(EPOCHS)

        trace.enable("inproc")
        sink = SimSink()
        traced = _trainer(workload, sink=sink, **opts)
        r_traced = traced.train(EPOCHS)
        replays = metrics.counters.get("frozen_agg_replays", 0)
        trace.disable()

        _assert_same_run(plain.model, r_plain, traced.model, r_traced)
        # the first epoch computed, every later one replayed — visible in
        # the registry the trace directory's metrics.jsonl is written from
        assert replays == EPOCHS - 1
        store = traced.model.cluster.store
        totals = sim_phase_totals(sink.events, world=store.clocks.size)
        assert set(totals) == set(store.by_phase)
        for phase, vec in store.by_phase.items():
            assert np.array_equal(totals[phase], vec), phase


def _spec(**opts):
    cfg, n, dims = WORKLOADS["X2Y2Z2"]
    a, feats, labels, mask = _dataset(n, dims)
    return WorkloadSpec(
        config=cfg, layer_dims=list(dims), workers=2, machine=LAPTOP,
        options=PlexusOptions(seed=0, **opts), adjacency=a, features=feats,
        labels=labels, train_mask=mask,
    )


def _assert_pool_equals(state: dict, reference: dict) -> None:
    assert np.array_equal(state["clocks"], reference["clocks"])
    assert set(state["by_phase"]) == set(reference["by_phase"])
    for phase, vec in reference["by_phase"].items():
        assert np.array_equal(state["by_phase"][phase], vec), phase
    for name, w in reference["weights"].items():
        assert np.array_equal(state["weights"][name], w), name


class TestMultiproc:
    """The shm twin: a replayed worker-crossing collective rendezvouses on
    the clocks alone."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["eager", "overlap"])
    def test_pool_equals_inproc_and_posts_fewer_bytes(self, tmp_path, overlap):
        spec = _spec(overlap=overlap)
        inproc = build_trainer(spec, backend="inproc")
        r_in = inproc.train(EPOCHS)
        store = inproc.model.cluster.store
        reference = {
            "clocks": store.clocks,
            "by_phase": store.by_phase,
            "weights": {f"W{i}": np.asarray(l.w_stack) for i, l in enumerate(inproc.model.layers)},
        }
        out = tmp_path / "trace"
        with MultiprocTrainer(spec, timeout=60, trace_dir=out) as pool:
            r_mp = pool.train(EPOCHS)
            state = pool.state()
        assert r_mp.epochs == r_in.epochs
        _assert_pool_equals(state, reference)

        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        for worker in ("worker 0", "worker 1"):
            by_epoch = {
                r["epoch"]: r["counters"] for r in rows if r["process"] == worker
            }
            assert set(range(1, EPOCHS + 1)) <= set(by_epoch)
            by_epoch[0] = dict.fromkeys(by_epoch[1], 0.0)  # counters are cumulative

            def delta(name, epoch):
                return by_epoch[epoch][name] - by_epoch[epoch - 1][name]

            for epoch in range(2, EPOCHS + 1):
                # same rendezvous count (overlap: epoch 1 issues its own F
                # gather *and* the prefetch of epoch 2's), but layer 0's F0
                # planes stay home
                assert delta("frames_sent", epoch) == delta("frames_sent", 1) - int(overlap)
                assert delta("bytes_sent", epoch) == delta("bytes_sent", 2)
            assert delta("bytes_sent", 2) < delta("bytes_sent", 1)
            assert by_epoch[EPOCHS]["frozen_agg_replays"] == EPOCHS - 1
            assert "frozen_agg_replays" not in by_epoch[1]
