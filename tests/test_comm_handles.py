"""The nonblocking communicator API: handles, misuse, and overlap schedules.

Covers the ``repro.dist.comm`` contract:

* eager equivalence — results are fixed at issue time, so wait-order
  permutations cannot change them (data, clocks, phase totals);
* misuse is loud — double ``wait()`` raises, and a dropped (never-waited)
  handle is detected at epoch end;
* overlap semantics — ``overlap=True`` strictly reduces simulated comm time
  (blocked aggregation, W prefetch, backward dH pipeline) while losses,
  weights and comp time stay bitwise identical (only the clocks change) —
  for the product and for the per-rank oracle (``tests/oracle.py``), which
  must also agree with each other under every schedule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import PerRankOracle, map_groups

from repro.core import Axis, GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer
from repro.core.batch import stack_data
from repro.dist import (
    LAPTOP,
    PERLMUTTER,
    ProcessGroup,
    VirtualCluster,
    communicator,
    stack_shards,
)
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.sparse.ops import gcn_normalize

N_NODES = 72
DIMS = [24, 24, 12]


def _dataset(seed=3, n=N_NODES):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=seed))
    feats = synth_features(n, DIMS[0], seed + 1)
    labels = degree_labels(a, DIMS[-1], seed + 2)
    train, _, _ = random_split_masks(n, seed + 3)
    return a, feats, labels, train


def _train(
    cfg, overlap, build=PlexusGCN, epochs=4, machine=PERLMUTTER, exchange=None, n=N_NODES, **opts
):
    """Train ``build`` — ``PlexusGCN`` (the product, under ``PlexusTrainer``)
    or ``PerRankOracle`` (the per-rank reference) — on ``n`` nodes;
    ``exchange`` puts the cluster behind a byte mover."""
    a, feats, labels, mask = _dataset(n=n)
    cluster = VirtualCluster(cfg.total, machine, exchange=exchange)
    model = build(
        cluster, cfg, a, feats, labels, mask, DIMS,
        PlexusOptions(seed=0, overlap=overlap, **opts),
    )
    result = (PlexusTrainer(model) if build is PlexusGCN else model).train(epochs)
    weights = np.concatenate([w.ravel() for l in model.layers for w in l.w_shards])
    return model, result, cluster, weights


def _group(cluster, ranks):
    return ProcessGroup([cluster[r] for r in ranks], cluster.machine, bandwidth=1e9)


class TestHandleBasics:
    def test_issue_defers_completion_charge(self, rng):
        cluster = VirtualCluster(4, LAPTOP)
        comm = communicator(_group(cluster, range(4)))
        shards = [rng.standard_normal((8, 4)) for _ in range(4)]
        handle = comm.all_reduce(shards)
        assert np.all(cluster.clocks == 0.0)  # issue cost defaults to zero
        out = handle.wait()
        assert np.all(cluster.clocks > 0.0)
        np.testing.assert_array_equal(out[0], np.add.reduce(np.stack(shards)))

    def test_compute_between_issue_and_wait_hides_comm(self, rng):
        def comm_total(compute_s):
            cluster = VirtualCluster(2, LAPTOP)
            comm = communicator(_group(cluster, range(2)))
            handle = comm.all_reduce([rng.standard_normal((256, 64)) for _ in range(2)])
            cluster.advance_all(compute_s, "comp:overlapped")
            handle.wait()
            return float(cluster.category_totals("comm:").sum())

        eager = comm_total(0.0)
        overlapped = comm_total(eager)  # more compute than the transfer takes
        assert overlapped == 0.0
        assert eager > 0.0

    def test_in_flight_ops_on_one_link_serialize(self, rng):
        """Two issued-back-to-back collectives on one group queue on the
        link: total visible comm equals the sum of both transfers even
        though neither was waited before the other was issued."""
        shards = [rng.standard_normal((64, 32)) for _ in range(2)]

        cluster = VirtualCluster(2, LAPTOP)
        comm = communicator(_group(cluster, range(2)))
        h1 = comm.all_reduce(shards)
        h2 = comm.all_reduce(shards)
        h1.wait()
        h2.wait()
        pipelined = cluster.max_clock()

        cluster2 = VirtualCluster(2, LAPTOP)
        comm2 = communicator(_group(cluster2, range(2)))
        comm2.all_reduce(shards).wait()
        comm2.all_reduce(shards).wait()
        assert pipelined == cluster2.max_clock()

    def test_issue_overhead_charged_at_issue(self, rng):
        """A nonzero launch cost, enabled on the cached communicator, is
        charged to every member the moment the collective is issued."""
        cluster = VirtualCluster(2, LAPTOP)
        group = _group(cluster, range(2))
        comm = communicator(group)
        assert communicator(group) is comm  # cached: overhead + link shared
        comm.issue_overhead_s = 2e-6
        handle = comm.all_reduce([rng.standard_normal(4) for _ in range(2)])
        np.testing.assert_allclose(cluster.clocks, 2e-6)
        handle.wait()
        assert float(cluster.category_totals("comm:").min()) > 2e-6

    def test_stacked_and_map_paths_share_axis_links(self, rng):
        """A stacked collective and one issued group by group (one
        ``GroupCommunicator`` call per process group) on the same axis
        serialize on the same physical links: deferring both waits costs
        exactly as much wall clock as waiting eagerly."""
        from repro.core.grid import PlexusGrid

        cfg = GridConfig(2, 2, 1)
        stacked = rng.standard_normal((cfg.total, 8, 4))
        per_rank = [rng.standard_normal((8, 4)) for _ in range(cfg.total)]

        cluster1 = VirtualCluster(cfg.total, PERLMUTTER)
        grid1 = PlexusGrid(cluster1, cfg)
        h1 = grid1.comm(Axis.X).all_reduce(stacked)
        h2 = map_groups(grid1, Axis.X, "all_reduce", per_rank)
        h1.wait()
        h2.wait()

        cluster2 = VirtualCluster(cfg.total, PERLMUTTER)
        grid2 = PlexusGrid(cluster2, cfg)
        grid2.comm(Axis.X).all_reduce(stacked).wait()
        map_groups(grid2, Axis.X, "all_reduce", per_rank).wait()
        assert cluster1.max_clock() == cluster2.max_clock()
        assert cluster1.max_clock() > 0.0

    def test_double_wait_raises(self, rng):
        cluster = VirtualCluster(2, LAPTOP)
        comm = communicator(_group(cluster, range(2)))
        handle = comm.all_reduce([rng.standard_normal(4) for _ in range(2)])
        handle.wait()
        with pytest.raises(RuntimeError, match="waited twice"):
            handle.wait()

    def test_dropped_handle_detected(self, rng):
        cluster = VirtualCluster(2, LAPTOP)
        comm = communicator(_group(cluster, range(2)))
        handle = comm.all_reduce([rng.standard_normal(4) for _ in range(2)])
        with pytest.raises(RuntimeError, match="never\\s+waited"):
            cluster.check_outstanding()
        handle.wait()
        cluster.check_outstanding()  # clean after the wait

    def test_handle_waited_inside_no_charge_not_resurrected(self, rng):
        """A handle issued outside but consumed inside ``no_charge`` must
        not reappear as outstanding when the snapshot is restored."""
        cluster = VirtualCluster(2, LAPTOP)
        comm = communicator(_group(cluster, range(2)))
        handle = comm.all_reduce([rng.standard_normal(4) for _ in range(2)])
        with cluster.no_charge():
            handle.wait()
        cluster.check_outstanding()  # must not report the waited handle

    def test_dropped_handle_detected_at_epoch_end(self, rng):
        cfg = GridConfig(2, 2, 1)
        a, feats, labels, mask = _dataset()
        cluster = VirtualCluster(cfg.total, PERLMUTTER)
        model = PlexusGCN(cluster, cfg, a, feats, labels, mask, DIMS, PlexusOptions(seed=0))
        trainer = PlexusTrainer(model)
        trainer.train(1)  # the model waits everything it issues
        model.grid.comm(Axis.X).all_reduce(rng.standard_normal((cfg.total, 3)), phase="stray")
        with pytest.raises(RuntimeError, match="stray"):
            trainer.train_epoch()


class TestWaitOrderInvariance:
    def test_results_bitwise_identical_to_eager_under_permuted_waits(self, rng):
        """Results are fixed at issue; any wait order reproduces the eager
        float64 payloads bitwise (ops live on different axes/groups)."""
        from repro.core.grid import PlexusGrid

        cfg = GridConfig(2, 2, 2)
        ops = [("all_reduce", Axis.X), ("all_gather", Axis.Z), ("reduce_scatter", Axis.Y)]
        stacked = {
            axis: rng.standard_normal((cfg.total, 8, 4)) for _, axis in ops
        }

        def eager():
            cluster = VirtualCluster(cfg.total, PERLMUTTER)
            grid = PlexusGrid(cluster, cfg)
            return [
                getattr(grid.comm(axis), kind)(stacked[axis]).wait()
                for kind, axis in ops
            ]

        reference = eager()
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]):
            cluster = VirtualCluster(cfg.total, PERLMUTTER)
            grid = PlexusGrid(cluster, cfg)
            handles = [getattr(grid.comm(axis), kind)(stacked[axis]) for kind, axis in ops]
            results = [None] * len(ops)
            for i in order:
                results[i] = handles[i].wait()
            for res, ref in zip(results, reference):
                assert np.array_equal(res, ref)


class TestBoundedInflight:
    """``max_inflight`` bounds the queue depth per link: issuing on a
    saturated link blocks (charges wait) until a slot frees."""

    def _issue_chain(self, limit, n_ops, overlap_compute=0.0):
        rng = np.random.default_rng(0)
        cluster = VirtualCluster(2, LAPTOP)
        cluster.store.max_inflight = limit
        comm = communicator(_group(cluster, range(2)))
        shards = [rng.standard_normal((256, 64)) for _ in range(2)]
        handles = [comm.all_reduce(shards) for _ in range(n_ops)]
        issue_clock = cluster.max_clock()
        for h in handles:
            h.wait()
        return issue_clock, cluster

    def test_unbounded_issue_charges_nothing(self):
        issue_clock, _ = self._issue_chain(None, 3)
        assert issue_clock == 0.0

    def test_saturated_link_blocks_at_issue(self):
        """With limit 1, the second back-to-back issue must wait for the
        first transfer to complete — clocks advance at issue time."""
        issue_clock, cluster = self._issue_chain(1, 3)
        assert issue_clock > 0.0
        # the wait is charged as communication
        assert float(cluster.category_totals("comm:").min()) > 0.0

    def test_final_clocks_match_unbounded_without_overlap(self):
        """Issue-then-wait-all: the transfers serialize on the link either
        way, so the bound only moves charges to issue time — the total
        wall clock is identical when no compute hides behind the queue."""
        _, bounded = self._issue_chain(1, 3)
        _, unbounded = self._issue_chain(None, 3)
        assert bounded.max_clock() == unbounded.max_clock()

    def test_deeper_limit_admits_more_inflight(self):
        issue2, _ = self._issue_chain(2, 3)
        issue1, _ = self._issue_chain(1, 3)
        assert issue2 < issue1

    def test_overlap_lost_when_queue_saturated(self):
        """Compute issued behind a full queue can no longer hide the
        transfers: the bounded run's wall clock is strictly worse."""
        rng = np.random.default_rng(1)
        shards = [rng.standard_normal((256, 64)) for _ in range(2)]

        def run(limit):
            cluster = VirtualCluster(2, LAPTOP)
            cluster.store.max_inflight = limit
            comm = communicator(_group(cluster, range(2)))
            handles = [comm.all_reduce(shards) for _ in range(4)]
            # compute that would have been overlapped with the queue
            cluster.advance_all(1.0, "comp:work")
            for h in handles:
                h.wait()
            return cluster.max_clock()

        assert run(1) > run(None)

    def test_oracle_parity_with_limit(self):
        """Whole-axis and per-group issues enforce the same bound: losses
        and clocks bitwise."""
        mb, rb, cb, _ = _train(GridConfig(2, 2, 2), overlap=True,
                               aggregation_blocks=4, max_inflight=1)
        mp, rp, cp, _ = _train(GridConfig(2, 2, 2), overlap=True, build=PerRankOracle,
                               aggregation_blocks=4, max_inflight=1)
        assert rb.losses == rp.losses
        assert np.array_equal(cb.clocks, cp.clocks)

    @pytest.mark.parametrize("machine", [LAPTOP, PERLMUTTER], ids=["intra-node", "inter-node"])
    def test_eager_schedule_unaffected_by_limit(self, machine):
        """Issue-then-wait leaves at most one op in flight per link, and the
        bound is per link on every machine, so a bound of 1 changes nothing
        on the eager schedule: losses, weights and clocks bitwise."""
        _, r1, c1, w1 = _train(GridConfig(2, 2, 2), overlap=False, max_inflight=1, machine=machine)
        _, r2, c2, w2 = _train(GridConfig(2, 2, 2), overlap=False, machine=machine)
        assert r1.losses == r2.losses
        assert np.array_equal(w1, w2)
        assert np.array_equal(c1.clocks, c2.clocks)

    def test_options_validation(self):
        with pytest.raises(ValueError, match="max_inflight"):
            PlexusOptions(max_inflight=0)

    def test_padded_stacks_under_bound_match_groupwise(self, rng):
        """Regression: padded quasi-equal stacks carry *keepdims per-group*
        duration arrays, which the bounded sequential issue path must align
        with the group ravel order — and stay bitwise with one call per
        process group."""
        from repro.core.grid import PlexusGrid

        cfg = GridConfig(2, 1, 2)
        # ragged rows keyed by the off-X coordinate (equal within X groups)
        shards = [rng.standard_normal((3 + (r // 2) % 2, 4)) for r in range(cfg.total)]
        padded = stack_shards(shards)

        def run(kind):
            cluster = VirtualCluster(cfg.total, LAPTOP)
            cluster.store.max_inflight = 1
            grid = PlexusGrid(cluster, cfg)
            comm = grid.comm(Axis.X)
            if kind == "stacked":
                handles = [comm.all_reduce(padded) for _ in range(2)]
                outs = [stack_data(h.wait()) for h in handles]
            else:
                handles = [map_groups(grid, Axis.X, "all_reduce", shards) for _ in range(2)]
                outs = [h.wait() for h in handles]
            return outs, cluster.clocks.copy()

        out_s, clocks_s = run("stacked")
        out_m, clocks_m = run("map")
        assert np.array_equal(clocks_s, clocks_m)
        for r in range(cfg.total):
            rows = shards[r].shape[0]
            assert np.array_equal(out_s[-1][r, :rows], out_m[-1][r])

    def test_inter_node_links_keep_private_queues(self, rng):
        """The bound is per link on every machine: two *different* inter-node
        groups touching the same nodes do not block each other at limit 1,
        while a second issue on one of those links does."""
        from dataclasses import replace

        machine = replace(LAPTOP, gpus_per_node=2)  # ranks {0,1} / {2,3}
        assert not machine.group_is_intra_node([0, 2])
        shards = [rng.standard_normal((256, 64)) for _ in range(2)]
        cluster = VirtualCluster(4, machine)
        cluster.store.max_inflight = 1
        ga = communicator(_group(cluster, [0, 2]))
        gb = communicator(_group(cluster, [1, 3]))
        handles = [ga.all_reduce(shards), gb.all_reduce(shards)]
        assert cluster.max_clock() == 0.0  # the sibling's issue did not block
        handles.append(ga.all_reduce(shards))  # a saturated link: blocks
        assert float(cluster.clocks[[0, 2]].min()) > 0.0
        assert not cluster.clocks[[1, 3]].any()
        for h in handles:
            h.wait()

    def test_intra_node_links_keep_private_queues(self, rng):
        """Intra-node groups never cross a NIC: two different intra-node
        groups do not saturate each other even at limit 1."""
        shards = [rng.standard_normal((64, 32)) for _ in range(2)]
        cluster = VirtualCluster(4, LAPTOP)  # 64 GPUs/node: all intra-node
        cluster.store.max_inflight = 1
        ha = communicator(_group(cluster, [0, 1])).all_reduce(shards)
        hb = communicator(_group(cluster, [2, 3])).all_reduce(shards)
        assert cluster.max_clock() == 0.0  # neither issue blocked
        ha.wait()
        hb.wait()

    def test_stacked_axis_matches_groupwise_under_inter_node_bound(self, rng):
        """The stacked path schedules all its groups at once under the
        per-link bound, bitwise like one call per process group —
        PERLMUTTER Z-axis groups of a (2, 2, 2) grid cross the two nodes."""
        from repro.core.grid import PlexusGrid

        cfg = GridConfig(2, 2, 2)
        stacked = rng.standard_normal((cfg.total, 64, 16))

        def run(kind):
            cluster = VirtualCluster(cfg.total, PERLMUTTER)
            cluster.store.max_inflight = 1
            grid = PlexusGrid(cluster, cfg)
            comm = grid.comm(Axis.Z)
            if kind == "stacked":
                handles = [comm.all_reduce(stacked) for _ in range(2)]
            else:
                shards = list(stacked)
                handles = [map_groups(grid, Axis.Z, "all_reduce", shards) for _ in range(2)]
            clocks_at_issue = cluster.clocks.copy()
            for h in handles:
                h.wait()
            return clocks_at_issue, cluster.clocks.copy()

        issue_s, final_s = run("stacked")
        issue_m, final_m = run("map")
        assert np.array_equal(issue_s, issue_m)
        assert np.array_equal(final_s, final_m)
        assert issue_s.max() > 0.0  # the bound actually bit


class TestMachineIssueOverhead:
    """``MachineSpec.issue_overhead_s`` is the communicators' default
    launch cost (0 on the shipped machines keeps eager numerics bitwise)."""

    def _machine(self, overhead):
        from dataclasses import replace

        return replace(LAPTOP, issue_overhead_s=overhead)

    def test_group_communicator_inherits_machine_constant(self, rng):
        cluster = VirtualCluster(2, self._machine(3e-6))
        comm = communicator(_group(cluster, range(2)))
        assert comm.issue_overhead_s == 3e-6
        comm.all_reduce([rng.standard_normal(4) for _ in range(2)])
        np.testing.assert_allclose(cluster.clocks, 3e-6)

    def test_axis_communicator_inherits_machine_constant(self, rng):
        from repro.core.grid import PlexusGrid

        cfg = GridConfig(2, 1, 1)
        cluster = VirtualCluster(cfg.total, self._machine(5e-6))
        grid = PlexusGrid(cluster, cfg)
        comm = grid.comm(Axis.X)
        assert comm.issue_overhead_s == 5e-6
        comm.all_reduce(rng.standard_normal((cfg.total, 4, 4)))
        np.testing.assert_allclose(cluster.clocks, 5e-6)

    def test_shipped_machines_charge_nothing(self):
        for m in (LAPTOP, PERLMUTTER):
            assert m.issue_overhead_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="issue_overhead_s"):
            self._machine(-1e-6)


class TestCrossEpochPrefetch:
    """The layer-0 F all-gather prefetch (overlap=True): same numerics,
    strictly less visible communication."""

    def _run(self, prefetch, build=PlexusGCN, epochs=4, **opts):
        """``prefetch=False`` is the "off" arm: layer 0's backward is handed
        no prefetch hook."""
        with pytest.MonkeyPatch.context() as mp:
            if not prefetch:
                mp.setattr(PlexusGCN, "_f0_prefetch_hook", lambda self: None)
            return _train(GridConfig(3, 2, 2), overlap=True, build=build, epochs=epochs, **opts)

    def test_numerics_bitwise_with_prefetch(self):
        m1, r1, c1, w1 = self._run(True)
        m2, r2, c2, w2 = self._run(False)
        assert r1.losses == r2.losses
        assert np.array_equal(w1, w2)

    def test_comm_strictly_lower(self):
        _, _, c1, _ = self._run(True)
        _, _, c2, _ = self._run(False)
        comm1 = float(np.mean(c1.category_totals("comm:")))
        comm2 = float(np.mean(c2.category_totals("comm:")))
        assert comm1 < comm2
        assert c1.max_clock() <= c2.max_clock()

    def test_oracle_agrees_with_prefetch(self):
        mb, rb, cb, wb = self._run(True)
        mp, rp, cp, wp = self._run(True, build=PerRankOracle)
        assert rb.losses == rp.losses
        assert np.array_equal(wb, wp)
        assert np.array_equal(cb.clocks, cp.clocks)

    def test_trainable_features_disable_prefetch(self):
        """Trainable F0 changes after the optimizer step, so the gather
        cannot be prefetched — the run must still be bitwise clean."""
        m1, r1, _, _ = self._run(True, trainable_features=True)
        m2, r2, _, _ = self._run(False, trainable_features=True)
        assert m1._f0_pending is None
        assert r1.losses == r2.losses

    def test_cluster_reset_orphans_prefetch(self):
        """A cluster reset discards the timeline the prefetch was scheduled
        on; the next forward must drop the stale handle and gather eagerly,
        so post-reset clocks match a fresh run exactly."""
        a, feats, labels, mask = _dataset()
        cfg = GridConfig(3, 2, 2)

        def make():
            cluster = VirtualCluster(cfg.total, PERLMUTTER)
            model = PlexusGCN(cluster, cfg, a, feats, labels, mask, DIMS,
                              PlexusOptions(seed=0, overlap=True))
            return PlexusTrainer(model), cluster

        t1, c1 = make()
        t1.train(3)
        c1.reset()
        t1.train_epoch()

        # rank clocks depend on shard shapes and the schedule, not weight
        # values, so the post-reset epoch must cost exactly what a fresh
        # model's first epoch costs — a stale prefetch would inflate it
        t2, c2 = make()
        t2.train_epoch()
        assert np.array_equal(c1.clocks, c2.clocks)
        assert np.array_equal(c1.category_totals("comm:"), c2.category_totals("comm:"))

    def test_max_inflight_not_inherited_across_models(self):
        """A later model on the same cluster must not inherit an earlier
        model's link bound."""
        a, feats, labels, mask = _dataset()
        cfg = GridConfig(2, 2, 1)
        cluster = VirtualCluster(cfg.total, PERLMUTTER)
        PlexusGCN(cluster, cfg, a, feats, labels, mask, DIMS,
                  PlexusOptions(seed=0, max_inflight=1))
        assert cluster.store.max_inflight == 1
        PlexusGCN(cluster, cfg, a, feats, labels, mask, DIMS, PlexusOptions(seed=0))
        assert cluster.store.max_inflight is None

    def test_evaluate_leaves_prefetch_intact(self):
        """An evaluation pass between epochs must neither consume the
        in-flight prefetch nor change subsequent losses/clocks."""
        a, feats, labels, mask = _dataset()
        cfg = GridConfig(3, 2, 2)

        def make():
            cluster = VirtualCluster(cfg.total, PERLMUTTER)
            model = PlexusGCN(cluster, cfg, a, feats, labels, mask, DIMS,
                              PlexusOptions(seed=0, overlap=True))
            return PlexusTrainer(model), cluster

        t1, c1 = make()
        t1.train(2)
        t1.evaluate(np.ones(N_NODES, dtype=bool))
        s1 = t1.train_epoch()

        t2, c2 = make()
        t2.train(2)
        s2 = t2.train_epoch()
        assert s1.loss == s2.loss
        assert np.array_equal(c1.clocks, c2.clocks)


class TestOverlapSchedules:
    """Acceptance: overlap changes only the clocks, never the numerics."""

    def _compare(self, cfg, build, **opts):
        me, re_, ce, we = _train(cfg, overlap=False, build=build, **opts)
        mo, ro, co, wo = _train(cfg, overlap=True, build=build, **opts)
        assert re_.losses == ro.losses
        assert np.array_equal(we, wo)
        comm_e = float(np.mean(ce.category_totals("comm:")))
        comm_o = float(np.mean(co.category_totals("comm:")))
        assert np.array_equal(ce.category_totals("comp:"), co.category_totals("comp:"))
        return comm_e, comm_o, ce, co

    def test_blocked_aggregation_overlap_strictly_reduces_comm(self):
        """The Fig. 9-style configuration: aggregation_blocks > 1 pipelines
        per-block all-reduces behind the next block's SpMM."""
        for build in (PlexusGCN, PerRankOracle):
            comm_e, comm_o, ce, co = self._compare(
                GridConfig(2, 2, 2), build, aggregation_blocks=4
            )
            assert comm_o < comm_e
            assert not np.array_equal(ce.clocks, co.clocks)

    def test_w_prefetch_strictly_reduces_comm(self):
        comm_e, comm_o, ce, co = self._compare(GridConfig(3, 2, 2), PlexusGCN)
        assert comm_o < comm_e
        assert not np.array_equal(ce.clocks, co.clocks)

    def test_overlap_oracle_agrees_bitwise(self):
        """Product and oracle run the same overlap schedule: losses, weights
        and clocks agree with overlap on."""
        mb, rb, cb, wb = _train(GridConfig(3, 2, 2), overlap=True)
        mp, rp, cp, wp = _train(GridConfig(3, 2, 2), overlap=True, build=PerRankOracle)
        assert rb.losses == rp.losses
        assert np.array_equal(wb, wp)
        assert np.array_equal(cb.clocks, cp.clocks)

    def test_backward_dh_allreduce_hides_behind_backward_spmm(self):
        """The backward dH all-reduce is issued before the backward SpMM's
        compute is charged and waited where dF consumes it, so its visible
        phase total strictly drops under overlap, for the product and the
        oracle alike (numerics stay bitwise identical — asserted inside
        ``_compare``)."""
        for build in (PlexusGCN, PerRankOracle):
            _, _, ce, co = self._compare(GridConfig(2, 2, 2), build)
            dh_e = float(ce.store.prefix_totals("comm:all_reduce_dh").sum())
            dh_o = float(co.store.prefix_totals("comm:all_reduce_dh").sum())
            assert 0.0 < dh_o < dh_e

    def test_epoch_time_never_worse_with_overlap(self):
        _, re_, ce, _ = _train(GridConfig(2, 2, 2), overlap=False, aggregation_blocks=4, build=PerRankOracle)
        _, ro, co, _ = _train(GridConfig(2, 2, 2), overlap=True, aggregation_blocks=4, build=PerRankOracle)
        assert co.max_clock() <= ce.max_clock()

    def test_train_plexus_overlap_composes_with_explicit_options(self):
        """overlap=True must not be silently dropped when the caller also
        passes an options object."""
        from repro import PlexusOptions, train_plexus

        eager = train_plexus("ogbn-products", gpus=8, epochs=3, seed=0,
                             options=PlexusOptions(seed=0))
        overlapped = train_plexus("ogbn-products", gpus=8, epochs=3, seed=0,
                                  options=PlexusOptions(seed=0), overlap=True)
        assert overlapped.losses == eager.losses
        assert (sum(e.comm_time for e in overlapped.epochs)
                < sum(e.comm_time for e in eager.epochs))


class TestByteMoverSeam:
    """The worker-crossing seam without a worker process: a whole-cube
    cluster given a loop-back mover (one slice — every exchange hands the
    caller's own part back) runs the Z axis and the epoch barrier through
    the byte-mover path, and must land on the plain in-process run's bits —
    padded stacks too, whose plans come from the extents the frames carry."""

    @pytest.mark.parametrize(
        "schedule",
        [dict(overlap=False), dict(overlap=True), dict(overlap=True, aggregation_blocks=3)],
        ids=["eager", "overlap", "overlap-3-blocks"],
    )
    @pytest.mark.parametrize(
        "cfg, n",
        [(GridConfig(2, 2, 2), N_NODES), (GridConfig(2, 2, 2), 49), (GridConfig(1, 2, 3), 50)],
        ids=["uniform", "padded", "padded-uneven-z"],
    )
    def test_loopback_mover_equals_plain_inproc(self, cfg, n, schedule):
        posted = []

        def loopback(arrays):
            posted.append(len(arrays))
            return [(a,) for a in arrays]

        plain_model, plain, plain_cluster, plain_w = _train(cfg, n=n, **schedule)
        model, looped, cluster, w = _train(cfg, exchange=loopback, n=n, **schedule)
        assert (model.f0_stack.rows is None) == (n == N_NODES)
        # clocks-only exchanges (barrier, replayed issues) and operand ones
        # (clocks, the operand's valid extents, its planes)
        assert set(posted) == {1, 3}
        assert looped.losses == plain.losses
        assert [e.epoch_time for e in looped.epochs] == [e.epoch_time for e in plain.epochs]
        assert np.array_equal(w, plain_w)
        a, b = plain_cluster.store, cluster.store
        assert np.array_equal(a.clocks, b.clocks)
        for books in ("by_phase", "by_category"):
            assert getattr(a, books).keys() == getattr(b, books).keys()
            for label, vec in getattr(a, books).items():
                assert np.array_equal(vec, getattr(b, books)[label]), label
        # a link is its group's global ranks whichever path reserved it: one
        # per process group of every axis longer than 1
        assert a.links == b.links
        assert len(a.links) == sum(cfg.total // g for g in (cfg.gx, cfg.gy, cfg.gz) if g > 1)
        assert a.link_queues == b.link_queues


class TestScheduleKernel:
    """``repro.dist.comm._schedule`` is the one place a collective meets the
    timeline; every communicator is a set of its slots."""

    @staticmethod
    def _slots(n_groups, members):
        from repro.dist.comm import _Slots

        idx = [slice(gi * members, (gi + 1) * members) for gi in range(n_groups)]
        one = [_Slots((gi,), (idx[gi],)) for gi in range(n_groups)]
        return _Slots(range(n_groups), idx), one

    @given(
        n_groups=st.integers(1, 6),
        limit=st.sampled_from([None, 1, 2]),
        per_group=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_one_call_equals_sequential_one_group_calls(self, n_groups, limit, per_group, seed):
        """One call for every group equals one call per group in any order:
        each group has its own link and, under a bound, its own queue."""
        from repro.dist.cluster import ClockStore
        from repro.dist.comm import _schedule

        rng = np.random.default_rng(seed)
        members = 2
        order = rng.permutation(n_groups).tolist()
        slots, one = self._slots(n_groups, members)
        stores = [ClockStore(n_groups * members) for _ in range(2)]
        for store in stores:
            store.max_inflight = limit
        for _ in range(4):  # later rounds meet busy links and filled queues
            advance = rng.uniform(0.0, 2.0, n_groups * members)
            dur = rng.uniform(0.1, 3.0, n_groups) if per_group else float(rng.uniform(0.1, 3.0))
            for store in stores:
                store.clocks += advance
            whole, split = stores
            ready = whole.clocks.reshape(n_groups, members).max(axis=1)
            begin, end = _schedule(whole, slots, ready, dur, "comm:p")
            for gi in order:
                r = split.clocks[one[gi].members[0]].max()
                b, e = _schedule(split, one[gi], r, dur[gi] if per_group else dur, "comm:p")
                assert (b, e) == (begin[gi], end[gi])
            assert whole.links == split.links
            assert whole.link_queues == split.link_queues
            assert np.array_equal(whole.clocks, split.clocks)
            assert whole.by_phase.keys() == split.by_phase.keys()
            for ph, vec in whole.by_phase.items():
                assert np.array_equal(vec, split.by_phase[ph])

    def test_runtime_imports_no_private_dist_names(self):
        """The transports are byte movers: nothing under ``repro/runtime``
        reaches into ``repro.dist``'s underscore-prefixed helpers."""
        import ast
        from pathlib import Path

        import repro.runtime

        offenders = []
        for path in sorted(Path(repro.runtime.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.dist"):
                    offenders += [
                        f"{path.name}: {node.module}.{a.name}"
                        for a in node.names if a.name.startswith("_")
                    ]
        assert offenders == []
