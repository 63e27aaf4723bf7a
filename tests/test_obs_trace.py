"""The telemetry layer (``repro.obs``): tracing, metrics, export, logs.

Acceptance properties:

* **Zero interference** — a traced run is bitwise identical to an
  untraced one (losses, clocks, phase buckets, weights), on the eager and
  overlap schedules, inproc and multiproc alike: the tracer only
  observes, never participates.
* **Sim-time completeness** — replaying a :class:`SimSink`'s events with
  :func:`sim_phase_totals` reproduces the :class:`ClockStore` phase
  buckets bit for bit (every charge funnels through the three
  ``record_*`` methods, so the mirror is complete by construction).
* **Export validity** — the merged ``trace.json`` passes the Chrome
  trace-event schema check (required keys, monotone per-track
  timestamps, matched B/E nesting) that CI also runs.
* **Disabled == free** — with tracing off, ``span()`` returns a shared
  no-op singleton and the buffers stay empty.
"""

from __future__ import annotations

import json
import re
import logging

import numpy as np
import pytest

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer
from repro.dist import LAPTOP, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.obs import (
    MetricsRegistry,
    SimSink,
    TraceCollector,
    format_liveness,
    sim_phase_totals,
    trace,
    validate_chrome_trace,
    validate_trace_dir,
)
from repro.obs.log import get_logger, set_worker
from repro.sparse.ops import gcn_normalize

N_NODES = 48
DIMS = [16, 16, 8]
CFG = GridConfig(2, 2, 2)


@pytest.fixture(autouse=True)
def _tracer_clean():
    """Every test starts and ends with the tracer disabled and empty."""
    trace.disable()
    yield
    trace.disable()


def _dataset(n=N_NODES, dims=DIMS):
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
    feats = synth_features(n, dims[0], seed=2)
    labels = degree_labels(a, dims[-1], seed=3)
    mask, _, _ = random_split_masks(n, seed=4)
    return a, feats, labels, mask


def _build_trainer(overlap=False, sink=None):
    a, feats, labels, mask = _dataset()
    cluster = VirtualCluster(CFG.total, LAPTOP)
    if sink is not None:
        cluster.store.trace = sink
    model = PlexusGCN(
        cluster, CFG, a, feats, labels, mask, list(DIMS),
        PlexusOptions(seed=0, overlap=overlap),
    )
    return PlexusTrainer(model), cluster


def _state_key(trainer, cluster):
    store = cluster.store
    return (
        store.clocks.copy(),
        {k: v.copy() for k, v in store.by_phase.items()},
        {f"W{i}": np.asarray(l.w_stack).copy()
         for i, l in enumerate(trainer.model.layers)},
    )


def _assert_same_state(a, b):
    assert np.array_equal(a[0], b[0])
    assert set(a[1]) == set(b[1])
    for ph in a[1]:
        assert np.array_equal(a[1][ph], b[1][ph]), ph
    for name in a[2]:
        assert np.array_equal(a[2][name], b[2][name]), name


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        s1 = trace.span("anything", rank=3)
        s2 = trace.span("else")
        assert s1 is s2  # the singleton: no per-call allocation
        with s1:
            pass
        assert trace.drain() == []

    def test_spans_nest(self):
        trace.enable("test")
        with trace.span("outer", epoch=0):
            with trace.span("inner"):
                trace.instant("mark", k=1)
        events = trace.drain()
        assert [(e[0], e[1]) for e in events] == [
            ("B", "outer"), ("B", "inner"), ("i", "mark"),
            ("E", "inner"), ("E", "outer"),
        ]
        ts = [e[2] for e in events]
        assert ts == sorted(ts)
        assert events[0][3] == {"epoch": 0}

    def test_nested_spans_export_valid(self, tmp_path):
        trace.enable("proc a")
        for e in range(3):
            with trace.span("epoch", epoch=e):
                with trace.span("forward"):
                    with trace.span("layer0"):
                        pass
                with trace.span("backward"):
                    pass
        collector = TraceCollector()
        collector.add_wall("proc a", trace.drain())
        out = collector.write(tmp_path)
        assert validate_chrome_trace(out / "trace.json") == []

    def test_unbalanced_spans_flagged(self, tmp_path):
        trace.enable("bad")
        trace.emit("B", "never-closed")
        collector = TraceCollector()
        collector.add_wall("bad", trace.drain())
        collector.write(tmp_path)
        problems = validate_chrome_trace(tmp_path / "trace.json")
        assert any("unclosed" in p for p in problems)


class TestSimSinkParity:
    """The sink mirrors the ClockStore's phase buckets bit for bit."""

    @pytest.mark.parametrize("overlap", [False, True])
    def test_replay_matches_buckets(self, overlap):
        sink = SimSink()
        trainer, cluster = _build_trainer(overlap=overlap, sink=sink)
        trainer.train(2)
        totals = sim_phase_totals(sink.events, world=CFG.total)
        store = cluster.store
        assert set(totals) == set(store.by_phase)
        for ph, vec in store.by_phase.items():
            assert np.array_equal(totals[ph], vec), ph

    def test_exported_summary_matches_buckets(self, tmp_path):
        sink = SimSink()
        trainer, cluster = _build_trainer(sink=sink)
        trainer.train(2)
        collector = TraceCollector()
        ev, links = sink.drain()
        collector.add_sim("inproc", ev, links)
        collector.write(tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for ph, vec in cluster.store.by_phase.items():
            got = np.asarray(summary["sim_phase_totals"][ph])
            assert np.array_equal(got, vec), ph

    def test_link_occupancy_recorded(self):
        sink = SimSink()
        trainer, cluster = _build_trainer(sink=sink)
        trainer.train(1)
        assert sink.links  # communicators reserved links through the sink
        flat = [  # one entry per issue: a window per group
            (label, phase, b, e)
            for labels, phase, begins, ends in sink.links
            for label, b, e in zip(labels, begins, ends)
        ]
        assert flat
        for label, phase, begin, end in flat:
            assert isinstance(label, str) and isinstance(phase, str)
            assert end >= begin >= 0.0

    def test_no_charge_suppresses_sink(self):
        sink = SimSink()
        trainer, cluster = _build_trainer(sink=sink)
        trainer.train(1)
        n = len(sink.events)
        with cluster.no_charge():
            cluster.store.record_all("fw_comp", 1.0)
        assert len(sink.events) == n  # evaluate()-style excursions emit nothing
        assert cluster.store.trace is sink  # and the sink is re-attached


class TestBitwiseNonInterference:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_inproc_traced_equals_untraced(self, overlap):
        t_plain, c_plain = _build_trainer(overlap=overlap)
        r_plain = t_plain.train(3)

        trace.enable("inproc")
        t_traced, c_traced = _build_trainer(overlap=overlap, sink=SimSink())
        r_traced = t_traced.train(3)
        trace.disable()

        assert r_plain.losses == r_traced.losses
        for a, b in zip(r_plain.epochs, r_traced.epochs):
            assert (a.loss, a.epoch_time, a.comm_time, a.comp_time) == (
                b.loss, b.epoch_time, b.comm_time, b.comp_time,
            )
        _assert_same_state(_state_key(t_plain, c_plain), _state_key(t_traced, c_traced))


class TestMetricsRegistry:
    def test_counters_gauges_hists(self):
        reg = MetricsRegistry()
        reg.count("frames_sent")
        reg.count("frames_sent")
        reg.count("bytes_sent", 100.0)
        reg.gauge("heartbeat_age", 0.5)
        reg.observe("epoch_s", 2.0)
        reg.observe("epoch_s", 4.0)
        snap = reg.snapshot()
        assert snap["counters"]["frames_sent"] == 2.0
        assert snap["counters"]["bytes_sent"] == 100.0
        assert snap["gauges"]["heartbeat_age"] == 0.5
        h = snap["hists"]["epoch_s"]
        assert h == {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0}
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "hists": {}}


class TestLiveness:
    def test_format_matches_barrier_timeout_shape(self):
        rows = [(0, "", 0.05, 3), (1, " [remote] [connection closed]", 12.34, 2)]
        text = format_liveness(rows)
        assert text == (
            "per-worker liveness:\n"
            "  worker 0: last heartbeat 0.1s ago, last completed epoch 3\n"
            "  worker 1 [remote] [connection closed]: last heartbeat 12.3s ago, "
            "last completed epoch 2"
        )

    def test_launcher_report_uses_shared_helper(self):
        # the BarrierTimeout message assembly and `repro trace summarize`
        # must render liveness through the same function
        from repro.runtime import launch

        assert launch.format_liveness is format_liveness


class TestLogging:
    def test_logger_namespaced_and_worker_prefixed(self):
        log = get_logger("unit-test")
        assert log.name == "repro.unit-test"
        root = logging.getLogger("repro")
        assert root.handlers  # _configure installed the stderr handler
        try:
            set_worker(7)
            rec = logging.LogRecord(
                "repro.unit-test", logging.INFO, __file__, 1,
                "hello from the fabric", None, None,
            )
            for handler in root.handlers:
                for f in handler.filters:
                    f.filter(rec)
            assert rec.getMessage() == "[worker 7] hello from the fabric"
            # idempotent: a second application must not double the prefix
            for handler in root.handlers:
                for f in handler.filters:
                    f.filter(rec)
            assert rec.getMessage() == "[worker 7] hello from the fabric"
        finally:
            for h in root.handlers:
                for f in list(h.filters):
                    h.removeFilter(f)


class TestEndToEnd:
    def test_train_plexus_trace_dir_inproc(self, tmp_path):
        import repro

        out = tmp_path / "tr"
        r_plain = repro.train_plexus("reddit", gpus=8, epochs=2, machine=LAPTOP)
        r_traced = repro.train_plexus(
            "reddit", gpus=8, epochs=2, machine=LAPTOP, trace_dir=str(out)
        )
        assert r_plain.losses == r_traced.losses
        for a, b in zip(r_plain.epochs, r_traced.epochs):
            assert (a.loss, a.epoch_time, a.comm_time, a.comp_time) == (
                b.loss, b.epoch_time, b.comm_time, b.comp_time,
            )
        assert validate_trace_dir(out) == []
        doc = json.loads((out / "trace.json").read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"epoch", "forward", "backward", "loss", "apply_gradients"} <= names
        assert any(n.startswith("layer0.") for n in names)

    def test_failing_traced_call_still_writes_and_disables(self, tmp_path):
        """The tracer is process-global: a traced in-process call that
        raises must not leave it on for every later run in the interpreter,
        and — like a pool's failing command — keeps the spans that led up
        to the failure."""
        import repro

        out = tmp_path / "tr"
        with pytest.raises(ValueError, match="epochs"):
            repro.train_plexus("reddit", gpus=8, epochs=0, machine=LAPTOP, trace_dir=str(out))
        assert not trace.enabled
        assert validate_trace_dir(out) == []
        assert "build" in (out / "events.jsonl").read_text()
        # ... and the next run in this interpreter is untraced
        repro.train_plexus("reddit", gpus=8, epochs=1, machine=LAPTOP)
        assert trace.drain() == []

    def test_trace_cli_roundtrip(self, tmp_path, capsys):
        import repro
        from repro.__main__ import main

        out = tmp_path / "tr"
        repro.train_plexus("reddit", gpus=8, epochs=1, machine=LAPTOP,
                           trace_dir=str(out))
        assert main(["trace", "validate", str(out)]) == 0
        assert main(["trace", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sim phase" in text or "phase" in text
        # how much of the RSS is graph and how much activations, on the rusage
        # line of the training process
        assert re.search(
            r"inproc: minor_faults=.*max_rss_kb=\S+, adjacency_bytes=[1-9]\S*, activation_bytes=[1-9]", text
        )
        # ... and how its kernels ran on its CPUs
        assert re.search(r"inproc: cpu share [1-9]\d*, spmm parts [1-9]\d*, gemm parts [1-9]\d*, pass parts \d+, threads", text)
        bad = tmp_path / "nothing-here"
        bad.mkdir()
        assert main(["trace", "validate", str(bad)]) == 1


class TestMultiprocIssueInstants:
    @staticmethod
    def _spec():
        from repro.runtime import WorkloadSpec

        dims = [16, 8]
        a, feats, labels, mask = _dataset(dims=dims)
        return WorkloadSpec(
            config=CFG, layer_dims=dims, workers=2, machine=LAPTOP,
            options=PlexusOptions(seed=0), adjacency=a, features=feats,
            labels=labels, train_mask=mask,
        )

    def test_traced_train_loop_renders_once_at_close(self, tmp_path, monkeypatch):
        """``train()`` only drains into the collector; the artifacts are
        rendered from the whole collector, so a per-call rewrite made a
        traced ``train(1)`` loop quadratic.  They are written at ``close()``
        and hold every call's launcher row and worker epochs."""
        from repro.runtime import MultiprocTrainer

        writes = []
        write = TraceCollector.write
        monkeypatch.setattr(
            TraceCollector, "write", lambda self, *a, **kw: writes.append(1) or write(self, *a, **kw)
        )
        out = tmp_path / "tr"
        with MultiprocTrainer(self._spec(), timeout=60, trace_dir=out) as traced:
            for _ in range(3):
                traced.train(1)
            assert writes == [] and not (out / "trace.json").exists()
        assert writes == [1]
        assert validate_trace_dir(out) == []
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        for process in ("launcher", "worker 0", "worker 1"):
            assert {1, 2, 3} <= {r["epoch"] for r in rows if r["process"] == process}, process

    @pytest.mark.parametrize(
        "cfg,workers,tracks", [(CFG, 2, 12), (GridConfig(2, 2, 4), 4, 20)], ids=["X2Y2Z2", "X2Y2Z4"]
    )
    def test_merged_pool_trace_has_the_inproc_link_windows(self, tmp_path, cfg, workers, tracks):
        """A link is named by its group's global ranks in every process, so
        the merged pool trace shows the in-process trace's link tracks and
        occupancy windows: equal labels mean equal links, and the only
        windows the collector drops are the replicated Z links' true
        duplicates."""
        from dataclasses import replace

        from repro.obs.export import _LINK_PID
        from repro.obs.metrics import registry
        from repro.runtime import MultiprocTrainer, build_trainer
        from repro.runtime.worker import _drain_trace_payload

        def windows(out):
            events = json.loads((out / "trace.json").read_text())["traceEvents"]
            return [
                (e["args"]["link"], e["name"], e["ts"], e["dur"])
                for e in events if e["pid"] == _LINK_PID and e["ph"] == "X"
            ]

        spec = replace(self._spec(), config=cfg, workers=workers, trace=True)
        spec.options = replace(spec.options, overlap=True)
        inproc = build_trainer(spec, backend="inproc")
        inproc.train(2)
        collector = TraceCollector()
        collector.add_worker_payload("inproc", _drain_trace_payload(inproc.model.cluster, 2))
        collector.write(tmp_path / "inproc")
        registry.clear()
        with MultiprocTrainer(spec, timeout=60, trace_dir=tmp_path / "pool") as traced:
            traced.train(2)
        want, got = windows(tmp_path / "inproc"), windows(tmp_path / "pool")
        assert len({w[0] for w in want}) == tracks
        assert len(set(want)) == len(want)  # in process nothing repeats
        assert sorted(got) == sorted(want)

    def test_worker_trace_marks_z_axis_issues(self, tmp_path):
        """Z-axis collectives cross workers through the same schedule kernel
        as X/Y, so a worker's trace marks their issue too.  One layer, so
        the only W gather rides the Z axis; traced == untraced bitwise."""
        from repro.runtime import MultiprocTrainer

        spec = self._spec()
        with MultiprocTrainer(spec, timeout=60) as plain:
            r_plain = plain.train(2)
            s_plain = plain.state()
        out = tmp_path / "tr"
        with MultiprocTrainer(spec, timeout=60, trace_dir=out) as traced:
            r_traced = traced.train(2)
            s_traced = traced.state()
        assert r_plain.losses == r_traced.losses
        assert np.array_equal(s_plain["clocks"], s_traced["clocks"])
        for ph, vec in s_plain["by_phase"].items():
            assert np.array_equal(vec, s_traced["by_phase"][ph]), ph
        for name, w in s_plain["weights"].items():
            assert np.array_equal(w, s_traced["weights"][name]), name
        events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
        for worker in ("worker 0", "worker 1"):
            assert any(
                e["process"] == worker and e["ph"] == "i" and e["name"] == "issue"
                and e["args"].get("phase") == "comm:all_gather_w"
                for e in events
            ), worker
