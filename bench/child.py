"""One workload in one fresh process: set-up, warm-up, then measure.

``run.py`` starts this file once per (workload, pass).  Two modes:

* ``window`` — the end-to-end pass, ``repro.obs`` off: a closed loop of
  single epochs for a fixed wall-clock window, per-epoch wall and CPU
  samples, simulated epoch time, set-up time, peak RSS, and (with
  ``--check``) the correctness checks.
* ``trace``  — the per-layer pass: the program's public tracer
  (``repro.obs.trace`` + ``SimSink``, or ``MultiprocTrainer(trace_dir=...)``)
  plus the wrappers of :mod:`probes` around the kernel seams, for a fixed
  number of epochs; then the seam microbenchmarks.

The result is one JSON object on the last line of stdout.  Everything
heavy is imported inside ``main`` so the BLAS thread pins are in the
environment before numpy loads, and so the spawned workers (which re-import
this file as ``__mp_main__``) import nothing they do not need.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

from stats import median, percentile

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_EPOCHS = 3
#: the first timed epochs whose simulated duration is reported (a fixed
#: range, so the value repeats exactly for a given seed)
SIM_EPOCHS = 5
#: the traced pass alternates this many traced / untraced blocks
TRACE_BLOCKS = 5
#: per-layer metrics that exist on one backend only (0 on the other: the
#: wrappers do not reach worker processes, and there are no frames in-process)
MULTIPROC_ONLY = (
    "runtime.frames_per_epoch", "runtime.bytes_sent_per_epoch", "runtime.barrier_wait_ms",
    "runtime.exchange_ms", "runtime.worker_cpu_ms", "runtime.speedup_vs_inproc",
    "runtime.net.tcp_epoch_ms",
)
INPROC_ONLY = (
    "core.trainer.py_calls_per_epoch",
    "sparse.spmm_ms", "sparse.spmm_calls", "sparse.spmm_gflops",
    "core.batch.matmul_ms", "core.batch.matmul_calls", "core.batch.matmul_gflops",
    "nn.optim.adam_ms", "nn.functional.act_ms",
    "dist.comm.issue_ms", "dist.comm.wait_ms", "dist.comm.calls", "dist.comm.data_ms",
    "dist.comm.bytes", "dist.comm.x_ms", "dist.comm.y_ms", "dist.comm.z_ms",
    "dist.cluster.record_ms", "dist.cluster.record_calls",
    "sparse.aggregation_frac", "core.batch.combination_frac",
    "dist.comm.communication_frac", "core.trainer.other_frac",
    "runtime.checkpoint.save_ms", "runtime.checkpoint.load_ms", "runtime.checkpoint.bytes",
    "sparse.ops.spmm_us", "core.batch.stack_matmul_us", "core.batch.blockdiag_apply_us",
    "dist.comm.all_reduce_us", "dist.comm.all_gather_us", "dist.comm.reduce_scatter_us",
    "dist.cluster.advance_all_us", "nn.optim.adam_step_us",
)
PARITY_TOL = 1e-9
#: iterations of the host-speed reference loop: between two timed epochs
#: (~0.2 ms) and once after set-up (~15 ms)
REFERENCE_CHUNK = 40
REFERENCE_SETUP = 3000


# -- process accounting (Linux /proc) ------------------------------------------
def _sched_ns(pid: int) -> int:
    """On-CPU nanoseconds of one process (first field of schedstat; the
    ``stat`` utime/stime fields tick at 10 ms, too coarse per epoch)."""
    with open(f"/proc/{pid}/schedstat") as fh:
        return int(fh.read().split()[0])


def _hwm_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Session:
    """A trainer of either backend behind one ``step()`` / ``close()``."""

    def __init__(self, w, inputs, transport: str = "shm", trace_dir=None) -> None:
        import multiprocessing

        from workloads import build_inproc, build_multiproc

        self.workload = w
        if w.workers:
            self.trainer = build_multiproc(w, inputs, transport, trace_dir)
            self.worker_pids = [p.pid for p in multiprocessing.active_children()]
            self.step = self._step_multiproc
        else:
            self.trainer = build_inproc(w, inputs)
            self.worker_pids = []
            self.step = self.trainer.train_epoch

    def _step_multiproc(self):
        return self.trainer.train(1).epochs[0]

    def worker_cpu_ns(self) -> int:
        return sum(_sched_ns(pid) for pid in self.worker_pids)

    def cpu_ns(self) -> int:
        return time.process_time_ns() + self.worker_cpu_ns()

    def peak_rss_mb(self) -> float:
        return (_hwm_kb("self") + sum(_hwm_kb(pid) for pid in self.worker_pids)) / 1024.0

    def phase_totals(self) -> dict:
        """Simulated seconds per phase, summed over ranks (either backend)."""
        if self.workload.workers:
            by_phase = self.trainer.state()["by_phase"]
        else:
            by_phase = self.trainer.model.cluster.store.by_phase
        return {phase: float(vec.sum()) for phase, vec in by_phase.items()}

    def close(self) -> None:
        if self.workload.workers:
            self.trainer.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def reference_us(iterations: int) -> float:
    """Microseconds per iteration of a fixed loop (64x64 float32 matmul +
    dict insert) that never touches ``repro``: the host's speed at this
    moment.  This VM's speed drifts by up to 1.7x for minutes at a time
    (CPU time moves with wall time: a co-tenant, not preemption), and the
    loop slows down with it, so timings divided by it compare across runs."""
    import numpy as np

    x = np.ones((64, 64), dtype=np.float32)
    table: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(iterations):
        x @ x
        table[i] = i
    return (time.perf_counter() - t0) / iterations * 1e6


def timed_window(session: Session, seconds: float, min_epochs: int = SIM_EPOCHS) -> dict:
    """Closed loop of single epochs until the window closes, a short
    reference chunk between consecutive epochs (outside every timed span)."""
    wall, cpu, worker_cpu, sim, failures = [], [], [], [], []
    ref = [reference_us(REFERENCE_CHUNK)]
    attempted = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(wall) < min_epochs:
        attempted += 1
        w0 = session.worker_cpu_ns()
        c0 = time.process_time_ns()
        t0 = time.perf_counter()
        try:
            stats = session.step()
        except Exception:  # a failed epoch is a result, not a crash
            failures.append(traceback.format_exc(limit=4))
            break  # the trainer's state is undefined after a raise
        t1 = time.perf_counter()
        c1 = time.process_time_ns()
        w1 = session.worker_cpu_ns()
        if not math.isfinite(stats.loss):
            failures.append(f"non-finite loss at timed epoch {attempted - 1}")
        wall.append((t1 - t0) * 1e3)
        cpu.append((c1 - c0 + w1 - w0) / 1e6)
        worker_cpu.append((w1 - w0) / 1e6)
        sim.append(stats.epoch_time)
        ref.append(reference_us(REFERENCE_CHUNK))
    return {
        "wall_ms": wall,
        "cpu_ms": cpu,
        "worker_cpu_ms": worker_cpu,
        "sim_s": sim,
        "ref_us": ref,
        "attempted": attempted,
        "failures": failures,
    }


def set_up(w, seed: int, t_start: float, **session_kw):
    """Inputs, trainer (or pool), warm-up; returns the parts of ``setup_s``."""
    from workloads import make_inputs

    inputs = make_inputs(w, seed)
    t0 = time.perf_counter()
    session = Session(w, inputs, **session_kw)
    build_s = time.perf_counter() - t0
    try:
        warm_losses = [session.step().loss for _ in range(WARMUP_EPOCHS)]
    except BaseException:
        session.close()
        raise
    parts = {
        "setup_s": time.perf_counter() - t_start,
        "graph.generate_s": inputs.generate_s,
        "sparse.normalize_s": inputs.normalize_s,
        # the same interval is the model build in-process and the pool
        # spawn (workers build their slices) on the multiproc backend
        "core.model.build_s": 0.0 if w.workers else build_s,
        "runtime.launch.spawn_s": build_s if w.workers else 0.0,
    }
    return inputs, session, warm_losses, parts


# -- correctness checks ----------------------------------------------------------
def check_outputs(w, seed: int, inputs, warm_losses) -> list[dict]:
    """The invariants this workload must hold (each one counts as attempted)."""
    import dataclasses

    import numpy as np

    from repro.nn import Adam, SerialGCN
    from workloads import build_inproc, features_for

    if w.workers:
        # backend parity: the pool's first epochs equal the in-process ones
        ref = build_inproc(w, inputs)
        ref_losses = [ref.train_epoch().loss for _ in range(WARMUP_EPOCHS)]
        return [{
            "name": "multiproc_equals_inproc_bitwise",
            "ok": ref_losses == warm_losses,
            "detail": f"inproc {ref_losses} multiproc {warm_losses}",
        }]
    # quickstart / Fig. 7 invariant: float64 distributed == serial reference
    inputs64 = dataclasses.replace(inputs, features=features_for(w, seed, np.float64))
    trainer = build_inproc(w, inputs64, dtype=np.float64)
    losses = [trainer.train_epoch().loss for _ in range(WARMUP_EPOCHS)]
    serial = SerialGCN(list(w.dims), seed=0)
    opt = Adam(serial.parameters(), lr=trainer.model.options.lr)
    ref_losses = [
        serial.train_step(
            inputs64.adjacency, inputs64.features, inputs64.labels, inputs64.train_mask, opt
        )
        for _ in range(WARMUP_EPOCHS)
    ]
    dev = max(abs(a - b) for a, b in zip(losses, ref_losses))
    return [{
        "name": "float64_matches_serial_reference",
        "ok": bool(dev < PARITY_TOL),
        "detail": f"max |distributed - serial| loss deviation {dev:.3e}",
    }]


# -- mode: window ------------------------------------------------------------------
def run_window(w, args, t_start: float) -> dict:
    inputs, session, warm_losses, parts = set_up(w, args.seed, t_start)
    with session:
        setup_ref_us = reference_us(REFERENCE_SETUP)
        window = timed_window(session, args.seconds)
        peak_rss_mb = session.peak_rss_mb()
    checks = check_outputs(w, args.seed, inputs, warm_losses) if args.check else []
    return {
        **parts,
        **window,
        "peak_rss_mb": peak_rss_mb,
        "loss_at_3": warm_losses[-1],
        "setup_ref_us": setup_ref_us,
        "checks": checks,
    }


# -- mode: trace ---------------------------------------------------------------------
def _span_sums(events) -> dict:
    """Total nanoseconds per span name in one drained event buffer."""
    out: dict[str, int] = {}
    stack = []
    for ph, name, t_ns, _args in events:
        if ph == "B":
            stack.append((name, t_ns))
        elif ph == "E" and stack:
            begun, t0 = stack.pop()
            out[begun] = out.get(begun, 0) + (t_ns - t0)
    return out


def _sim_metrics(before: dict, after: dict, epochs: int, world: int) -> dict:
    """Per-epoch simulated milliseconds per phase family (mean over ranks)."""
    delta = {p: after[p] - before.get(p, 0.0) for p in after}
    scale = 1e3 / (epochs * world)

    def total(prefix: str) -> float:
        return sum(v for p, v in delta.items() if p.startswith(prefix)) * scale

    return {
        "dist.sim.comm_ms": total("comm:"),
        "dist.sim.comp_ms": total("comp:"),
        "dist.sim.spmm_ms": total("comp:spmm"),
        "dist.sim.gemm_ms": total("comp:gemm"),
        "dist.sim.all_reduce_ms": total("comm:all_reduce"),
        "dist.sim.all_gather_ms": total("comm:all_gather"),
        "dist.sim.reduce_scatter_ms": total("comm:reduce_scatter"),
        "dist.sim.loss_ms": total("comm:loss_"),
    }


def _analytic_epoch_s(w, inputs) -> float:
    from repro.graph.datasets import DatasetStats
    from repro.perf.analytic import PlexusAnalytic
    from workloads import MACHINE

    stats = DatasetStats(
        name=w.name, nodes=w.nodes, edges=inputs.adjacency.nnz - w.nodes,
        nonzeros=inputs.adjacency.nnz, features=w.dims[0], classes=w.dims[-1],
    )
    options = w.options()
    model = PlexusAnalytic(
        stats, list(w.dims), MACHINE,
        permutation=options.permutation,
        aggregation_blocks=w.aggregation_blocks,
        tune_dw_gemm=options.tune_dw_gemm,
        trainable_features=options.trainable_features,
        overlap=w.overlap,
    )
    return model.epoch_estimate(w.config).total


def _time_call(fn, budget_s: float = 0.15, max_calls: int = 2000) -> float:
    """Median microseconds per call of ``fn`` (3 warm calls first)."""
    for _ in range(3):
        fn()
    samples = []
    end = time.perf_counter() + budget_s
    while len(samples) < 5 or (time.perf_counter() < end and len(samples) < max_calls):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return median(samples) / 1e3


def seam_microbenchmarks(model) -> dict:
    """Direct calls into the kernel seams with this workload's own operands
    (the middle layer's activations, weights and adjacency shards)."""
    import numpy as np

    from repro.core.batch import BlockDiagSpmm, shard_views, stack_data, stack_matmul
    from repro.dist import VirtualCluster
    from repro.nn.optim import Adam
    from repro.sparse.ops import spmm
    from workloads import MACHINE

    _logits, caches = model.forward()
    layer, cache = model.layers[1], caches[1]
    comm_x, comm_z = model.grid.comm(layer.roles.x), model.grid.comm(layer.roles.z)
    w_local = comm_z.all_gather(layer.w_stack).wait()
    dw_partial = stack_matmul(cache.h, cache.q, ta=True)
    shard0, f0 = layer.a_shards[0], shard_views(cache.f)[0]
    plan = BlockDiagSpmm(layer.a_shards)
    params = {f"W{i}": stack_data(l.w_stack).copy() for i, l in enumerate(model.layers)}
    grads = {k: np.full_like(v, 1e-3) for k, v in params.items()}
    adam = Adam(params, lr=model.options.lr)
    cluster = VirtualCluster(model.grid.world_size, MACHINE)
    durations = np.full(model.grid.world_size, 1e-6)
    return {
        "sparse.ops.spmm_us": _time_call(lambda: spmm(shard0, f0)),
        "core.batch.blockdiag_apply_us": _time_call(lambda: plan.apply_batched(cache.f)),
        "core.batch.stack_matmul_us": _time_call(lambda: stack_matmul(cache.h, w_local)),
        "dist.comm.all_reduce_us": _time_call(lambda: comm_x.all_reduce(cache.h).wait()),
        "dist.comm.all_gather_us": _time_call(lambda: comm_z.all_gather(layer.w_stack).wait()),
        "dist.comm.reduce_scatter_us": _time_call(
            lambda: comm_z.reduce_scatter(dw_partial).wait()
        ),
        "dist.cluster.advance_all_us": _time_call(
            lambda: cluster.advance_all(durations, "comp:bench")
        ),
        "nn.optim.adam_step_us": _time_call(lambda: adam.step(grads)),
    }


def checkpoint_metrics(trainer, work_dir: Path) -> dict:
    """``save_checkpoint`` / ``load_checkpoint`` round trip, outside any
    timed window (median of 3)."""
    import shutil

    root = work_dir / "ckpt"
    saves, loads, size = [], [], 0
    try:
        for i in range(3):
            t0 = time.perf_counter()
            path = trainer.save_checkpoint(root, epoch=i + 1)
            t1 = time.perf_counter()
            trainer.load_checkpoint(path)
            t2 = time.perf_counter()
            saves.append((t1 - t0) * 1e3)
            loads.append((t2 - t1) * 1e3)
            size = sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "runtime.checkpoint.save_ms": median(saves),
        "runtime.checkpoint.load_ms": median(loads),
        "runtime.checkpoint.bytes": float(size),
    }


def run_trace_inproc(w, args, t_start: float) -> dict:
    from probes import AGGREGATION, COMBINATION, COMMUNICATION, Probes, count_python_calls
    from repro.obs import trace as obs_trace
    from workloads import build_inproc

    metrics: dict[str, float] = {}
    checks: list[dict] = []
    # 1) untraced: the reference window, the exact call count, sim clocks
    inputs, session, warm_losses, parts = set_up(w, args.seed, t_start)
    plain = session.trainer
    store = plain.model.cluster.store
    plain_phase3 = session.phase_totals()
    plain_clocks3 = store.clocks.copy()
    window = timed_window(session, args.seconds * 0.3)
    calls = [count_python_calls(plain.train_epoch) for _ in range(2)]
    checks.append({
        "name": "py_calls_per_epoch_repeats",
        "ok": calls[0] == calls[1],
        "detail": f"{calls}",
    })
    metrics["core.trainer.py_calls_per_epoch"] = float(calls[-1])
    metrics.update(checkpoint_metrics(plain, Path(args.work_dir)))

    # 2) traced: a fresh trainer over the same inputs, tracer + sink + probes.
    # Traced blocks alternate with untraced blocks on the first trainer, so
    # the overhead ratio compares epochs a few milliseconds apart (this
    # host's speed drifts by more than the overhead within seconds).
    probes = Probes()
    traced = build_inproc(w, inputs)
    tstore = traced.model.cluster.store
    tstore.trace = obs_trace.SimSink()

    def run_traced(epochs: int, record) -> None:
        obs_trace.enable("bench")
        probes.install()
        try:
            for _ in range(epochs):
                before = probes.snapshot()
                t0 = time.perf_counter_ns()
                stats = traced.train_epoch()
                dt = time.perf_counter_ns() - t0
                record(stats, dt, before, probes.snapshot(), _span_sums(obs_trace.drain()))
                tstore.trace.clear()
        finally:
            probes.uninstall()
            obs_trace.disable()

    traced_losses = []
    run_traced(WARMUP_EPOCHS, lambda stats, *_: traced_losses.append(stats.loss))
    checks.append({
        "name": "traced_equals_untraced_bitwise",
        "ok": traced_losses == warm_losses
        and {p: float(v.sum()) for p, v in tstore.by_phase.items()} == plain_phase3
        and bool((tstore.clocks == plain_clocks3).all()),
        "detail": f"untraced {warm_losses} traced {traced_losses}",
    })
    phase_before = {p: float(v.sum()) for p, v in tstore.by_phase.items()}
    clock_before = traced.model.cluster.max_clock()
    epoch_ns, spans, per_epoch, paired_untraced_ns = [], [], [], []

    def record(_stats, dt, before, after, span_sums) -> None:
        epoch_ns.append(dt)
        spans.append(span_sums)
        per_epoch.append({k: v - before.get(k, 0) for k, v in after.items()})

    n = w.traced_epochs
    for _ in range(TRACE_BLOCKS):
        for _ in range(n // TRACE_BLOCKS):
            t0 = time.perf_counter_ns()
            plain.train_epoch()
            paired_untraced_ns.append(time.perf_counter_ns() - t0)
        run_traced(n // TRACE_BLOCKS, record)
    phase_after = {p: float(v.sum()) for p, v in tstore.by_phase.items()}
    sim_epoch_s = (traced.model.cluster.max_clock() - clock_before) / n

    def med(key: str, scale: float = 1e-6) -> float:
        return median([e.get(key, 0) for e in per_epoch]) * scale

    def span_ms(name: str) -> float:
        return median([s.get(name, 0) for s in spans]) / 1e6

    stages = ("forward", "loss", "backward", "apply_gradients")
    for stage in stages:
        metrics[f"core.trainer.{stage}_ms"] = span_ms(stage)
    metrics["core.trainer.other_ms"] = median(
        [epoch_ns[i] - sum(spans[i].get(s, 0) for s in stages) for i in range(n)]
    ) / 1e6
    for i in range(len(w.dims) - 1):
        for direction in ("forward", "backward"):
            metrics[f"core.layers.layer{i}.{direction}_ms"] = span_ms(f"layer{i}.{direction}")

    total_ns = float(sum(epoch_ns))
    total: dict[str, float] = {}
    for e in per_epoch:
        for k, v in e.items():
            total[k] = total.get(k, 0) + v
    spmm_s = total.get("ns:sparse.spmm", 0) / 1e9
    matmul_s = total.get("ns:core.batch.matmul", 0) / 1e9
    metrics.update({
        "sparse.spmm_ms": med("ns:sparse.spmm"),
        "sparse.spmm_calls": med("calls:sparse.spmm", 1.0),
        "sparse.spmm_gflops": total.get("work:sparse.spmm.flops", 0.0) / spmm_s / 1e9 if spmm_s else 0.0,
        "core.batch.matmul_ms": med("ns:core.batch.matmul"),
        "core.batch.matmul_calls": med("calls:core.batch.matmul", 1.0),
        "core.batch.matmul_gflops": (
            total.get("work:core.batch.matmul.flops", 0.0) / matmul_s / 1e9 if matmul_s else 0.0
        ),
        "nn.optim.adam_ms": med("ns:nn.optim.adam"),
        "nn.functional.act_ms": med("ns:nn.functional.act"),
        "dist.comm.issue_ms": med("ns:dist.comm.issue"),
        "dist.comm.wait_ms": med("ns:dist.comm.wait"),
        "dist.comm.calls": med("calls:dist.comm.issue", 1.0),
        "dist.comm.data_ms": med("ns:dist.comm.data"),
        "dist.comm.bytes": med("work:dist.comm.bytes", 1.0),
        "dist.comm.x_ms": med("ns:dist.comm.x"),
        "dist.comm.y_ms": med("ns:dist.comm.y"),
        "dist.comm.z_ms": med("ns:dist.comm.z"),
        "dist.cluster.record_ms": med("ns:dist.cluster.record"),
        "dist.cluster.record_calls": med("calls:dist.cluster.record", 1.0),
    })
    shares = {c: total.get("class:" + c, 0) / total_ns for c in (AGGREGATION, COMBINATION, COMMUNICATION)}
    metrics.update({
        "sparse.aggregation_frac": shares[AGGREGATION],
        "core.batch.combination_frac": shares[COMBINATION],
        "dist.comm.communication_frac": shares[COMMUNICATION],
        "core.trainer.other_frac": 1.0 - sum(shares.values()),
    })
    metrics.update(_sim_metrics(phase_before, phase_after, n, w.config.total))
    metrics["perf.analytic.epoch_rel_err"] = (
        abs(_analytic_epoch_s(w, inputs) - sim_epoch_s) / sim_epoch_s
    )
    metrics["obs.traced_over_untraced"] = median(epoch_ns) / median(paired_untraced_ns)
    metrics.update(seam_microbenchmarks(traced.model))
    return {
        **parts,
        "metrics": metrics,
        "untraced_wall_ms": window["wall_ms"],
        "attempted": window["attempted"] + WARMUP_EPOCHS + n,
        "failures": window["failures"],
        "checks": checks,
    }


def _worker_epochs(trace_dir: Path, process: str = "worker 0") -> list[dict]:
    """Per-epoch span sums (ns) of one worker, from ``events.jsonl``; an
    exchange runs from barrier A's begin to barrier B's end (copy-out
    between them included)."""
    epochs, current, stack = [], {}, []
    exchange_t0 = None
    with open(trace_dir / "events.jsonl") as fh:
        for line in fh:
            ev = json.loads(line)
            if ev["process"] != process:
                continue
            name, t_ns = ev["name"], ev["ts_us"] * 1e3
            if ev["ph"] == "B":
                stack.append((name, t_ns))
                if name == "shm.barrier_a":
                    exchange_t0 = t_ns
            elif ev["ph"] == "E" and stack:
                begun, t0 = stack.pop()
                current[begun] = current.get(begun, 0.0) + (t_ns - t0)
                if begun == "shm.barrier_b" and exchange_t0 is not None:
                    current["exchange"] = current.get("exchange", 0.0) + (t_ns - exchange_t0)
                    exchange_t0 = None
                if begun == "worker.epoch":
                    epochs.append(current)
                    current = {}
    return epochs


def _worker_counters(trace_dir: Path, process: str = "worker 0") -> dict[int, dict]:
    rows = {}
    with open(trace_dir / "metrics.jsonl") as fh:
        for line in fh:
            row = json.loads(line)
            if row["process"] == process:
                rows[row["epoch"]] = row["counters"]
    return rows


def run_trace_multiproc(w, args, t_start: float) -> dict:
    import dataclasses

    from workloads import WORKLOADS, build_inproc

    metrics: dict[str, float] = {}
    checks: list[dict] = []
    n = w.traced_epochs
    # 1) untraced pool, and the in-process twin it is compared against
    inputs, session, warm_losses, parts = set_up(w, args.seed, t_start)
    with session:
        window = timed_window(session, args.seconds * 0.3)
        phase_before = session.phase_totals()
        session.trainer.train(SIM_EPOCHS)
        phase_after = session.phase_totals()
    metrics.update(_sim_metrics(phase_before, phase_after, SIM_EPOCHS, w.config.total))
    sim_epoch_s = sum(window["sim_s"][:SIM_EPOCHS]) / SIM_EPOCHS
    twin = dataclasses.replace(WORKLOADS["dense1536"], name=w.name)
    metrics["perf.analytic.epoch_rel_err"] = (
        abs(_analytic_epoch_s(twin, inputs) - sim_epoch_s) / sim_epoch_s
    )
    inproc = build_inproc(twin, inputs)
    inproc_losses = [inproc.train_epoch().loss for _ in range(WARMUP_EPOCHS)]
    inproc_ms = []
    end = time.perf_counter() + args.seconds * 0.15
    while time.perf_counter() < end or len(inproc_ms) < SIM_EPOCHS:
        t0 = time.perf_counter()
        inproc.train_epoch()
        inproc_ms.append((time.perf_counter() - t0) * 1e3)
    untraced_ms = median(window["wall_ms"])
    metrics["runtime.speedup_vs_inproc"] = median(inproc_ms) / untraced_ms
    metrics["runtime.worker_cpu_ms"] = median(window["worker_cpu_ms"])

    # 2) traced pool: one train(n) call (every train() rewrites the trace dir)
    trace_dir = Path(args.work_dir) / "trace"
    with Session(w, inputs, trace_dir=trace_dir) as traced:
        traced_losses = [s.loss for s in traced.trainer.train(WARMUP_EPOCHS).epochs]
        traced.trainer.train(n)
    checks.append({
        "name": "traced_equals_untraced_bitwise",
        "ok": traced_losses == warm_losses == inproc_losses,
        "detail": f"untraced {warm_losses} traced {traced_losses} inproc {inproc_losses}",
    })
    epochs = _worker_epochs(trace_dir)[WARMUP_EPOCHS:]
    counters = _worker_counters(trace_dir)
    first, last = counters[WARMUP_EPOCHS], counters[WARMUP_EPOCHS + n]

    def span_ms(name: str) -> float:
        return median([e.get(name, 0.0) for e in epochs]) / 1e6

    stages = ("forward", "loss", "backward", "apply_gradients")
    for stage in stages:
        metrics[f"core.trainer.{stage}_ms"] = span_ms(stage)
    metrics["core.trainer.other_ms"] = median(
        [e.get("worker.epoch", 0.0) - sum(e.get(s, 0.0) for s in stages) for e in epochs]
    ) / 1e6
    for i in range(len(w.dims) - 1):
        for direction in ("forward", "backward"):
            metrics[f"core.layers.layer{i}.{direction}_ms"] = span_ms(f"layer{i}.{direction}")
    metrics.update({
        "runtime.frames_per_epoch": (last["frames_sent"] - first["frames_sent"]) / n,
        "runtime.bytes_sent_per_epoch": (last["bytes_sent"] - first["bytes_sent"]) / n,
        "runtime.barrier_wait_ms": median(
            [e.get("shm.barrier_a", 0.0) + e.get("shm.barrier_b", 0.0) for e in epochs]
        ) / 1e6,
        "runtime.exchange_ms": span_ms("exchange"),
        "obs.traced_over_untraced": span_ms("worker.epoch") / untraced_ms,
    })

    # 3) the same pool over loopback tcp
    with Session(w, inputs, transport="tcp") as tcp:
        tcp_losses = [tcp.step().loss for _ in range(WARMUP_EPOCHS)]
        tcp_ms = []
        for _ in range(n):
            t0 = time.perf_counter()
            tcp.step()
            tcp_ms.append((time.perf_counter() - t0) * 1e3)
    checks.append({
        "name": "tcp_equals_shm_bitwise",
        "ok": tcp_losses == warm_losses,
        "detail": f"shm {warm_losses} tcp {tcp_losses}",
    })
    metrics["runtime.net.tcp_epoch_ms"] = median(tcp_ms)
    return {
        **parts,
        "metrics": metrics,
        "untraced_wall_ms": window["wall_ms"],
        "attempted": window["attempted"] + 2 * (WARMUP_EPOCHS + n) + SIM_EPOCHS,
        "failures": window["failures"],
        "checks": checks,
    }


def run_trace(w, args, t_start: float) -> dict:
    run = run_trace_multiproc if w.workers else run_trace_inproc
    result = run(w, args, t_start)
    metrics = result["metrics"]
    for name in INPROC_ONLY if w.workers else MULTIPROC_ONLY:
        metrics[name] = 0.0
    for part in ("graph.generate_s", "sparse.normalize_s", "core.model.build_s",
                 "runtime.launch.spawn_s"):
        metrics[part] = result[part]
    metrics["core.trainer.epoch_ms_p95"] = percentile(result["untraced_wall_ms"], 95.0)
    result["untraced_samples"] = len(result.pop("untraced_wall_ms"))
    return result


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("window", "trace"), required=True)
    parser.add_argument("--check", type=int, default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    for name in THREAD_PINS:  # before numpy loads; the workers inherit it
        os.environ[name] = "1"
    os.environ["TMPDIR"] = args.work_dir  # port files, pymp dirs: inside the checkout
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    result = (run_window if args.mode == "window" else run_trace)(w, args, t_start)
    result["workload"] = w.name
    result["seed"] = args.seed
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
