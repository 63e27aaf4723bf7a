"""Plexus reproduction: 3D parallel full-graph GNN training (SC '25).

A from-scratch numpy/scipy implementation of Ranjan et al.'s Plexus — the 3D
tensor-parallel full-graph GCN training algorithm — together with every
substrate it needs: a simulated multi-GPU cluster with ring collectives and
machine topologies (Perlmutter, Frontier), calibrated GPU kernel models,
synthetic structural equivalents of the six evaluation datasets, the Sec. 4
performance model, the Sec. 5 optimizations, and the baselines it is
compared against (BNS-GCN, CAGNET-SA, SA+GVB).

Quickstart::

    from repro import train_plexus
    result = train_plexus("ogbn-products", gpus=8, epochs=10)
    print(result.losses, result.mean_epoch_time())

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

import os
import sys
from contextlib import contextmanager

# One thread budget: repro.sparse.ops splits the kernels over the process's
# CPU share, so BLAS / OpenMP get one thread (a value the user set wins;
# spawned workers inherit it).  An OpenBLAS that numpy loaded before repro is
# capped through its C setter (an int; the Fortran ``..._64_`` one takes a
# pointer), else the contention is logged once.
_late = "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if _late:
    import ctypes
    from pathlib import Path

    _maps = Path("/proc/self/maps").read_text().split() if Path("/proc/self/maps").exists() else []
    _libs = [ctypes.CDLL(path) for path in set(_maps) if "openblas" in os.path.basename(path)]
    _names = [pre + "openblas_set_num_threads" + post for pre in ("", "scipy_") for post in ("", "64_")]
    _setters = [getattr(lib, name) for lib in _libs for name in _names if hasattr(lib, name)]
    for _set in _setters:
        _set.argtypes, _set.restype = [ctypes.c_int], None
        _set(1)
    if not _setters:
        from repro.obs.log import get_logger

        get_logger(__name__).warning(
            "numpy was imported before repro with a BLAS it cannot cap: its threads contend "
            "with repro's own splits (set OPENBLAS_NUM_THREADS=1, or import repro first)"
        )

from repro.core import (
    GridConfig,
    PlexusGCN,
    PlexusOptions,
    PlexusTrainer,
    TrainResult,
    factor_triples,
    select_best_config,
)
from repro.dist import FRONTIER, LAPTOP, PERLMUTTER, VirtualCluster, machine_by_name
from repro.graph import DatasetStats, GraphDataset, dataset_stats, list_datasets, load_dataset

__version__ = "1.0.0"

__all__ = [
    "GridConfig",
    "PlexusGCN",
    "PlexusOptions",
    "PlexusTrainer",
    "TrainResult",
    "factor_triples",
    "select_best_config",
    "VirtualCluster",
    "PERLMUTTER",
    "FRONTIER",
    "LAPTOP",
    "machine_by_name",
    "GraphDataset",
    "DatasetStats",
    "dataset_stats",
    "list_datasets",
    "load_dataset",
    "train_plexus",
    "__version__",
]


@contextmanager
def _inproc_trainer(spec, trace_dir, epochs: int):
    """The in-process trainer for ``spec``: with a ``trace_dir`` the tracer
    is on for exactly this run, and however the run ends the telemetry up to
    that point is written — the payload a worker ships, through the
    collector a pool uses."""
    from repro.obs import TraceCollector
    from repro.obs import trace as _trace
    from repro.obs.metrics import registry as _metrics
    from repro.runtime import build_trainer
    from repro.runtime.worker import _drain_trace_payload

    if trace_dir is not None:
        _trace.enable("inproc")
    cluster = None
    try:
        with _trace.span("build"):
            trainer = build_trainer(spec, "inproc")
        cluster = trainer.model.cluster
        yield trainer
    finally:
        if trace_dir is not None:
            try:
                collector = TraceCollector()
                collector.add_worker_payload("inproc", _drain_trace_payload(cluster, epochs))
                collector.write(trace_dir)
            finally:
                _metrics.clear()
                _trace.disable()


def train_plexus(
    dataset: str,
    gpus: int = 8,
    epochs: int = 10,
    config: GridConfig | None = None,
    machine=PERLMUTTER,
    scale: str = "tiny",
    hidden: int = 64,
    options: PlexusOptions | None = None,
    seed: int = 0,
    overlap: bool = False,
    backend: str = "inproc",
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 1,
    max_restarts: int = 2,
    transport: str = "shm",
    rendezvous: str | None = None,
    remote_workers: int = 0,
    trace_dir: str | None = None,
) -> TrainResult:
    """One-call end-to-end training on a scaled synthetic dataset.

    Loads the dataset, picks a 3D configuration with the Sec. 4 performance
    model unless ``config`` is given, builds the model over a virtual
    cluster, and trains for ``epochs`` full-graph iterations.  With
    ``overlap=True`` collectives run on the nonblocking handle schedule
    (losses are bitwise unchanged; only the simulated comm/comp breakdown
    improves) — it composes with an explicit ``options`` object, which
    controls everything else.

    ``backend`` selects the execution runtime: ``"inproc"`` (default)
    simulates every rank in this process; ``"multiproc"`` shards the rank
    cube across ``workers`` OS processes connected by the shared-memory
    transport (``repro.runtime``) — same losses, weights, clocks and phase
    totals, bit for bit, on every sharding (padded shards included), so
    both backends train the configuration the performance model picks.
    ``transport="tcp"`` swaps the shared-memory bus for the socket fabric
    (still bitwise identical over loopback): ``rendezvous="host:port"``
    places the membership rendezvous (port 0 picks an ephemeral port), and
    ``remote_workers`` slots are filled by workers a second launcher
    (``repro host``) attaches by dialing that address with the session key
    both share, ``$PLEXUS_AUTHKEY``.

    ``checkpoint_dir`` enables epoch-boundary checkpointing (every
    ``checkpoint_every`` epochs) on either backend, through the one loop
    :func:`repro.runtime.checkpoint.train_to`: ``epochs`` becomes a
    *total* target, so an interrupted invocation re-run with the same
    directory resumes from the newest checkpoint — whichever backend wrote
    it — and completes the job, returning the same ``TrainResult``, bit for
    bit, as an uninterrupted run.  A pool failure (a crashed, wedged or
    desynchronized worker, a corrupted payload) restarts the pool and
    replays from the newest checkpoint inside the call, up to
    ``max_restarts`` times; the in-process trainer has no such failure.

    ``trace_dir`` turns on the telemetry layer (:mod:`repro.obs`): span
    traces, per-epoch metrics and simulated-clock phase totals are written
    into the directory as a Perfetto-loadable Chrome trace plus JSONL
    event/metrics logs — on both backends, without changing any numeric
    result (traced runs are bitwise identical to untraced ones).
    """
    from dataclasses import replace

    if backend not in ("inproc", "multiproc"):
        raise ValueError(f"unknown backend {backend!r} (known: inproc, multiproc)")
    if workers is not None and backend != "multiproc":
        raise ValueError("workers only applies to backend='multiproc'")
    if backend != "multiproc" and (
        transport != "shm" or rendezvous is not None or remote_workers
    ):
        raise ValueError(
            "transport / rendezvous / remote_workers apply to "
            "backend='multiproc' only"
        )
    if options is None:
        options = PlexusOptions(seed=seed, overlap=overlap)
    elif overlap and not options.overlap:
        options = replace(options, overlap=True)
    ds = load_dataset(dataset, scale=scale, seed=seed)
    dims = [ds.n_features, hidden, hidden, ds.n_classes]
    if config is None:
        config = select_best_config(gpus, ds.paper_stats, dims, machine)[0][0]
    elif config.total != gpus:
        raise ValueError(f"grid {config.name} needs {config.total} ranks, gpus={gpus}")
    from repro.runtime import WorkloadSpec, build_trainer
    from repro.runtime.checkpoint import train_to

    spec = WorkloadSpec(
        config=config,
        layer_dims=dims,
        workers=workers if workers is not None else min(2, config.gz),
        machine=machine,
        options=options,
        adjacency=ds.norm_adjacency,
        features=ds.features,
        labels=ds.labels,
        train_mask=ds.train_mask,
        trace=trace_dir is not None,
    )
    if backend == "multiproc":
        run = build_trainer(
            spec,
            backend,
            transport=transport,
            rendezvous=rendezvous,
            remote_workers=remote_workers,
            trace_dir=trace_dir,
        )
    else:
        run = _inproc_trainer(spec, trace_dir, epochs)
    with run as trainer:
        return train_to(trainer, epochs, checkpoint_dir, checkpoint_every, max_restarts)
