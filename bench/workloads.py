"""The five benchmark workloads: inputs from a seed, trainers from inputs.

``--seed`` reaches graph / feature / label / mask generation only; the
program under test sees the generated arrays and a fixed
``PlexusOptions(seed=0)``.  Why each workload exists is recorded once, in
``BENCHMARK.json`` (``workloads[].why``) and ``bench/README.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer
from repro.dist import PERLMUTTER, VirtualCluster
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.sparse.ops import gcn_normalize

MACHINE = PERLMUTTER


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    avg_degree: int
    dims: tuple[int, ...]
    grid: tuple[int, int, int]
    #: epochs of the traced pass (fixed, so per-layer counts repeat exactly)
    traced_epochs: int
    overlap: bool = False
    aggregation_blocks: int = 1
    #: 0 = the in-process trainer; otherwise MultiprocTrainer worker count
    workers: int = 0

    @property
    def config(self) -> GridConfig:
        return GridConfig(*self.grid)

    def options(self, dtype=np.float32) -> PlexusOptions:
        return PlexusOptions(
            seed=0,
            compute_dtype=dtype,
            overlap=self.overlap,
            aggregation_blocks=self.aggregation_blocks,
        )


_DENSE = dict(nodes=1536, avg_degree=8, dims=(192, 192, 192, 48), grid=(4, 4, 4), traced_epochs=30)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("toy128", 128, 6, (32, 32, 32, 16), (4, 4, 4), traced_epochs=200),
        Workload(
            "ragged130", 130, 6, (34, 34, 34, 18), (4, 4, 4), traced_epochs=100,
            overlap=True, aggregation_blocks=4,
        ),
        Workload("dense1536", **_DENSE),
        Workload("rmat32k", 32768, 32, (32, 32, 32, 8), (2, 2, 2), traced_epochs=15),
        Workload("mp2_dense1536", **_DENSE, workers=2),
    )
}


@dataclass
class Inputs:
    adjacency: object  # normalized CSR
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    generate_s: float
    normalize_s: float


def features_for(w: Workload, seed: int, dtype=np.float32) -> np.ndarray:
    return synth_features(w.nodes, w.dims[0], seed=seed + 1, dtype=dtype)


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Everything derived from ``--seed`` (the same seed, the same arrays)."""
    t0 = time.perf_counter()
    graph = rmat_graph(w.nodes, avg_degree=w.avg_degree, seed=seed)
    t1 = time.perf_counter()
    adjacency = gcn_normalize(graph)
    t2 = time.perf_counter()
    features = features_for(w, seed)
    labels = degree_labels(adjacency, w.dims[-1], seed=seed + 2)
    train_mask, _, _ = random_split_masks(w.nodes, seed=seed + 3)
    t3 = time.perf_counter()
    # feature/label/mask synthesis is input generation too
    return Inputs(adjacency, features, labels, train_mask, (t1 - t0) + (t3 - t2), t2 - t1)


def build_inproc(w: Workload, inputs: Inputs, dtype=np.float32) -> PlexusTrainer:
    cluster = VirtualCluster(w.config.total, MACHINE)
    model = PlexusGCN(
        cluster, w.config, inputs.adjacency, inputs.features, inputs.labels,
        inputs.train_mask, list(w.dims), w.options(dtype),
    )
    return PlexusTrainer(model)


def build_multiproc(w: Workload, inputs: Inputs, transport: str = "shm", trace_dir=None):
    from repro.runtime import MultiprocTrainer, WorkloadSpec

    spec = WorkloadSpec(
        config=w.config,
        layer_dims=list(w.dims),
        workers=w.workers,
        machine=MACHINE,
        options=w.options(),
        adjacency=inputs.adjacency,
        features=inputs.features,
        labels=inputs.labels,
        train_mask=inputs.train_mask,
    )
    return MultiprocTrainer(spec, timeout=120.0, transport=transport, trace_dir=trace_dir)
