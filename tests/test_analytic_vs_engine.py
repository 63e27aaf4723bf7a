"""Analytic == engine: the figure model's epoch is the executed engine's.

``PlexusAnalytic`` — behind Sec. 4's configuration choice and Figs. 5-10 —
charges Algorithms 1-2 and the distributed loss on the *mean* shard of a
dataset, with the engine's kernel table and Eq. 4.5 ring laws, through the
engine's own timeline (``ClockStore``, the schedule kernel, the completion
handles).  This test holds it to the executed engine: one hypothesis test
drawing the grid (every factorization of 1-8 ranks), N, the layer dims
(1-3 layers), the machine (a launch cost per issue included), eager or
overlap schedules, 1-4 aggregation blocks and a frozen or trainable F0,
plus a ``PINNED`` table of named cases.
The engine trains in float32 (the model prices 4-byte elements) with no
SpMM noise, and its third epoch is the measure.

The graph is complete, so every shard holds its rows x columns nonzeros —
its permutation imbalance is exactly 1, which the model is told in place of
the calibrated ``IMBALANCE_BY_SCHEME["double"]`` — and the model's mean
shard *is* every rank's when N divides evenly ("uniform": N a multiple of
every grid axis times the blocks, dims multiples of every axis).  Then the epoch agrees within :data:`UNIFORM` and every phase
carrying at least 1 % of it within :data:`PHASE` of the engine's rank mean.
A "ragged" N leaves shards one row apart, and the engine's slowest rank
sets the pace where the model prices the mean one: the epoch agrees within
:data:`RAGGED`, and the per-phase bound holds for the computation phases
(the mean shard's kernels).  A ragged communication phase also carries the
wait of ranks that finished early — up to ~11 % of ``reduce_scatter_dw`` on
LAPTOP, where kernels dwarf links — which is the epoch bound's business.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, factor_triples, select_best_config
from repro.dist import LAPTOP, PERLMUTTER, VirtualCluster
from repro.graph.datasets import DatasetStats, load_dataset
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.perf import PlexusAnalytic
from repro.perf.calibration import IMBALANCE_BY_SCHEME
from repro.sparse.ops import gcn_normalize

PROFILES = {
    "default": settings(
        max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    ),
    "long": settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]),
}

#: every grid of at most 8 ranks
GRIDS = [g for g in itertools.product(range(1, 9), repeat=3) if np.prod(g) <= 8]

#: LAPTOP (every link intra-node), PERLMUTTER (inter-node Z links past 4
#: ranks), and LAPTOP with a launch cost on every issued collective
MACHINES = {"laptop": LAPTOP, "perlmutter": PERLMUTTER, "laptop-launch": replace(LAPTOP, issue_overhead_s=3e-6)}

#: relative epoch bounds, uniform and ragged N, and the per-phase bound
UNIFORM, RAGGED, PHASE = 0.005, 0.03, 0.05

COMPUTE = ("spmm_fwd", "spmm_bwd", "gemm_fwd", "gemm_dw", "gemm_dh")


@dataclass(frozen=True)
class Case:
    grid: tuple[int, int, int] = (2, 2, 2)
    n: int = 48
    dims: tuple[int, ...] = (16, 16, 8)
    machine: str = "laptop"
    overlap: bool = False
    blocks: int = 1
    trainable: bool = False

    @property
    def uniform(self) -> bool:
        lcm = int(np.lcm.reduce(self.grid))
        return self.n % (lcm * self.blocks) == 0 and all(d % lcm == 0 for d in self.dims)


@st.composite
def cases(draw) -> Case:
    grid = draw(st.sampled_from(GRIDS))
    lcm = int(np.lcm.reduce(grid))
    blocks = draw(st.integers(1, 4))
    if draw(st.booleans()):  # uniform: every shard (and row block) equal
        unit = lcm * blocks
        n = unit * draw(st.integers(max(1, 24 // unit), 96 // unit))
    else:
        n = draw(st.integers(97, 200))
    dims = [lcm * draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3)) + 1)]
    dims[-1] = max(dims[-1], 2)  # classes
    return Case(
        grid=grid,
        n=n,
        dims=tuple(dims),
        machine=draw(st.sampled_from(sorted(MACHINES))),
        overlap=draw(st.booleans()),
        blocks=blocks,
        trainable=draw(st.booleans()),
    )


def _engine(case: Case, adjacency) -> tuple[float, dict]:
    """The engine's third-epoch time and rank-mean seconds per phase."""
    n, dims = case.n, list(case.dims)
    config = GridConfig(*case.grid)
    cluster = VirtualCluster(config.total, MACHINES[case.machine])
    options = PlexusOptions(
        aggregation_blocks=case.blocks,
        trainable_features=case.trainable,
        compute_dtype=np.float32,
        overlap=case.overlap,
    )
    model = PlexusGCN(
        cluster, config, adjacency, synth_features(n, dims[0], seed=2, dtype=np.float32),
        degree_labels(adjacency, dims[-1], seed=3), random_split_masks(n, seed=4)[0], dims, options,
    )
    trainer = PlexusTrainer(model)
    trainer.train(2)
    before = {p: v.copy() for p, v in cluster.store.by_phase.items()}
    epoch = trainer.train(1).epochs[0]
    phases = {p.split(":", 1)[1]: float((v - before.get(p, 0.0)).mean()) for p, v in cluster.store.by_phase.items()}
    return epoch.epoch_time, phases


def _check(case: Case) -> None:
    adjacency = gcn_normalize(sp.csr_matrix(np.ones((case.n, case.n)) - np.eye(case.n)))
    stats = DatasetStats(
        name="complete", nodes=case.n, edges=adjacency.nnz - case.n, nonzeros=adjacency.nnz,
        features=case.dims[0], classes=case.dims[-1],
    )
    model = PlexusAnalytic(
        stats, list(case.dims), MACHINES[case.machine], aggregation_blocks=case.blocks,
        trainable_features=case.trainable, overlap=case.overlap,
    )
    with mock.patch.dict(IMBALANCE_BY_SCHEME, double=1.0):
        estimate = model.epoch_estimate(GridConfig(*case.grid))
    epoch, phases = _engine(case, adjacency)
    bound = UNIFORM if case.uniform else RAGGED
    assert estimate.total == pytest.approx(epoch, rel=bound)
    # (a group of one records no phase in the engine, zero seconds in the model)
    for phase in estimate.detail.keys() | phases.keys():
        want, got = phases.get(phase, 0.0), estimate.detail.get(phase, 0.0)
        if max(want, got) >= 0.01 * epoch and (case.uniform or phase in COMPUTE):
            assert got == pytest.approx(want, rel=PHASE), phase


#: named cases every run checks: X2Y2Z2's eager, blocked, overlap and
#: overlap-blocked schedules, frozen and trainable, on both machines
PINNED = {
    f"{schedule}-{'trainable' if trainable else 'frozen'}-{machine}": Case(
        machine=machine, overlap=overlap, blocks=blocks, trainable=trainable
    )
    for schedule, overlap, blocks in (("eager", False, 1), ("blocked", False, 4), ("overlap", True, 1), ("overlap-blocked", True, 4))
    for trainable in (False, True)
    for machine in ("laptop", "perlmutter")
}
#: one paper-scale row: 512 ranks, so PERLMUTTER's inter-node Z links and a
#: link-key space of hundreds of groups, which no drawn grid reaches
PINNED["eager-frozen-perlmutter-X8Y8Z8"] = Case(grid=(8, 8, 8), n=256, dims=(64, 32, 16), machine="perlmutter")


@pytest.mark.parametrize("name", ["ogbn-products", "reddit"])
def test_sec4_picks_what_the_engine_runs_fastest(name: str):
    """Every factorization of 8 ranks on a tiny scaled dataset, executed:
    the Sec. 4 model's top 3 holds the engine's fastest, and the analytic
    model ranks all ten as the engine does (X2Y2Z2 first on both)."""
    ds = load_dataset(name, scale="tiny", dtype=np.float32)
    dims = [ds.n_features, 64, 64, ds.n_classes]
    a = ds.norm_adjacency
    stats = DatasetStats(
        name=name, nodes=ds.n_nodes, edges=a.nnz - ds.n_nodes, nonzeros=a.nnz, features=dims[0], classes=dims[-1]
    )
    configs = factor_triples(8)
    options = PlexusOptions(compute_dtype=np.float32)
    engine = []
    for config in configs:
        model = PlexusGCN(VirtualCluster(8, PERLMUTTER), config, a, ds.features, ds.labels, ds.train_mask, dims, options)
        engine.append(PlexusTrainer(model).train(3).epochs[2].epoch_time)
    fastest = configs[int(np.argmin(engine))]
    assert fastest in [cfg for cfg, _ in select_best_config(8, stats, dims, PERLMUTTER, top_k=3)]
    analytic = PlexusAnalytic(stats, dims, PERLMUTTER, trainable_features=False).epoch_estimates(configs)
    assert np.argsort([e.total for e in analytic]).tolist() == np.argsort(engine).tolist()


@pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
def test_pinned_configuration_is_priced_like_the_engine_runs_it(case: Case):
    _check(case)


@PROFILES[os.environ.get("HYPOTHESIS_PROFILE", "default")]
@given(case=cases())
def test_every_configuration_is_priced_like_the_engine_runs_it(case: Case):
    _check(case)
