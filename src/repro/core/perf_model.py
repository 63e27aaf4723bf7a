"""The Plexus performance model (Sec. 4).

Three pieces, mirroring the paper:

* :class:`CompModel` — the SpMM computation cost of Eq. 4.4.  Per layer,
  ``flops_cost = NNZ * D_L`` and two shape penalties
  ``fwd = (N/Gx) * (Gy/D_L)`` and ``bwd = (N/Gz) * (Gy/D_L)`` (computed with
  that layer's rotated axis roles) combine into the three regression terms
  ``sqrt(f), sqrt(f)*fwd, sqrt(f)*bwd`` summed over layers.
* :class:`SpmmRegression` — the linear map from those terms to SpMM time.
  The paper fits it on 67 measured runs with scikit-learn; we provide the
  identical least-squares fit (:func:`fit_spmm_regression`, numpy lstsq)
  plus the 70/30-split validation protocol, and ship the paper's own
  coefficients as a usable default.
* :class:`CommModel` — Eqs. 4.5-4.6: the engine's ring laws (per-hop
  latency included) summed over every communication step of Algorithms 1-2
  across all layers, with per-axis effective bandwidths from the
  topology-aware mapping.  The steps are :data:`COLLECTIVES`, the one table
  of those collectives (:func:`collective_times` prices it), which
  ``repro.perf.analytic.PlexusAnalytic`` schedules on the engine's timeline.

:class:`PerformanceModel` sums the two predictions into an epoch-time
estimate (the paper neglects dense compute and loss, Sec. 4.3), and
:func:`select_best_config` ranks all factorizations of G — replacing the
exhaustive testing Fig. 5 validates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.grid import Axis, GridConfig, axis_roles
from repro.dist.collectives import RING_LAWS
from repro.dist.group import axis_bandwidth
from repro.dist.topology import MachineSpec
from repro.graph.datasets import DatasetStats

__all__ = [
    "PAPER_COEFFICIENTS_MS",
    "CompModel",
    "SpmmRegression",
    "fit_spmm_regression",
    "COLLECTIVES",
    "collective_times",
    "CommModel",
    "PerformanceModel",
    "select_best_config",
]

#: the coefficients the paper reports for its three terms (times in ms)
PAPER_COEFFICIENTS_MS = (7.8e-4, 7.8e-10, -2.6e-10)


@dataclass(frozen=True)
class CompModel:
    """Eq. 4.4's computation-cost terms for one (dataset, network) pair."""

    stats: DatasetStats
    layer_dims: Sequence[int]

    def layer_terms(self, config: GridConfig, layer_idx: int) -> np.ndarray:
        """``[sqrt(f), sqrt(f)*fwd_penalty, sqrt(f)*bwd_penalty]`` for one layer."""
        d_l = self.layer_dims[layer_idx]
        roles = axis_roles(layer_idx)
        gx = config.size(roles.x)
        gy = config.size(roles.y)
        gz = config.size(roles.z)
        n = self.stats.nodes
        flops_cost = float(self.stats.nonzeros) * d_l
        fwd_penalty = (n / gx) * (gy / d_l)
        bwd_penalty = (n / gz) * (gy / d_l)
        root = np.sqrt(flops_cost)
        return np.array([root, root * fwd_penalty, root * bwd_penalty])

    def terms(self, config: GridConfig) -> np.ndarray:
        """Terms summed over all layers (the regression feature vector)."""
        n_layers = len(self.layer_dims) - 1
        return sum(self.layer_terms(config, i) for i in range(n_layers))


@dataclass(frozen=True)
class SpmmRegression:
    """Linear model from the three comp terms to SpMM seconds."""

    coefficients: tuple[float, float, float]

    @classmethod
    def paper_default(cls) -> "SpmmRegression":
        """The paper's fitted coefficients, converted from ms to seconds."""
        return cls(tuple(c * 1e-3 for c in PAPER_COEFFICIENTS_MS))  # type: ignore[arg-type]

    def predict(self, terms: np.ndarray) -> float:
        """Predicted SpMM epoch time (seconds); clipped at zero since the
        third coefficient is negative."""
        return max(float(np.dot(np.asarray(self.coefficients), terms)), 0.0)


def fit_spmm_regression(
    term_vectors: np.ndarray, observed_seconds: np.ndarray
) -> SpmmRegression:
    """Least-squares fit of the three coefficients (the paper's sklearn
    LinearRegression without intercept, Sec. 4.1)."""
    x = np.asarray(term_vectors, dtype=np.float64)
    y = np.asarray(observed_seconds, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError("term_vectors must be (n_samples, 3)")
    if y.shape != (x.shape[0],):
        raise ValueError("observed_seconds length mismatch")
    if x.shape[0] < 3:
        raise ValueError("need at least 3 samples to fit 3 coefficients")
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    return SpmmRegression(tuple(float(c) for c in coef))  # type: ignore[arg-type]


def regression_validation(
    term_vectors: np.ndarray,
    observed_seconds: np.ndarray,
    iterations: int = 1000,
    train_fraction: float = 0.7,
    seed: int = 0,
) -> dict[str, float]:
    """The paper's validation protocol: random 70/30 splits, ``iterations``
    times; returns mean train/test R^2 and RMSE (Sec. 4.1 reports
    0.89/0.79 R^2 and 16.8/20.1 ms RMSE)."""
    x = np.asarray(term_vectors, dtype=np.float64)
    y = np.asarray(observed_seconds, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    n_train = max(int(round(train_fraction * n)), 3)
    r2_tr, r2_te, rmse_tr, rmse_te = [], [], [], []

    def _metrics(xs, ys, reg):
        pred = xs @ np.asarray(reg.coefficients)
        resid = ys - pred
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        return r2, float(np.sqrt(ss_res / len(ys)))

    for _ in range(iterations):
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        if len(te) < 2:
            raise ValueError("too few samples for a test split")
        reg = fit_spmm_regression(x[tr], y[tr])
        a, b = _metrics(x[tr], y[tr], reg)
        c, d = _metrics(x[te], y[te], reg)
        r2_tr.append(a)
        rmse_tr.append(b)
        r2_te.append(c)
        rmse_te.append(d)
    return {
        "r2_train": float(np.mean(r2_tr)),
        "r2_test": float(np.mean(r2_te)),
        "rmse_train": float(np.mean(rmse_tr)),
        "rmse_test": float(np.mean(rmse_te)),
    }


#: Algorithms 1-2's collectives and the loss's, by the engine's phase name
#: (``comm:<phase>``): the ring kind and the layer role whose groups run it
#: (the loss's: the last layer's roles)
COLLECTIVES: dict[str, tuple[str, str]] = {
    "all_gather_f": ("all_gather", "z"),  # Alg. 1 line 3 (layer 0)
    "all_reduce_h": ("all_reduce", "x"),  # line 5, once per aggregation block
    "all_gather_w": ("all_gather", "z"),  # line 7; Alg. 2 line 4
    "all_reduce_q": ("all_reduce", "y"),  # line 9
    "loss_max": ("all_reduce", "x"),  # the loss's per-row statistics
    "loss_sumexp": ("all_reduce", "x"),
    "loss_zlabel": ("all_reduce", "x"),
    "loss_total": ("all_reduce", "z"),  # masked sum and count
    "reduce_scatter_dw": ("reduce_scatter", "z"),  # Alg. 2 line 3
    "all_reduce_dh": ("all_reduce", "x"),  # line 6
    "reduce_scatter_df": ("reduce_scatter", "z"),  # line 8 (layer 0)
    "all_reduce_df": ("all_reduce", "z"),  # the Sec. 3.2 change
}


def collective_times(
    n, d_in, d_out, layer_idx: int, sizes, bw, latency: float, elem_bytes: int = 4, blocks: int = 1
) -> dict[str, tuple]:
    """Every collective of :data:`COLLECTIVES` on layer ``layer_idx``: the
    physical axis it runs on and its Eq. 4.5 seconds, the engine's law with
    the engine's arguments.  ``sizes`` / ``bw`` map each :class:`Axis` to its
    group size / Eq. 4.6 bandwidth — scalars, or arrays over a sweep's
    configurations.  A ring moves Algorithms 1-2's F / H / Q / W block (a
    gather's result, a reduction's full vector), one element per logits row
    for the loss's statistics, two float64 for its total; blocked aggregation
    reduces H one of ``blocks`` row blocks at a time."""
    axes = dict(zip("xyz", axis_roles(layer_idx).as_tuple()))
    gx, gy, gz = (sizes[axes[r]] for r in "xyz")
    f = n / gx * (d_in / gy) * elem_bytes
    h = n / gz * (d_in / gy) * elem_bytes
    q = n / gz * (d_out / gx) * elem_bytes
    w = d_in / gy * (d_out / gx) * elem_bytes
    row = n / gz * elem_bytes
    nbytes = {
        "all_gather_f": f, "all_reduce_h": h / blocks, "all_gather_w": w, "all_reduce_q": q,
        "loss_max": row, "loss_sumexp": row, "loss_zlabel": row, "loss_total": 16.0,
        "reduce_scatter_dw": w, "all_reduce_dh": h, "reduce_scatter_df": f, "all_reduce_df": f,
    }
    return {
        phase: (axes[role], RING_LAWS[kind](nbytes[phase], sizes[axes[role]], bw[axes[role]], latency))
        for phase, (kind, role) in COLLECTIVES.items()
    }


@dataclass(frozen=True)
class CommModel:
    """Eqs. 4.5-4.6 applied to every collective of Algorithms 1-2."""

    stats: DatasetStats
    layer_dims: Sequence[int]
    machine: MachineSpec
    #: bytes per element at scale (the paper trains fp32)
    elem_bytes: int = 4
    trainable_features: bool = True

    def layer_comm_time(self, config: GridConfig, layer_idx: int) -> float:
        """Communication seconds of one layer's forward+backward."""
        times = collective_times(
            self.stats.nodes, self.layer_dims[layer_idx], self.layer_dims[layer_idx + 1], layer_idx,
            {a: config.size(a) for a in Axis},
            {a: axis_bandwidth(self.machine, config.size(a), config.inner_size(a)) for a in Axis},
            self.machine.latency, self.elem_bytes,
        )
        phases = ["all_reduce_h", "all_gather_w", "all_reduce_q", "reduce_scatter_dw", "all_gather_w", "all_reduce_dh"]
        if layer_idx > 0:
            phases.append("all_reduce_df")
        else:
            phases += ["all_gather_f", "reduce_scatter_df"][: 1 + self.trainable_features]
        return sum(times[phase][1] for phase in phases)

    def epoch_comm_time(self, config: GridConfig) -> float:
        """Total modeled communication seconds per epoch."""
        n_layers = len(self.layer_dims) - 1
        return sum(self.layer_comm_time(config, i) for i in range(n_layers))


@dataclass(frozen=True)
class PerformanceModel:
    """Unified model (Sec. 4.3): predicted epoch = SpMM + communication."""

    comp: CompModel
    comm: CommModel
    regression: SpmmRegression

    @classmethod
    def build(
        cls,
        stats: DatasetStats,
        layer_dims: Sequence[int],
        machine: MachineSpec,
        regression: SpmmRegression | None = None,
        trainable_features: bool = True,
    ) -> "PerformanceModel":
        return cls(
            comp=CompModel(stats, layer_dims),
            comm=CommModel(stats, layer_dims, machine, trainable_features=trainable_features),
            regression=regression or SpmmRegression.paper_default(),
        )

    def predict_epoch_time(self, config: GridConfig) -> float:
        """Predicted seconds per epoch for one 3D configuration."""
        return self.regression.predict(self.comp.terms(config)) + self.comm.epoch_comm_time(config)


def select_best_config(
    g: int,
    stats: DatasetStats,
    layer_dims: Sequence[int],
    machine: MachineSpec,
    regression: SpmmRegression | None = None,
    top_k: int = 1,
) -> list[tuple[GridConfig, float]]:
    """Rank every factorization of ``g`` by predicted epoch time.

    This is the user-facing replacement for exhaustively timing all
    configurations; Fig. 5 shows the ranking correlates strongly with
    observed times.  Returns the best ``top_k`` (config, seconds) pairs.
    """
    from repro.core.configs import factor_triples

    model = PerformanceModel.build(stats, layer_dims, machine, regression)
    scored = [(cfg, model.predict_epoch_time(cfg)) for cfg in factor_triples(g)]
    scored.sort(key=lambda p: p[1])
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    return scored[:top_k]
