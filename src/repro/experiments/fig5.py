"""Figure 5 (and Sec. 4.1's regression): performance-model validation.

The paper times every factorization of 64 GPUs on ogbn-products, fits the
3-term SpMM regression on 67 runs across datasets/configurations, and shows
predicted epoch time tracking observed epoch time with 3D configurations in
front.  Here the "observed" side is the analytic kernel+collective simulator
(our testbed stand-in); the "predicted" side is the paper's model exactly:
the Eq. 4.4 term regression plus the Eq. 4.5-4.6 communication equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.configs import classify_config, factor_triples
from repro.core.grid import GridConfig
from repro.core.perf_model import (
    CommModel,
    CompModel,
    SpmmRegression,
    fit_spmm_regression,
    regression_validation,
)
from repro.dist.topology import PERLMUTTER, MachineSpec
from repro.experiments.common import ExperimentResult, gcn_layer_dims
from repro.graph.datasets import dataset_stats
from repro.perf.analytic import PlexusAnalytic

__all__ = ["collect_spmm_samples", "calibrated_regression", "predicted_vs_observed", "run"]

#: datasets x GPU counts used to build the regression training set (the
#: paper used 67 runs across datasets and configurations incl. the full
#: ogbn-products sweep at 64 GPUs)
_SAMPLE_SPECS = [
    ("ogbn-products", 64),
    ("reddit", 32),
    ("products-14m", 128),
    ("isolate-3-8m", 64),
]


def collect_spmm_samples(machine: MachineSpec = PERLMUTTER) -> tuple[np.ndarray, np.ndarray]:
    """(term vectors, observed SpMM seconds) across datasets/configs."""
    terms, times = [], []
    for ds_name, gpus in _SAMPLE_SPECS:
        st = dataset_stats(ds_name)
        dims = gcn_layer_dims(st.features, st.classes)
        comp = CompModel(st, dims)
        analytic = PlexusAnalytic(st, dims, machine)
        configs = factor_triples(gpus)
        terms += [comp.terms(cfg) for cfg in configs]
        times += [e.detail["spmm_fwd"] + e.detail["spmm_bwd"] for e in analytic.epoch_estimates(configs)]
    return np.asarray(terms), np.asarray(times)


def calibrated_regression(machine: MachineSpec = PERLMUTTER) -> tuple[SpmmRegression, dict[str, float]]:
    """Fit the 3-term regression on the sample sweep + validation metrics."""
    terms, times = collect_spmm_samples(machine)
    reg = fit_spmm_regression(terms, times)
    stats = regression_validation(terms, times, iterations=200)
    return reg, stats


@dataclass(frozen=True)
class ConfigPoint:
    """One point of the Fig. 5 scatter."""

    config: GridConfig
    family: str
    predicted_ms: float
    observed_ms: float


def predicted_vs_observed(
    dataset: str = "ogbn-products",
    gpus: int = 64,
    machine: MachineSpec = PERLMUTTER,
    regression: SpmmRegression | None = None,
) -> list[ConfigPoint]:
    """The Fig. 5 scatter: every factorization of ``gpus``."""
    st = dataset_stats(dataset)
    dims = gcn_layer_dims(st.features, st.classes)
    if regression is None:
        regression, _ = calibrated_regression(machine)
    comp = CompModel(st, dims)
    comm = CommModel(st, dims, machine)
    analytic = PlexusAnalytic(st, dims, machine)
    points = []
    configs = factor_triples(gpus)
    for cfg, est in zip(configs, analytic.epoch_estimates(configs)):
        pred = regression.predict(comp.terms(cfg)) + comm.epoch_comm_time(cfg)
        points.append(
            ConfigPoint(config=cfg, family=classify_config(cfg), predicted_ms=pred * 1e3, observed_ms=est.total * 1e3)
        )
    return points


def run(machine: MachineSpec = PERLMUTTER) -> ExperimentResult:
    """Regenerate Fig. 5 + the Sec. 4.1 regression validation numbers."""
    reg, stats = calibrated_regression(machine)
    points = predicted_vs_observed(regression=reg, machine=machine)
    res = ExperimentResult(
        "Fig. 5: predicted vs observed epoch time, ogbn-products @ 64 GPUs",
        ["Config", "Family", "Predicted (ms)", "Observed (ms)"],
    )
    for p in sorted(points, key=lambda p: p.observed_ms):
        res.add(p.config.name, p.family, f"{p.predicted_ms:.1f}", f"{p.observed_ms:.1f}")
    pred = np.array([p.predicted_ms for p in points])
    obs = np.array([p.observed_ms for p in points])
    corr = float(np.corrcoef(pred, obs)[0, 1])
    best_pred = min(points, key=lambda p: p.predicted_ms)
    best_obs = min(points, key=lambda p: p.observed_ms)
    res.note(f"predicted/observed correlation: {corr:.3f} (paper: strong positive)")
    res.note(
        f"regression validation (paper: R2 0.89 train / 0.79 test): "
        f"R2 {stats['r2_train']:.2f} train / {stats['r2_test']:.2f} test, "
        f"RMSE {stats['rmse_train'] * 1e3:.1f} / {stats['rmse_test'] * 1e3:.1f} ms"
    )
    res.note(f"model-selected config {best_pred.config.name}; true best {best_obs.config.name}")
    return res
