"""Strong-scaling sweeps over GPU counts (the series of Figs. 8-10).

For each GPU count, Plexus runs its best 3D configuration — in the paper the
performance model picks it (Sec. 4.3); here we rank by the analytic model,
which plays the "observed" role — while the baselines have a single
configuration per count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.configs import factor_triples
from repro.core.grid import GridConfig
from repro.perf.analytic import EpochEstimate, PartitionParallelAnalytic, PlexusAnalytic

__all__ = ["ScalingPoint", "best_plexus_config", "strong_scaling_series"]


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a strong-scaling curve."""

    gpus: int
    estimate: EpochEstimate
    config: GridConfig | None = None

    @property
    def ms(self) -> float:
        return self.estimate.total * 1e3


def best_plexus_config(model: PlexusAnalytic, gpus: int) -> tuple[GridConfig, EpochEstimate]:
    """Minimum-epoch-time factorization of ``gpus`` under the analytic model
    (the first of equals, in :func:`factor_triples` order)."""
    configs = factor_triples(gpus)
    estimates = model.epoch_estimates(configs)
    best = min(range(len(configs)), key=lambda i: estimates[i].total)
    return configs[best], estimates[best]


def strong_scaling_series(
    model: PlexusAnalytic | PartitionParallelAnalytic,
    gpu_counts: list[int],
) -> list[ScalingPoint]:
    """Evaluate the model over ``gpu_counts``; Plexus picks its best config."""
    points = []
    for g in gpu_counts:
        if isinstance(model, PlexusAnalytic):
            cfg, est = best_plexus_config(model, g)
            points.append(ScalingPoint(gpus=g, estimate=est, config=cfg))
        else:
            points.append(ScalingPoint(gpus=g, estimate=model.epoch_estimate(g)))
    return points
