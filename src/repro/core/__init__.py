"""Plexus core: the paper's contribution.

3D tensor-parallel full-graph GCN training (Sec. 3), the performance model
(Sec. 4), and the optimizations of Sec. 5 (double permutation, blocked
aggregation, dense-GEMM tuning).
"""

from repro.core.grid import Axis, AxisRoles, GridConfig, PlexusGrid, axis_roles
from repro.core.sharding import LayerSharding
from repro.core.permutation import PermutationScheme, build_scheme, permute_graph
from repro.core.configs import PlexusOptions, classify_config, factor_triples
from repro.core.noise import SpmmNoise
from repro.core.layers import LayerCache, PlexusLayer
from repro.core.model import PlexusGCN
from repro.core.trainer import (
    EpochStats,
    PlexusTrainer,
    TrainResult,
    distributed_accuracy,
    distributed_masked_ce,
)
from repro.core.perf_model import (
    CommModel,
    CompModel,
    PerformanceModel,
    SpmmRegression,
    fit_spmm_regression,
    select_best_config,
)

__all__ = [
    "Axis",
    "AxisRoles",
    "GridConfig",
    "PlexusGrid",
    "axis_roles",
    "LayerSharding",
    "PermutationScheme",
    "build_scheme",
    "permute_graph",
    "PlexusOptions",
    "classify_config",
    "factor_triples",
    "SpmmNoise",
    "LayerCache",
    "PlexusLayer",
    "PlexusGCN",
    "EpochStats",
    "PlexusTrainer",
    "TrainResult",
    "distributed_accuracy",
    "distributed_masked_ce",
    "CommModel",
    "CompModel",
    "PerformanceModel",
    "SpmmRegression",
    "fit_spmm_regression",
    "select_best_config",
]
