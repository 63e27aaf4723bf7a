"""Bench: simulated-collectives runtime throughput (the perf north-star).

Every scaling study in this repo drives the ``repro.dist`` hot path — group
lookup, straggler sync, vectorized shard reduction, timeline accounting —
thousands of times per sweep, so this benchmark pins how many *simulated
epochs per second* the runtime sustains on a 64-rank X4Y4Z4 grid on
Perlmutter.  One simulated epoch replays the full collective schedule of
Algorithms 1-2 (all-gather F/W, X/Y all-reduces, dW/dF reduce-scatters,
epoch barrier) for a 3-layer GCN with small stand-in shards: the tensor
math is deliberately tiny so the measurement isolates the simulator itself.

Run standalone with ``python benchmarks/test_dist_throughput.py [--quick]``
(CI uses ``--quick``): only that entry point writes ``BENCH_dist.json`` at
the repo root.  Under pytest the floor is asserted and nothing is written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.grid import GridConfig, PlexusGrid, axis_roles, map_collective
from repro.dist import PERLMUTTER, VirtualCluster

CONFIG = GridConfig(4, 4, 4)
N_LAYERS = 3
#: acceptance floor: the simulator must clear this on any reasonable host
MIN_EPOCHS_PER_SEC = 100.0
_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_dist.json"


def _make_shards(world: int) -> dict[str, list[np.ndarray]]:
    """Small per-rank stand-in shards (shapes mimic a tiny layer's blocks)."""
    gen = np.random.default_rng(0)
    return {
        "h": [gen.standard_normal((32, 16)) for _ in range(world)],
        "q": [gen.standard_normal((32, 8)) for _ in range(world)],
        "w": [gen.standard_normal((4, 8)) for _ in range(world)],
    }


def simulate_epoch(grid: PlexusGrid, shards: dict[str, list[np.ndarray]]) -> None:
    """Replay one epoch's collective schedule (Algorithms 1-2) on the grid.

    Kernel stand-ins advance all rank clocks with one vectorized
    ``advance_all`` per step — the rank-batched engine's idiom."""
    cluster = grid.cluster
    for i in range(N_LAYERS):
        roles = axis_roles(i)
        # forward: SpMM stand-in, H all-reduce, W all-gather, Q all-reduce
        cluster.advance_all(1e-4, "comp:spmm_fwd")
        map_collective(grid, roles.x, shards["h"], "all_reduce", phase="all_reduce_h")
        map_collective(grid, roles.z, shards["w"], "all_gather", axis=0, phase="all_gather_w")
        cluster.advance_all(5e-5, "comp:gemm_fwd")
        map_collective(grid, roles.y, shards["q"], "all_reduce", phase="all_reduce_q")
        # backward: dW reduce-scatter, dH all-reduce, dF all-reduce
        cluster.advance_all(5e-5, "comp:gemm_dw")
        map_collective(grid, roles.z, shards["h"], "reduce_scatter", axis=0, phase="reduce_scatter_dw")
        map_collective(grid, roles.x, shards["h"], "all_reduce", phase="all_reduce_dh")
        map_collective(grid, roles.z, shards["q"], "all_reduce", phase="all_reduce_df")
    cluster.barrier(phase="comm:epoch_sync")


def measure_throughput(min_seconds: float = 0.5, min_epochs: int = 20) -> dict:
    """Run simulated epochs until the measurement window closes; report rate."""
    cluster = VirtualCluster(CONFIG.total, PERLMUTTER)
    grid = PlexusGrid(cluster, CONFIG)
    shards = _make_shards(CONFIG.total)
    simulate_epoch(grid, shards)  # warm-up: caches, allocator
    cluster.reset()
    epochs = 0
    start = time.perf_counter()
    while True:
        simulate_epoch(grid, shards)
        epochs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and epochs >= min_epochs:
            break
    eps = epochs / elapsed
    return {
        "benchmark": "dist_throughput",
        "machine": PERLMUTTER.name,
        "world_size": CONFIG.total,
        "config": CONFIG.name,
        "layers": N_LAYERS,
        "epochs_measured": epochs,
        "seconds": round(elapsed, 4),
        "epochs_per_sec": round(eps, 2),
        "floor_epochs_per_sec": MIN_EPOCHS_PER_SEC,
        "simulated_epoch_seconds": round(cluster.max_clock() / epochs, 6),
    }


def write_report(report: dict, path: Path = _BENCH_PATH) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def test_dist_throughput():
    report = measure_throughput()
    print(f"\nsimulator throughput: {report['epochs_per_sec']:.0f} simulated epochs/sec "
          f"({report['config']}, {report['world_size']} ranks)")
    assert report["epochs_per_sec"] >= MIN_EPOCHS_PER_SEC, (
        f"simulator throughput {report['epochs_per_sec']:.1f} epochs/sec below the "
        f"{MIN_EPOCHS_PER_SEC:.0f} floor"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter measurement window (CI smoke run)")
    args = parser.parse_args(argv)
    window = 0.2 if args.quick else 0.5
    report = measure_throughput(min_seconds=window, min_epochs=5 if args.quick else 20)
    write_report(report)
    print(json.dumps(report, indent=2))
    if report["epochs_per_sec"] < MIN_EPOCHS_PER_SEC:
        print(f"FAIL: below {MIN_EPOCHS_PER_SEC:.0f} epochs/sec floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
