"""Load-balancing study: why Plexus uses a double permutation (Sec. 5.1).

Reproduces the Table 3 experiment on the synthetic europe_osm road network,
then shows the end-to-end effect: an executable training run where the
straggler wait caused by imbalanced shards is visible in the epoch
breakdown, and disappears under the double permutation.

Run:  python examples/load_balancing_study.py
"""

from repro import GridConfig, PlexusGCN, PlexusOptions, PlexusTrainer, VirtualCluster, load_dataset
from repro.core import build_scheme
from repro.dist import PERLMUTTER
from repro.sparse import nnz_balance_stats
from repro.utils import ascii_table


def main() -> None:
    ds = load_dataset("europe_osm", n_nodes=16384, seed=0)
    a = ds.norm_adjacency

    # -- Table 3: max/mean nonzeros over an 8x8 shard grid ------------------
    rows = []
    rows.append(["Original", f"{nnz_balance_stats(a, 8, 8).max_over_mean:.3f}"])
    single = build_scheme(a.shape[0], "single", seed=0)
    rows.append(["Single permutation", f"{nnz_balance_stats(single.permuted_adjacency(a, 0), 8, 8).max_over_mean:.3f}"])
    double = build_scheme(a.shape[0], "double", seed=0)
    worst = max(
        nnz_balance_stats(double.permuted_adjacency(a, parity), 8, 8).max_over_mean for parity in (0, 1)
    )
    rows.append(["Double permutation", f"{worst:.3f}"])
    print("Table 3 on the synthetic europe_osm (paper: 7.70 / 3.24 / 1.001):")
    print(ascii_table(["Method", "Max/Mean"], rows))

    # -- end-to-end: per-rank computation imbalance under each scheme --------
    # (the quantity whose max/mean drives straggler wait at scale)
    print("\nexecutable run, 8 ranks, grid X2Y2Z2 — per-rank SpMM+GEMM time:")
    dims = [ds.n_features, 32, 32, ds.n_classes]
    rows = []
    for perm in ("none", "single", "double"):
        cluster = VirtualCluster(8, PERLMUTTER)
        model = PlexusGCN(
            cluster, GridConfig(2, 2, 2), ds.norm_adjacency, ds.features, ds.labels,
            ds.train_mask, dims, PlexusOptions(permutation=perm, seed=0),
        )
        # read before training: a frozen layer 0 drops its plan after one forward
        shard_nnz = [layer_shard.nnz for layer_shard in model.layers[0].a_shards]
        result = PlexusTrainer(model).train(5)
        comp_per_rank = [r.timeline.total("comp:") for r in cluster]
        imb = max(comp_per_rank) / (sum(comp_per_rank) / len(comp_per_rank))
        nnz_imb = max(shard_nnz) / (sum(shard_nnz) / len(shard_nnz))
        rows.append([perm, f"{nnz_imb:6.3f}", f"{imb:6.3f}", f"{result.losses[-1]:.6f}"])
    print(ascii_table(["permutation", "shard-nnz max/mean", "comp-time max/mean", "final loss"], rows))
    print("\nnote: losses are identical across schemes — permutation is a pure relabeling.")


if __name__ == "__main__":
    main()
