"""Parallel data loading via offline 2D shard files (Sec. 5.4).

Many GNN frameworks load the entire dataset into CPU memory on every rank
before slicing out the local shard — 146 GB/rank for ogbn-papers100M.  Plexus
instead pre-shards the processed data into a 2D grid of files (e.g. 16x16);
each rank then reads, merges, and trims only the file blocks overlapping its
own shard.  This module implements that format:

* :func:`save_sharded` — offline preprocessing: adjacency blocks as ``.npz``
  (scipy CSR), feature/label row blocks as ``.npy``, plus a JSON manifest.
* :class:`ShardedDataLoader` — per-rank loader that reads only the needed
  blocks and reports bytes read and wall time, so the Sec. 5.4 comparison
  (full load vs sharded load) can be measured.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.sparse.partition import block_slices

__all__ = ["save_sharded", "ShardedDataLoader", "LoadReport"]

_MANIFEST = "manifest.json"


def _block_path(root: Path, i: int, j: int) -> Path:
    return root / f"adj_{i:04d}_{j:04d}.npz"


def _feat_path(root: Path, i: int) -> Path:
    return root / f"feat_{i:04d}.npy"


def _label_path(root: Path, i: int) -> Path:
    return root / f"label_{i:04d}.npy"


def save_sharded(
    adjacency: sp.csr_matrix,
    features: np.ndarray,
    labels: np.ndarray,
    out_dir: str | Path,
    grid: tuple[int, int] = (8, 8),
) -> Path:
    """Write the 2D-sharded on-disk layout; returns the manifest path.

    ``grid`` is the file-block grid (the paper uses 8x8 to 16x16); it is
    independent of the training-time GPU grid — ranks merge whichever file
    blocks overlap their shard.
    """
    n = adjacency.shape[0]
    if adjacency.shape[1] != n:
        raise ValueError("adjacency must be square")
    if features.shape[0] != n or labels.shape[0] != n:
        raise ValueError("features/labels must have one row per node")
    p, q = grid
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    row_sl = block_slices(n, p)
    col_sl = block_slices(n, q)
    for i, rs in enumerate(row_sl):
        block_row = adjacency[rs, :].tocsc()
        for j, cs in enumerate(col_sl):
            sp.save_npz(_block_path(root, i, j), block_row[:, cs].tocsr())
        np.save(_feat_path(root, i), features[rs])
        np.save(_label_path(root, i), labels[rs])
    manifest = {
        "n_nodes": n,
        "n_features": int(features.shape[1]),
        "grid": [p, q],
        "row_bounds": [s.stop for s in row_sl],
        "col_bounds": [s.stop for s in col_sl],
        "feature_dtype": str(features.dtype),
    }
    path = root / _MANIFEST
    path.write_text(json.dumps(manifest, indent=2))
    return path


@dataclass
class LoadReport:
    """Cost accounting for one loader call (the Sec. 5.4 comparison)."""

    bytes_read: int = 0
    files_read: int = 0
    seconds: float = 0.0


@dataclass
class ShardedDataLoader:
    """Reads only the file blocks overlapping a rank's shard.

    The cumulative :attr:`report` is the proxy for per-rank CPU memory:
    a rank that merges k file blocks held at most those blocks' bytes in
    memory, versus the whole dataset for the naive loader.
    """

    root: Path
    manifest: dict = field(init=False)
    report: LoadReport = field(default_factory=LoadReport)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        manifest_path = self.root / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(f"no manifest at {manifest_path}")
        self.manifest = json.loads(manifest_path.read_text())

    # -- manifest accessors -------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.manifest["n_nodes"])

    def _bounds(self, axis: str) -> list[int]:
        return [int(b) for b in self.manifest[f"{axis}_bounds"]]

    @staticmethod
    def _overlapping(bounds: list[int], lo: int, hi: int) -> list[tuple[int, int, int]]:
        """(block index, block start, block stop) for blocks meeting [lo, hi)."""
        out = []
        start = 0
        for idx, stop in enumerate(bounds):
            if start < hi and stop > lo:
                out.append((idx, start, stop))
            start = stop
        return out

    def _read(self, path: Path, load):
        t0 = time.perf_counter()
        out = load(path)
        self.report.bytes_read += path.stat().st_size
        self.report.files_read += 1
        self.report.seconds += time.perf_counter() - t0
        return out

    def _row_blocks(self, rows: slice | np.ndarray) -> list[tuple[int, np.ndarray]]:
        """``(file row block, block-local row indices)`` for every block
        ``rows`` — a slice or ascending node ids — meets, in row order.  An
        empty selection yields block 0 with no rows, so results keep their
        type and width."""
        ids = np.arange(self.n_nodes)[rows] if isinstance(rows, slice) else np.asarray(rows)
        starts = [0, *self._bounds("row")]
        cuts = np.searchsorted(ids, starts)
        hits = [
            (i, ids[cuts[i] : cuts[i + 1]] - starts[i])
            for i in range(len(starts) - 1)
            if cuts[i] < cuts[i + 1]
        ]
        return hits or [(0, ids)]

    # -- loading ------------------------------------------------------------
    def load_adjacency(self, rows: slice | np.ndarray, cols: slice) -> sp.csr_matrix:
        """Merge + trim the adjacency blocks overlapping ``rows x cols``;
        ``rows`` is a slice or ascending node ids, and each file block is
        read once."""
        lo_c, hi_c = cols.start or 0, cols.stop
        col_blocks = self._overlapping(self._bounds("col"), lo_c, hi_c)
        bands = []
        for i, local in self._row_blocks(rows):
            parts = [
                self._read(_block_path(self.root, i, j), sp.load_npz)[local][
                    :, max(lo_c - c_start, 0) : min(hi_c, c_stop) - c_start
                ]
                for j, c_start, c_stop in col_blocks
            ]
            bands.append(sp.hstack(parts, format="csr"))
        return sp.vstack(bands, format="csr")

    def _load_rows(self, rows: slice | np.ndarray, path_fn) -> np.ndarray:
        return np.concatenate(
            [self._read(path_fn(self.root, i), np.load)[local] for i, local in self._row_blocks(rows)],
            axis=0,
        )

    def load_features(self, rows: slice | np.ndarray) -> np.ndarray:
        """Feature rows for ``rows`` — a slice or ascending node ids —
        merging overlapping row blocks."""
        return self._load_rows(rows, _feat_path)

    def load_labels(self, rows: slice | np.ndarray) -> np.ndarray:
        """Label entries for ``rows`` (a slice or ascending node ids)."""
        return self._load_rows(rows, _label_path)

    def load_full(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Naive whole-dataset load (the baseline Sec. 5.4 improves on)."""
        n = self.n_nodes
        adj = self.load_adjacency(slice(0, n), slice(0, n))
        feats = self.load_features(slice(0, n))
        labels = self.load_labels(slice(0, n))
        return adj, feats, labels
