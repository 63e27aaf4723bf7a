"""Node permutation schemes for load balancing (Sec. 5.1).

The uneven distribution of nonzeros across 2D shards makes naive sharding
badly imbalanced (Table 3: max/mean = 7.70 on europe_osm).  A single random
node permutation ``P`` (applied to rows and columns, Eqs. 5.1-5.2) fixes
most of it but leaves community structure concentrated near diagonal blocks
(3.24).  Plexus's double permutation applies *distinct* row/column
permutations, alternating every layer (Eqs. 5.3-5.4):

* even layers use ``A_even = P_r A P_c^T`` (input rows P_c-permuted, output
  rows P_r-permuted);
* odd layers use ``A_odd = P_c A P_r^T``;
* the input features are pre-permuted by ``P_c``; labels/masks are aligned
  to the *final layer's* output permutation.

Because permutation is a pure relabeling, training remains exact — the
equivalence tests un-permute distributed outputs and compare to the serial
reference.  Cost: two stored adjacency versions, i.e. ``min(6, L)`` unique
shards instead of ``min(3, L)`` (Sec. 5.1's memory trade-off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from repro.utils.rng import rng_from_seed

__all__ = ["PermutationScheme", "build_scheme", "permute_graph"]

Kind = Literal["none", "single", "double"]


@dataclass(frozen=True)
class PermutationScheme:
    """Resolved permutations for a training run.

    ``row_perm``/``col_perm`` map *new* index -> *old* node id, i.e.
    ``A_permuted = A[row_perm][:, col_perm]``.  For ``kind="none"`` both are
    identity; for ``"single"`` they are equal.
    """

    kind: Kind
    row_perm: np.ndarray
    col_perm: np.ndarray

    def __post_init__(self) -> None:
        n = self.row_perm.shape[0]
        if self.col_perm.shape != (n,):
            raise ValueError("row/col permutations must have equal length")
        # permutation validity (cheap O(n) check)
        for name, p in (("row", self.row_perm), ("col", self.col_perm)):
            seen = np.zeros(n, dtype=bool)
            seen[p] = True
            if not seen.all():
                raise ValueError(f"{name}_perm is not a permutation")

    @property
    def n(self) -> int:
        return self.row_perm.shape[0]

    @property
    def n_adjacency_versions(self) -> int:
        """Stored adjacency matrix versions (Sec. 5.1: 2 for double)."""
        return 2 if self.kind == "double" else 1

    def layer_row_perm(self, layer_idx: int) -> np.ndarray:
        """Row permutation of layer ``layer_idx``'s *output* (and of the
        adjacency matrix used at that layer)."""
        if self.kind != "double":
            return self.row_perm
        return self.row_perm if layer_idx % 2 == 0 else self.col_perm

    def layer_col_perm(self, layer_idx: int) -> np.ndarray:
        """Column permutation of the adjacency at ``layer_idx`` = row
        permutation of that layer's *input*."""
        if self.kind != "double":
            return self.col_perm
        return self.col_perm if layer_idx % 2 == 0 else self.row_perm

    def input_perm(self) -> np.ndarray:
        """Permutation applied to input-feature rows (P_c, Eq. 5.3)."""
        return self.layer_col_perm(0)

    def output_perm(self, n_layers: int) -> np.ndarray:
        """Permutation of the final layer's output rows — labels, masks and
        any read-out must be aligned with this."""
        if n_layers <= 0:
            raise ValueError("need at least one layer")
        return self.layer_row_perm(n_layers - 1)

    def permuted_adjacency(self, a: sp.csr_matrix, layer_idx: int) -> sp.csr_matrix:
        """The permuted global adjacency used by ``layer_idx``.

        Returned in canonical CSR form: column permutation leaves scipy's
        within-row index order scrambled, and downstream shard cutting
        (per-rank and block-diagonal alike) must see one well-defined
        accumulation order for the stacked product and the per-rank
        reference (``tests/oracle.py``) to agree bitwise.
        """
        rp = self.layer_row_perm(layer_idx)
        cp = self.layer_col_perm(layer_idx)
        out = a[rp][:, cp].tocsr()
        out.sort_indices()
        return out


def build_scheme(n: int, kind: Kind = "double", seed: int | np.random.Generator = 0) -> PermutationScheme:
    """Draw the permutation scheme for an ``n``-node graph."""
    identity = np.arange(n)
    if kind == "none":
        return PermutationScheme("none", identity, identity.copy())
    rng = rng_from_seed(seed)
    p = rng.permutation(n)
    if kind == "single":
        return PermutationScheme("single", p, p.copy())
    if kind == "double":
        q = rng.permutation(n)
        return PermutationScheme("double", p, q)
    raise ValueError(f"unknown permutation kind {kind!r}")


def permute_graph(
    a: sp.csr_matrix,
    features: np.ndarray,
    labels: np.ndarray,
    scheme: PermutationScheme,
    n_layers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: features permuted for input, labels for the output.

    (The adjacency is permuted per layer via
    :meth:`PermutationScheme.permuted_adjacency`, since even/odd layers use
    different versions under the double scheme.)
    """
    if a.shape[0] != scheme.n:
        raise ValueError("scheme size does not match graph")
    return features[scheme.input_perm()], labels[scheme.output_perm(n_layers)]
