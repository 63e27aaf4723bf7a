"""Serial full-graph GCN reference (the PyTorch-Geometric stand-in).

Implements Eqs. 2.1-2.7 exactly: per layer ``H = SpMM(A, F)`` (aggregation),
``Q = H @ W`` (combination), ``F' = relu(Q)`` (activation; identity on the
final layer, whose logits feed the masked cross-entropy).  The backward pass
follows the four gradient equations of Sec. 2.1, including the input-feature
gradient ``dL/dF0 = SpMM(A^T, dL/dH0)`` used when node embeddings are
trainable.

This model is the correctness oracle: Fig. 7 validates the 3D-parallel
implementation by comparing training-loss curves against it, and our tests
require per-step agreement to float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.nn.functional import relu, relu_grad
from repro.nn.init import glorot_uniform
from repro.nn.loss import accuracy, masked_cross_entropy, masked_cross_entropy_grad
from repro.nn.optim import Adam
from repro.sparse.ops import spmm

__all__ = ["GCNLayerParams", "SerialGCN"]


@dataclass
class GCNLayerParams:
    """One layer's weight matrix W (Eq. 2.2)."""

    weight: np.ndarray


class SerialGCN:
    """Multi-layer full-graph GCN with explicit forward/backward.

    Parameters
    ----------
    layer_dims:
        ``[D0, D1, ..., DK]`` — the paper uses three layers with hidden
        dimension 128 (Sec. 6.2), e.g. ``[features, 128, 128, classes]``.
    seed:
        Weight-init seed.  The distributed model derives per-layer seeds the
        same way so its shards slice the identical matrices.
    trainable_features:
        When True the input features receive gradients (Sec. 2.1's node
        embeddings) and are updated by the optimizer.
    """

    def __init__(self, layer_dims: list[int], seed: int = 0, trainable_features: bool = False, dtype=np.float64) -> None:
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        self.layer_dims = list(layer_dims)
        self.dtype = dtype
        self.trainable_features = trainable_features
        self.layers = [
            GCNLayerParams(glorot_uniform(d_in, d_out, seed=seed + i, dtype=dtype))
            for i, (d_in, d_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:]))
        ]
        self._cache: dict[str, list[np.ndarray]] = {}

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def parameters(self, features: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Named parameters, optionally including trainable input features."""
        params = {f"W{i}": layer.weight for i, layer in enumerate(self.layers)}
        if self.trainable_features:
            if features is None:
                raise ValueError("trainable_features requires the feature matrix")
            params["F0"] = features
        return params

    # -- forward / backward ---------------------------------------------------
    def forward(self, a_norm: sp.csr_matrix, features: np.ndarray) -> np.ndarray:
        """Run Eqs. 2.1-2.3 over all layers; returns final-layer logits."""
        if features.shape[1] != self.layer_dims[0]:
            raise ValueError(
                f"feature dim {features.shape[1]} != layer input {self.layer_dims[0]}"
            )
        f = features
        inputs, aggs, preacts = [], [], []
        for i, layer in enumerate(self.layers):
            inputs.append(f)
            h = spmm(a_norm, f)               # Eq. 2.1 aggregation
            q = h @ layer.weight              # Eq. 2.2 combination
            aggs.append(h)
            preacts.append(q)
            f = relu(q) if i < self.n_layers - 1 else q  # Eq. 2.3
        self._cache = {"inputs": inputs, "aggs": aggs, "preacts": preacts}
        return f

    def backward(self, a_norm: sp.csr_matrix, d_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Run Eqs. 2.4-2.7 from the logits gradient; returns named grads."""
        if not self._cache:
            raise RuntimeError("backward() called before forward()")
        inputs = self._cache["inputs"]
        aggs = self._cache["aggs"]
        preacts = self._cache["preacts"]
        grads: dict[str, np.ndarray] = {}
        a_t = a_norm.T.tocsr()
        dq = d_logits
        for i in range(self.n_layers - 1, -1, -1):
            grads[f"W{i}"] = aggs[i].T @ dq                     # Eq. 2.5
            dh = dq @ self.layers[i].weight.T                   # Eq. 2.6
            df = spmm(a_t, dh)                                  # Eq. 2.7
            if i > 0:
                dq = df * relu_grad(preacts[i - 1])             # Eq. 2.4
        if self.trainable_features:
            grads["F0"] = df
        return grads

    # -- training -------------------------------------------------------------
    def loss(self, logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
        return masked_cross_entropy(logits, labels, mask)

    def train_step(
        self,
        a_norm: sp.csr_matrix,
        features: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray,
        optimizer: Adam,
    ) -> float:
        """One full-graph epoch: forward, loss, backward, optimizer step."""
        logits = self.forward(a_norm, features)
        loss = self.loss(logits, labels, mask)
        d_logits = masked_cross_entropy_grad(logits, labels, mask)
        grads = self.backward(a_norm, d_logits)
        optimizer.step(grads)
        return loss

    def fit(
        self,
        a_norm: sp.csr_matrix,
        features: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray,
        epochs: int,
        lr: float = 1e-2,
    ) -> list[float]:
        """Train for ``epochs`` full-graph iterations with Adam; returns losses."""
        features = features.copy()
        optimizer = Adam(self.parameters(features), lr=lr)
        return [self.train_step(a_norm, features, labels, mask, optimizer) for _ in range(epochs)]

    def evaluate(self, a_norm: sp.csr_matrix, features: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
        """Accuracy of the current parameters on ``mask``."""
        return accuracy(self.forward(a_norm, features), labels, mask)
