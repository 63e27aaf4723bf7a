"""Elementwise activations and their gradients (Eq. 2.3 / 2.4)."""

from __future__ import annotations

import numpy as np

__all__ = ["relu", "relu_grad", "softmax", "log_softmax"]


def relu(x: np.ndarray) -> np.ndarray:
    """The paper's non-linear activation sigma (Eq. 2.3)."""
    return np.maximum(x, 0.0)


def relu_grad(q: np.ndarray) -> np.ndarray:
    """sigma'(Q) for the elementwise product of Eq. 2.4.

    Q and its output relu(Q) give the same mask, bitwise: the ReLU keeps
    every positive entry and makes no other one positive (NaN stays NaN),
    so a layer caches only its output.
    """
    return (q > 0.0).astype(q.dtype)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
