"""Elementwise activations and their gradients (Eq. 2.3 / 2.4).

Past :data:`repro.sparse.ops._PASS_MIN` bytes the ReLU and its mask run in
shard-row ranges on the process's pool (:func:`repro.sparse.ops.run_rows`),
the same ufunc on every element: the parts call numpy, never these
functions, which a benchmark's probes wrap.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.sparse import ops as _ops

__all__ = ["relu", "relu_grad", "softmax", "log_softmax"]


def relu(x: np.ndarray) -> np.ndarray:
    """The paper's non-linear activation sigma (Eq. 2.3)."""
    if x.nbytes < _ops._PASS_MIN or _ops._part.active or _ops._share < 2:
        return np.maximum(x, 0.0)
    out = np.empty_like(x, dtype=np.result_type(x, 0.0))
    _ops.run_rows(partial(_ops._ufunc_rows, np.maximum, x, 0.0, out), x.shape)
    return out


def relu_grad(q: np.ndarray) -> np.ndarray:
    """sigma'(Q) for the elementwise product of Eq. 2.4.

    Q and its output relu(Q) give the same mask, bitwise: the ReLU keeps
    every positive entry and makes no other one positive (NaN stays NaN),
    so a layer caches only its output.
    """
    if q.nbytes < _ops._PASS_MIN or _ops._part.active or _ops._share < 2:
        return (q > 0.0).astype(q.dtype)
    out = np.empty_like(q)
    _ops.run_rows(partial(_ops._ufunc_rows, np.greater, q, 0.0, out), q.shape)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
