"""The optimizer, operating on dicts of named parameter arrays.

Both the serial reference and every virtual rank of the distributed engine
instantiate :class:`Adam` over their (shard-local) parameters.  Because the
distributed gradients are mathematically exact (Sec. 3's algorithm makes no
approximation), running the same optimizer shard-locally is equivalent to
the serial update — the property Fig. 7 demonstrates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba) with bias correction — the paper's optimizer;
    updates the named parameters in place."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ValueError("betas must be in [0, 1)")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def _check(self, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            if name not in self.params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            if g.shape != self.params[name].shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter shape "
                    f"{self.params[name].shape} for {name!r}"
                )

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self._check(grads)
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            m_hat = m / b1t
            v_hat = v / b2t
            self.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
