"""Neural-network substrate: activations, losses, optimizers, serial GCN.

Everything is implemented directly on numpy with explicit forward/backward
functions following Eqs. 2.1-2.7 of the paper — no autograd framework is
available offline, and writing the gradients out is exactly what the 3D
parallel algorithm distributes, so the serial code doubles as the reference
the distributed implementation is validated against (Fig. 7).
"""

from repro.nn.functional import relu, relu_grad, log_softmax, softmax
from repro.nn.loss import masked_cross_entropy, masked_cross_entropy_grad, accuracy
from repro.nn.init import glorot_uniform
from repro.nn.optim import Adam
from repro.nn.serial import SerialGCN, GCNLayerParams

__all__ = [
    "relu",
    "relu_grad",
    "log_softmax",
    "softmax",
    "masked_cross_entropy",
    "masked_cross_entropy_grad",
    "accuracy",
    "glorot_uniform",
    "Adam",
    "SerialGCN",
    "GCNLayerParams",
]
