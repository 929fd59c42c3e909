"""One-hidden-layer neural network trained by full-batch gradient descent.

Hidden activation is tanh; the output is a sigmoid unit for binary
tasks and a softmax layer for multi-class tasks.  Loss is cross-entropy.
Weights and biases initialize uniform in [-0.5, 0.5] from the spec seed.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import ModelSpec, TrainedModel, row_max

__all__ = ["NeuralNetModel", "nn_loss_grad"]

MAX_EPOCHS = 500
GRAD_TOL = 1e-6
INIT_HALF_WIDTH = 0.5


def nn_loss_grad(W1, b1, W2, b2, X, y, n_classes):
    """Cross-entropy loss and backprop gradients for the 1-hidden-layer net.

    Binary (n_classes == 2): W2 has one output column and the target is
    y in {0,1} through a sigmoid.  Multi-class: softmax over n_classes
    columns with integer targets.
    """
    n = len(X)
    H = np.tanh(X @ W1 + b1)
    Z = H @ W2 + b2
    if n_classes == 2 and W2.shape[1] == 1:
        z = Z[:, 0]
        loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        dZ = (p - y)[:, None]
    else:
        Zs = Z - row_max(Z)[:, None]
        logZ = np.log(np.exp(Zs).sum(axis=1))
        loss = float(np.sum(logZ - Zs[np.arange(n), y]))
        P = np.exp(Zs - logZ[:, None])
        dZ = P.copy()
        dZ[np.arange(n), y] -= 1.0
    gW2 = H.T @ dZ
    gb2 = dZ.sum(axis=0)
    dH = (dZ @ W2.T) * (1.0 - H * H)
    gW1 = X.T @ dH
    gb1 = dH.sum(axis=0)
    return loss, gW1, gb1, gW2, gb2


class NeuralNetModel(TrainedModel):
    PAYLOAD = ("W1", "b1", "W2", "b2", "mu", "sd")

    def __init__(self, spec, feature_names, class_names, W1, b1, W2, b2,
                 mu, sd, converged=True):
        super().__init__(spec, feature_names, class_names)
        self.W1, self.b1 = np.asarray(W1, float), np.asarray(b1, float)
        self.W2, self.b2 = np.asarray(W2, float), np.asarray(b2, float)
        self.mu, self.sd = np.asarray(mu, float), np.asarray(sd, float)
        self.converged = converged

    @property
    def is_binary(self):
        return self.W2.shape[1] == 1

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "NeuralNetModel":
        lr = float(spec.param("learning_rate", 0.04))
        hidden = int(spec.param("hidden_nodes", 100))
        C = train.n_classes
        out_dim = 1 if C == 2 else C
        mu = train.features.mean(axis=0)
        sd = train.features.std(axis=0)
        sd[sd == 0] = 1.0
        X = (train.features - mu) / sd
        y = train.labels
        rng = np.random.default_rng(spec.seed)
        d = train.n_features
        W1 = rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, size=(d, hidden))
        b1 = rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, size=hidden)
        W2 = rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, size=(hidden, out_dim))
        b2 = rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, size=out_dim)
        n = len(y)
        converged = False
        for _ in range(MAX_EPOCHS):
            loss, gW1, gb1, gW2, gb2 = nn_loss_grad(W1, b1, W2, b2, X, y, C)
            gnorm = np.sqrt(
                np.sum(gW1**2) + np.sum(gb1**2) + np.sum(gW2**2) + np.sum(gb2**2)
            )
            if gnorm <= GRAD_TOL:
                converged = True
                break
            W1 = W1 - lr / n * gW1
            b1 = b1 - lr / n * gb1
            W2 = W2 - lr / n * gW2
            b2 = b2 - lr / n * gb2
        return cls(spec, train.feature_names, train.class_names,
                   W1, b1, W2, b2, mu, sd, converged)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self.mu) / self.sd
        H = np.tanh(Xs @ self.W1 + self.b1)
        Z = H @ self.W2 + self.b2
        if self.W2.shape[1] == 1:
            p = 1.0 / (1.0 + np.exp(-np.clip(Z[:, 0], -500, 500)))
            return np.column_stack([1.0 - p, p])
        Z -= row_max(Z)[:, None]
        E = np.exp(Z)
        return E / E.sum(axis=1, keepdims=True)
