"""Least-squares SVM with RBF kernel, trained by one dense linear solve.

The squared-slack, equality-constrained margin objective has a dual that
is a single (n+1) x (n+1) linear system; its solution gives one dual
coefficient per training row plus a bias.  The decision value is
sum_j alpha_j y_j K(x, x_j) + bias, squashed to [0,1] by a logistic map
so thresholding behaves like the probabilistic families.  The squash is
strictly monotone, so ROC/AUC are unaffected by it.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset, encode_sign_labels
from .base import ModelSpec, TrainedModel

__all__ = ["LssvmModel", "rbf_kernel"]


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row pair."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _dual_system(Xs: np.ndarray, y: np.ndarray, gamma: float, lam: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Dual matrix [[0, y'], [y, Omega + lam I]] and right-hand side [0, 1..1].
    K and Omega are built before the matrix is allocated (lower peak memory)."""
    n = len(y)
    K = rbf_kernel(Xs, Xs, gamma)
    omega = (y[:, None] * y[None, :]) * K
    A = np.zeros((n + 1, n + 1))
    A[0, 1:] = y
    A[1:, 0] = y
    A[1:, 1:] = omega + lam * np.eye(n)
    rhs = np.zeros(n + 1)
    rhs[1:] = 1.0
    return A, rhs


class LssvmModel(TrainedModel):
    PAYLOAD = ("support", "signs", "alpha", "bias", "mu", "sd")

    def __init__(self, spec, feature_names, class_names, support, signs,
                 alpha, bias, mu, sd):
        super().__init__(spec, feature_names, class_names)
        self.support = np.asarray(support, dtype=float)   # standardized rows
        self.signs = np.asarray(signs, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.bias = float(bias)
        self.mu = np.asarray(mu, dtype=float)
        self.sd = np.asarray(sd, dtype=float)

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "LssvmModel":
        lam = float(spec.param("lambda", 1e-6))
        gamma = float(spec.param("kernel_gamma", 1.0 / train.n_features))
        y = encode_sign_labels(train).astype(float)
        mu = train.features.mean(axis=0)
        sd = train.features.std(axis=0)
        sd[sd == 0] = 1.0
        Xs = (train.features - mu) / sd
        sol = np.linalg.solve(*_dual_system(Xs, y, gamma, lam))
        return cls(spec, train.feature_names, train.class_names,
                   Xs, y, sol[1:], sol[0], mu, sd)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self.mu) / self.sd
        K = rbf_kernel(Xs, self.support,
                       float(self.spec.param("kernel_gamma", 1.0 / X.shape[1])))
        return K @ (self.alpha * self.signs) + self.bias

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        f = self.decision_values(X)
        return 1.0 / (1.0 + np.exp(-np.clip(f, -500, 500)))

    def system_residual(self) -> float:
        """Relative residual of the dual linear system at the fitted solution."""
        lam = float(self.spec.param("lambda", 1e-6))
        gamma = float(self.spec.param("kernel_gamma", 1.0 / self.support.shape[1]))
        A, rhs = _dual_system(self.support, self.signs, gamma, lam)
        sol = np.concatenate([[self.bias], self.alpha])
        return float(np.linalg.norm(A @ sol - rhs) / np.linalg.norm(rhs))
