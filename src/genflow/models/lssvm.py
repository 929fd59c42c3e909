"""Least-squares SVM with RBF kernel, trained by one dense linear solve.

The squared-slack, equality-constrained margin objective has a dual that
is a single (n+1) x (n+1) linear system; its solution gives one dual
coefficient per training row plus a bias.  The decision value is
sum_j alpha_j y_j K(x, x_j) + bias, squashed to [0,1] by a logistic map
so thresholding behaves like the probabilistic families.  The squash is
strictly monotone, so ROC/AUC are unaffected by it.

Memory: the dual matrix is built in place in one (n+1)^2 buffer and
``np.linalg.solve`` copies it, so a fit on n rows holds about
2*(n+1)^2*8 bytes; scoring m rows against n support rows holds the m x n
kernel and one product of that size, about 2*m*n*8 bytes (``peak_bytes``).
``run_flow`` refuses a job whose estimate exceeds physical memory (CLI
exit 2).
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset, encode_sign_labels
from .base import ModelSpec, TrainedModel, squash, standardize

__all__ = ["LssvmModel", "peak_bytes", "rbf_kernel"]


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row pair, written into ``out``
    (a new array if None).  Two m x n buffers are live at the peak."""
    G = 2.0 * A @ B.T
    out = np.add(np.sum(A * A, axis=1)[:, None], np.sum(B * B, axis=1)[None, :],
                 out=out)
    np.subtract(out, G, out=out)
    del G
    np.maximum(out, 0.0, out=out)
    np.multiply(-gamma, out, out=out)
    return np.exp(out, out=out)


def _dual_system(Xs: np.ndarray, y: np.ndarray, gamma: float, lam: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Dual matrix [[0, y'], [y, Omega + lam I]] and right-hand side [0, 1..1].
    Omega = (y y') * K is built in place inside the matrix; y is +-1, so
    scaling rows then columns by it is exact."""
    n = len(y)
    A = np.empty((n + 1, n + 1))
    A[0, 0] = 0.0
    A[0, 1:] = y
    A[1:, 0] = y
    omega = rbf_kernel(Xs, Xs, gamma, out=A[1:, 1:])
    omega *= y[:, None]
    omega *= y[None, :]
    omega += 0.0  # -0.0 -> +0.0 where K underflowed and y_i y_j = -1
    diag = np.arange(1, n + 1)
    A[diag, diag] += lam
    rhs = np.zeros(n + 1)
    rhs[1:] = 1.0
    return A, rhs


def peak_bytes(n_fit: int, n_score: int) -> int:
    """Bytes held at the peak of a fit on ``n_fit`` rows or of scoring
    ``n_score`` rows against them, whichever is larger."""
    return 16 * max((n_fit + 1) ** 2, n_score * n_fit)


class LssvmModel(TrainedModel):
    PAYLOAD = ("support", "signs", "alpha", "bias", "mu", "sd")  # support is standardized

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "LssvmModel":
        lam = float(spec.param("lambda", 1e-6))
        gamma = float(spec.param("kernel_gamma", 1.0 / train.n_features))
        y = encode_sign_labels(train).astype(float)
        Xs, mu, sd = standardize(train.features)
        sol = np.linalg.solve(*_dual_system(Xs, y, gamma, lam))
        return cls(spec, train.feature_names, train.class_names,
                   Xs, y, sol[1:], sol[0], mu, sd)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self.mu) / self.sd
        K = rbf_kernel(Xs, self.support,
                       float(self.spec.param("kernel_gamma", 1.0 / X.shape[1])))
        return K @ (self.alpha * self.signs) + self.bias

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        return squash(self.decision_values(X))

    def system_residual(self) -> float:
        """Relative residual of the dual linear system at the fitted solution."""
        lam = float(self.spec.param("lambda", 1e-6))
        gamma = float(self.spec.param("kernel_gamma", 1.0 / self.support.shape[1]))
        A, rhs = _dual_system(self.support, self.signs, gamma, lam)
        sol = np.concatenate([[self.bias], self.alpha])
        return float(np.linalg.norm(A @ sol - rhs) / np.linalg.norm(rhs))
