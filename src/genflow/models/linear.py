"""Binary logistic regression (Newton/IRLS) and softmax regression
(gradient descent), both with a small fixed L2 ridge."""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import DEFAULT_L2, ModelSpec, TrainedModel, row_max

__all__ = [
    "LogisticRegressionModel",
    "MultinomialLogregModel",
    "logistic_nll_grad",
    "softmax_grad",
    "softmax_nll",
    "softmax_nll_grad",
]

MAX_NEWTON_ITER = 100
MAX_GD_ITER = 1000
GRAD_TOL = 1e-6


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_nll_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray,
                      l2: float) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its gradient.

    ``w[0]`` is the intercept (unpenalized); ``X`` has no bias column.
    """
    z = w[0] + X @ w[1:]
    # log(1 + exp(z)) - y*z, computed stably
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    nll += 0.5 * l2 * float(w[1:] @ w[1:])
    p = _sigmoid(z)
    g = np.empty_like(w)
    g[0] = np.sum(p - y)
    g[1:] = X.T @ (p - y) + l2 * w[1:]
    return nll, g


def softmax_nll(B: np.ndarray, X: np.ndarray, rows: np.ndarray, y: np.ndarray,
                l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalized multinomial NLL, plus the scores ``Z`` and row log-partitions
    ``logZ`` that :func:`softmax_grad` takes.

    ``B`` is C x (d+1) with column 0 the intercepts (unpenalized);
    ``rows`` is ``np.arange(len(y))``.
    """
    Z = B[:, 0] + X @ B[:, 1:].T  # N x C
    Zmax = row_max(Z)
    logZ = Zmax + np.log(np.exp(Z - Zmax[:, None]).sum(axis=1))
    nll = float(np.sum(logZ - Z[rows, y]))
    nll += 0.5 * l2 * float(np.sum(B[:, 1:] ** 2))
    return nll, Z, logZ


def softmax_grad(B: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                 logZ: np.ndarray, l2: float) -> np.ndarray:
    """Gradient of the penalized NLL at ``B``, from that point's ``Z`` and
    ``logZ``; ``Y`` is the N x C one-hot label matrix."""
    D = np.exp(Z - logZ[:, None]) - Y
    G = np.empty_like(B)
    G[:, 0] = D.sum(axis=0)
    G[:, 1:] = D.T @ X + l2 * B[:, 1:]
    return G


def _one_hot(y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(len(y))
    Y = np.zeros((len(y), n_classes))
    Y[rows, y] = 1.0
    return rows, Y


def softmax_nll_grad(B: np.ndarray, X: np.ndarray, y: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray]:
    """Penalized multinomial NLL and its gradient at ``B``."""
    rows, Y = _one_hot(y, len(B))
    nll, Z, logZ = softmax_nll(B, X, rows, y, l2)
    return nll, softmax_grad(B, X, Y, Z, logZ, l2)


class LogisticRegressionModel(TrainedModel):
    """logit(p) = intercept + weights . x, fit by damped Newton."""

    PAYLOAD = ("intercept", "weights")

    def __init__(self, spec, feature_names, class_names, intercept, weights,
                 converged=True):
        super().__init__(spec, feature_names, class_names)
        self.intercept = float(intercept)
        self.weights = np.asarray(weights, dtype=float)
        self.converged = converged

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "LogisticRegressionModel":
        X = train.features
        y = train.labels.astype(float)
        l2 = float(spec.param("l2", DEFAULT_L2))
        n, d = X.shape
        w = np.zeros(d + 1)
        converged = False
        nll, g = logistic_nll_grad(w, X, y, l2)
        for _ in range(MAX_NEWTON_ITER):
            if np.linalg.norm(g) <= GRAD_TOL:
                converged = True
                break
            z = w[0] + X @ w[1:]
            p = _sigmoid(z)
            r = np.maximum(p * (1 - p), 1e-12)
            Xb = np.column_stack([np.ones(n), X])
            H = (Xb * r[:, None]).T @ Xb
            H[1:, 1:] += l2 * np.eye(d)
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                step = g
            # Halve until the penalized NLL stops increasing.
            t = 1.0
            for _ in range(30):
                w_new = w - t * step
                nll_new, g_new = logistic_nll_grad(w_new, X, y, l2)
                if nll_new <= nll:
                    break
                t *= 0.5
            w, nll, g = w_new, nll_new, g_new
        else:
            converged = np.linalg.norm(g) <= GRAD_TOL
        return cls(spec, train.feature_names, train.class_names, w[0], w[1:],
                   converged)

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.intercept + X @ self.weights)


class MultinomialLogregModel(TrainedModel):
    """Softmax regression: P(class i | x) proportional to exp(B_i . x)."""

    PAYLOAD = ("coef",)

    def __init__(self, spec, feature_names, class_names, coef, converged=True):
        super().__init__(spec, feature_names, class_names)
        self.coef = np.asarray(coef, dtype=float)  # C x (d+1), col 0 = intercepts
        self.converged = converged

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "MultinomialLogregModel":
        l2 = float(spec.param("l2", DEFAULT_L2))
        C = train.n_classes
        # Standardize for gradient-descent conditioning, then fold the
        # scaling back into the coefficients so prediction uses raw x.
        mu = train.features.mean(axis=0)
        sd = train.features.std(axis=0)
        sd[sd == 0] = 1.0
        Xs = (train.features - mu) / sd
        y = train.labels
        B = np.zeros((C, train.n_features + 1))
        rows, Y = _one_hot(y, C)
        nll, Z, logZ = softmax_nll(B, Xs, rows, y, l2)
        G = softmax_grad(B, Xs, Y, Z, logZ, l2)
        lr = 1.0 / max(len(y), 1)
        converged = False
        for _ in range(MAX_GD_ITER):
            if np.linalg.norm(G) <= GRAD_TOL:
                converged = True
                break
            # Backtracking on the fixed-direction gradient step; a rejected
            # trial needs only its NLL, the accepted one also its gradient.
            t = lr
            for _ in range(40):
                B_new = B - t * G
                nll_new, Z, logZ = softmax_nll(B_new, Xs, rows, y, l2)
                if nll_new <= nll:
                    break
                t *= 0.5
            else:
                converged = True
                break
            if nll - nll_new > 0:
                lr = min(t * 2.0, 1.0)
            B, nll = B_new, nll_new
            G = softmax_grad(B, Xs, Y, Z, logZ, l2)
        coef = np.empty_like(B)
        coef[:, 1:] = B[:, 1:] / sd
        coef[:, 0] = B[:, 0] - coef[:, 1:] @ mu
        return cls(spec, train.feature_names, train.class_names, coef, converged)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        Z = self.coef[:, 0] + X @ self.coef[:, 1:].T
        Z -= row_max(Z)[:, None]
        E = np.exp(Z)
        return E / E.sum(axis=1, keepdims=True)
