"""Binary logistic regression (Newton/IRLS) and softmax regression
(gradient descent), both with a small fixed L2 ridge.

The softmax engine is class-major: a fit transposes its design once, and
the scores ``ZT`` and residuals are C x N, so each class-wise step (the
intercept add, the column maxima, the shift, ``exp``, the log-partition
sum) runs over length-N rows rather than over length-C rows.  Its bits are
those of row-major N x C code: the product and maxima are bit-equal in
either layout, and :func:`_class_sums` adds the classes in NumPy's own
row-sum order: below 8 classes by an axis-0 reduction over whole rows,
from 8 on by summing the row-major transpose itself.  Two reductions have
layout-dependent bits and so still run on a row-major N x C residual
``D``: ``D.T @ X`` and ``D.sum(axis=0)``.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import DEFAULT_L2, ModelSpec, TrainedModel, logistic_loss, softmax_rows, standardize

__all__ = [
    "LogisticRegressionModel",
    "MultinomialLogregModel",
    "softmax_grad",
    "softmax_nll",
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


def _logistic_terms(w: np.ndarray, X: np.ndarray, y: np.ndarray,
                    l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalized negative log-likelihood, its gradient, and the probabilities
    ``p`` at ``w``, which the Newton step's weights reuse.

    ``w[0]`` is the intercept (unpenalized); ``X`` has no bias column.
    """
    z = w[0] + X @ w[1:]
    nll = logistic_loss(z, y)
    nll += 0.5 * l2 * float(w[1:] @ w[1:])
    p = _sigmoid(z)
    g = np.empty_like(w)
    g[0] = np.sum(p - y)
    g[1:] = X.T @ (p - y) + l2 * w[1:]
    return nll, g, p


def _class_sums(E: np.ndarray) -> np.ndarray:
    """Sum of the C rows of a C x N array, bit-equal to NumPy's row sums of
    the N x C transpose, ``np.ascontiguousarray(E.T).sum(axis=1)``.

    Below 8 terms NumPy sums a row one term at a time from +0.0, which is
    the order of the axis-0 reduction over whole rows; ``+ 0.0`` turns a
    column of -0.0 terms into the +0.0 that order starts from.  From 8
    classes on the transpose is summed as defined.
    """
    if len(E) < 8:
        return E.sum(axis=0) + 0.0
    return np.ascontiguousarray(E.T).sum(axis=1)


def softmax_nll(B: np.ndarray, XT: np.ndarray, label_at: np.ndarray,
                l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalized multinomial NLL, plus the class-major scores ``ZT`` and the
    log-partitions ``logZ`` that :func:`softmax_grad` takes.

    ``B`` is C x (d+1) with column 0 the intercepts (unpenalized); ``XT`` is
    the d x N transposed design and ``label_at`` the flat index of each
    row's label score in ``ZT`` (see :func:`_class_major_labels`).  Scores are
    C x N, so every class-wise step runs over length-N rows; the maxima and
    :func:`_class_sums` give the bits of the row-major N x C code.
    """
    ZT = B[:, 1:] @ XT
    ZT += B[:, :1]
    Zmax = ZT.max(axis=0)
    E = ZT - Zmax
    np.exp(E, out=E)
    logZ = np.log(_class_sums(E))
    logZ += Zmax
    nll = float((logZ - ZT.take(label_at)).sum())
    nll += 0.5 * l2 * float((B[:, 1:] ** 2).sum())
    return nll, ZT, logZ


def softmax_grad(B: np.ndarray, X: np.ndarray, YT: np.ndarray, ZT: np.ndarray,
                 logZ: np.ndarray, l2: float) -> np.ndarray:
    """Gradient of the penalized NLL at ``B``, from that point's ``ZT`` and
    ``logZ``; ``X`` is the N x d design and ``YT`` the C x N one-hot labels.

    The residual ``D`` is formed class-major, then copied row-major N x C:
    the bits of ``D.T @ X`` and ``D.sum(axis=0)`` depend on that layout.
    """
    DT = ZT - logZ
    np.exp(DT, out=DT)
    DT -= YT
    D = DT.T.copy()
    G = np.empty_like(B)
    G[:, 0] = D.sum(axis=0)
    G[:, 1:] = D.T @ X + l2 * B[:, 1:]
    return G


def _class_major_labels(y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat index of each row's label in a C x N array, and the C x N
    one-hot label matrix."""
    label_at = y * len(y) + np.arange(len(y))
    YT = np.zeros((n_classes, len(y)))
    YT.flat[label_at] = 1.0
    return label_at, YT


class LogisticRegressionModel(TrainedModel):
    """logit(p) = intercept + weights . x, fit by damped Newton."""

    PAYLOAD = ("intercept", "weights")

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "LogisticRegressionModel":
        X = train.features
        y = train.labels.astype(float)
        l2 = float(spec.param("l2", DEFAULT_L2))
        n, d = X.shape
        w = np.zeros(d + 1)
        Xb = np.column_stack([np.ones(n), X])
        nll, g, p = _logistic_terms(w, X, y, l2)
        for _ in range(MAX_NEWTON_ITER):
            if np.linalg.norm(g) <= GRAD_TOL:
                break
            r = np.maximum(p * (1 - p), 1e-12)
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
                nll_new, g_new, p_new = _logistic_terms(w_new, X, y, l2)
                if nll_new <= nll:
                    break
                t *= 0.5
            w, nll, g, p = w_new, nll_new, g_new, p_new
        converged = np.linalg.norm(g) <= GRAD_TOL
        return cls(spec, train.feature_names, train.class_names, w[0], w[1:],
                   converged=converged)

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.intercept + X @ self.weights)


class MultinomialLogregModel(TrainedModel):
    """Softmax regression: P(class i | x) proportional to exp(B_i . x)."""

    PAYLOAD = ("coef",)  # C x (d+1), column 0 the intercepts

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "MultinomialLogregModel":
        l2 = float(spec.param("l2", DEFAULT_L2))
        C = train.n_classes
        # Standardize for gradient-descent conditioning, then fold the
        # scaling back into the coefficients so prediction uses raw x.
        Xs, mu, sd = standardize(train.features)
        y = train.labels
        XT = np.ascontiguousarray(Xs.T)
        label_at, YT = _class_major_labels(y, C)
        B = np.zeros((C, train.n_features + 1))
        nll, ZT, logZ = softmax_nll(B, XT, label_at, l2)
        G = softmax_grad(B, Xs, YT, ZT, logZ, l2)
        lr = 1.0 / max(len(y), 1)
        for _ in range(MAX_GD_ITER):
            if np.linalg.norm(G) <= GRAD_TOL:
                break
            # Backtracking on the fixed-direction gradient step; a rejected
            # trial needs only its NLL, the accepted one also its gradient.
            t = lr
            for _ in range(40):
                B_new = B - t * G
                nll_new, ZT, logZ = softmax_nll(B_new, XT, label_at, l2)
                if nll_new <= nll:
                    break
                t *= 0.5
            else:
                break  # no step lowers the NLL: stalled, not converged
            if nll - nll_new > 0:
                lr = min(t * 2.0, 1.0)
            B, nll = B_new, nll_new
            G = softmax_grad(B, Xs, YT, ZT, logZ, l2)
        converged = np.linalg.norm(G) <= GRAD_TOL
        coef = np.empty_like(B)
        coef[:, 1:] = B[:, 1:] / sd
        coef[:, 0] = B[:, 0] - coef[:, 1:] @ mu
        return cls(spec, train.feature_names, train.class_names, coef,
                   converged=converged)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax_rows(self.coef[:, 0] + X @ self.coef[:, 1:].T)
