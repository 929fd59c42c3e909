"""Reference softmax code: the NLL/gradient, the multinomial fit loop and the
softmax scorers that ``genflow.models.linear`` and ``genflow.models.neural``
replaced, kept unchanged as a test oracle.

Here every backtracking trial computes the full gradient and every softmax
takes its row maxima with ``Z.max(axis=1)``.  The engine must reproduce
these coefficients, losses, gradients and scores bit for bit.
"""

from __future__ import annotations

import numpy as np

MAX_GD_ITER = 1000
GRAD_TOL = 1e-6


def softmax_nll_grad(B: np.ndarray, X: np.ndarray, y: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray]:
    """Penalized multinomial NLL and gradient.

    ``B`` is C x (d+1) with column 0 the intercepts (unpenalized).
    """
    Z = B[:, 0] + X @ B[:, 1:].T  # N x C
    Zmax = Z.max(axis=1, keepdims=True)
    logZ = Zmax[:, 0] + np.log(np.exp(Z - Zmax).sum(axis=1))
    nll = float(np.sum(logZ - Z[np.arange(len(y)), y]))
    nll += 0.5 * l2 * float(np.sum(B[:, 1:] ** 2))
    P = np.exp(Z - logZ[:, None])
    Y = np.zeros_like(P)
    Y[np.arange(len(y)), y] = 1.0
    D = P - Y
    G = np.empty_like(B)
    G[:, 0] = D.sum(axis=0)
    G[:, 1:] = D.T @ X + l2 * B[:, 1:]
    return nll, G


def fit_multinomial(X: np.ndarray, y: np.ndarray, n_classes: int,
                    l2: float) -> tuple[np.ndarray, bool]:
    """``MultinomialLogregModel.fit``'s loop: (coef, converged)."""
    C = n_classes
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    Xs = (X - mu) / sd
    B = np.zeros((C, X.shape[1] + 1))
    nll, G = softmax_nll_grad(B, Xs, y, l2)
    lr = 1.0 / max(len(y), 1)
    converged = False
    for _ in range(MAX_GD_ITER):
        if np.linalg.norm(G) <= GRAD_TOL:
            converged = True
            break
        t = lr
        for _ in range(40):
            B_new = B - t * G
            nll_new, G_new = softmax_nll_grad(B_new, Xs, y, l2)
            if nll_new <= nll:
                break
            t *= 0.5
        else:
            converged = True
            break
        if nll - nll_new > 0:
            lr = min(t * 2.0, 1.0)
        B, nll, G = B_new, nll_new, G_new
    coef = np.empty_like(B)
    coef[:, 1:] = B[:, 1:] / sd
    coef[:, 0] = B[:, 0] - coef[:, 1:] @ mu
    return coef, converged


def multinomial_scores(coef: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``MultinomialLogregModel.score_matrix``."""
    Z = coef[:, 0] + X @ coef[:, 1:].T
    Z -= Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def nn_loss_grad_multiclass(W1, b1, W2, b2, X, y):
    """``nn_loss_grad``'s softmax branch (more than one output column)."""
    n = len(X)
    H = np.tanh(X @ W1 + b1)
    Z = H @ W2 + b2
    Zs = Z - Z.max(axis=1, keepdims=True)
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


def neural_scores(W1, b1, W2, b2, mu, sd, X: np.ndarray) -> np.ndarray:
    """``NeuralNetModel.score_matrix`` for a softmax output layer."""
    Xs = (X - mu) / sd
    H = np.tanh(Xs @ W1 + b1)
    Z = H @ W2 + b2
    Z -= Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)
