"""Reference linear-model code: the softmax NLL/gradient, the multinomial
and binary logistic fit loops, the neural net's loss/gradient and fit loop,
and the softmax scorers that ``genflow.models.linear`` and
``genflow.models.neural`` replaced, kept unchanged as a test oracle.

Here every backtracking trial computes the full gradient, every softmax
works on row-major N x C scores and takes its row maxima with
``Z.max(axis=1)``, every Newton iteration recomputes its probabilities
and bias-augmented design, and every neural-net epoch computes its
cross-entropy loss next to the gradients.  The engine must reproduce these
coefficients, weights, gradients and scores bit for bit; the losses are
what the finite-difference checks differentiate.
"""

from __future__ import annotations

import numpy as np

MAX_NEWTON_ITER = 100
MAX_GD_ITER = 1000
MAX_NN_EPOCHS = 500
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
    """Penalized binary NLL and gradient; ``w[0]`` is the intercept."""
    z = w[0] + X @ w[1:]
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    nll += 0.5 * l2 * float(w[1:] @ w[1:])
    p = _sigmoid(z)
    g = np.empty_like(w)
    g[0] = np.sum(p - y)
    g[1:] = X.T @ (p - y) + l2 * w[1:]
    return nll, g


def fit_logistic(X: np.ndarray, y: np.ndarray,
                 l2: float) -> tuple[float, np.ndarray, bool]:
    """``LogisticRegressionModel.fit``'s loop: (intercept, weights, converged)."""
    y = y.astype(float)
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
    return w[0], w[1:], converged


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
    for _ in range(MAX_GD_ITER):
        if np.linalg.norm(G) <= GRAD_TOL:
            break
        t = lr
        for _ in range(40):
            B_new = B - t * G
            nll_new, G_new = softmax_nll_grad(B_new, Xs, y, l2)
            if nll_new <= nll:
                break
            t *= 0.5
        else:
            break
        if nll - nll_new > 0:
            lr = min(t * 2.0, 1.0)
        B, nll, G = B_new, nll_new, G_new
    converged = np.linalg.norm(G) <= GRAD_TOL
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


def _nn_backprop(H, dZ, W2, X):
    gW2 = H.T @ dZ
    gb2 = dZ.sum(axis=0)
    dH = (dZ @ W2.T) * (1.0 - H * H)
    gW1 = X.T @ dH
    gb1 = dH.sum(axis=0)
    return gW1, gb1, gW2, gb2


def nn_loss_grad_binary(W1, b1, W2, b2, X, y):
    """The neural net's summed logistic loss and gradients for one sigmoid
    output column and 0/1 targets."""
    H = np.tanh(X @ W1 + b1)
    Z = H @ W2 + b2
    z = Z[:, 0]
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    dZ = (p - y)[:, None]
    return (loss, *_nn_backprop(H, dZ, W2, X))


def nn_loss_grad_multiclass(W1, b1, W2, b2, X, y):
    """The neural net's cross-entropy loss and gradients for a softmax
    output layer (more than one output column) and integer targets."""
    n = len(X)
    H = np.tanh(X @ W1 + b1)
    Z = H @ W2 + b2
    Zs = Z - Z.max(axis=1, keepdims=True)
    logZ = np.log(np.exp(Zs).sum(axis=1))
    loss = float(np.sum(logZ - Zs[np.arange(n), y]))
    P = np.exp(Zs - logZ[:, None])
    dZ = P.copy()
    dZ[np.arange(n), y] -= 1.0
    return (loss, *_nn_backprop(H, dZ, W2, X))


def nn_loss_grad(W1, b1, W2, b2, X, y):
    """The sigmoid branch for one output column, else the softmax branch."""
    branch = nn_loss_grad_binary if W2.shape[1] == 1 else nn_loss_grad_multiclass
    return branch(W1, b1, W2, b2, X, y)


def fit_neural(X: np.ndarray, y: np.ndarray, n_classes: int, lr: float,
               hidden_nodes: int, seed: int):
    """``NeuralNetModel.fit``'s loop: (W1, b1, W2, b2, converged)."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    Xs = (X - mu) / sd
    rng = np.random.default_rng(seed)
    out_dim = 1 if n_classes == 2 else n_classes
    W1 = rng.uniform(-0.5, 0.5, size=(X.shape[1], hidden_nodes))
    b1 = rng.uniform(-0.5, 0.5, size=hidden_nodes)
    W2 = rng.uniform(-0.5, 0.5, size=(hidden_nodes, out_dim))
    b2 = rng.uniform(-0.5, 0.5, size=out_dim)
    n = len(y)
    converged = False
    for _ in range(MAX_NN_EPOCHS):
        loss, gW1, gb1, gW2, gb2 = nn_loss_grad(W1, b1, W2, b2, Xs, y)
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
    return W1, b1, W2, b2, converged


def neural_scores(W1, b1, W2, b2, mu, sd, X: np.ndarray) -> np.ndarray:
    """``NeuralNetModel.score_matrix`` for a softmax output layer."""
    Xs = (X - mu) / sd
    H = np.tanh(Xs @ W1 + b1)
    Z = H @ W2 + b2
    Z -= Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)
