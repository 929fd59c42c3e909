"""Reference LS-SVM builders: the RBF kernel and the square, bordered
(n+1) x (n+1) dual system that ``genflow.models.lssvm`` replaced with a
packed build of the lower triangle, kept as a test oracle.

Here the kernel, the ``y y'`` outer product, Omega and ``lam * eye(n)``
are separate n x n arrays and the dual matrix is allocated after them.
``rbf_kernel`` must reproduce every kernel value bit for bit.  The packed
build computes each block row's kernel by its own GEMM, so its lower
triangle matches ``_dual_system`` within a rounding bound, not bit for
bit.  ``solve_dual`` is the dense LU solve of the bordered system that the
Cholesky fit replaced.

``signed_packed_system`` and ``signed_dual_coefficients`` are the packed
signed fit that the regression form replaced: they factor
H = Omega + lam I, Omega = (y y') * K, through genflow's own
``_factor_in_place`` and ``_solve_in_place`` and give the dual's
(alpha, bias).  The regression form's coef must equal alpha * y, and its
bias and decision values theirs, bit for bit.

``factor_in_place``, ``solve_in_place`` and ``kernel_times`` are the fit
and the scoring that genflow replaced: the factor kept L's diagonal blocks
and returned their inverses from a separate buffer, and scoring went by
``BLOCK``-row chunks.  The fit must keep their bits; decision values may
move in the last bits, since a kernel GEMM's bits depend on its row count.
"""

from __future__ import annotations

import numpy as np

from genflow.models.lssvm import (BLOCK, _factor_in_place, _lower_inverse, _packed_words,
                                  _solve_in_place, rbf_kernel as packed_kernel)


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


def solve_dual(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """[bias, alpha_1..alpha_n]: ``np.linalg.solve`` of the bordered system."""
    return np.linalg.solve(A, rhs)


def signed_packed_system(Xs: np.ndarray, y: np.ndarray, gamma: float, lam: float
                         ) -> list[np.ndarray]:
    """The lower triangle of H = Omega + lam I in genflow's packed block
    rows, each the kernel of its row block scaled by the +-1 signs (exact),
    with signed zeros cleared and lam added on the diagonal."""
    n = len(y)
    flat = np.empty(_packed_words(n))
    rows = []
    for i in range(0, n, BLOCK):
        j = min(i + BLOCK, n)
        start = sum(R.size for R in rows)
        R = flat[start:start + (j - i) * j].reshape(j - i, j)
        packed_kernel(Xs[i:j], Xs[:j], gamma, out=R)
        R *= y[i:j, None]
        R *= y[None, :j]
        R += 0.0  # -0.0 -> +0.0 where K underflowed and y_i y_j = -1
        R.reshape(-1)[i::j + 1] += lam  # entries (r, i + r)
        rows.append(R)
    return rows


def signed_dual_coefficients(rows: list[np.ndarray], y: np.ndarray
                             ) -> tuple[np.ndarray, float]:
    """``(alpha, bias)`` of the bordered dual system [[0, y'], [y, H]] with
    right-hand side [0, 1..1], for H packed in ``rows`` (overwritten by its
    factor).  With eta = H^-1 y and nu = H^-1 1, bias = y'nu / y'eta and
    alpha = nu - bias * eta."""
    _factor_in_place(rows)
    eta, nu = _solve_in_place(rows, np.column_stack([y, np.ones_like(y)])).T
    bias = float(y @ nu / (y @ eta))
    return nu - bias * eta, bias


def factor_in_place(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Overwrite the packed block rows of the SPD matrix H with those of its
    Cholesky factor L and return the inverses of L's diagonal blocks, kept
    in one flat buffer apart from the rows."""
    b0 = rows[0].shape[0]
    scratch = np.empty(b0 * max((R.shape[0] for R in rows[1:]), default=0))
    flat = np.zeros(sum(R.shape[0] ** 2 for R in rows))
    inverses: list[np.ndarray] = []
    for R in rows:
        b, j = R.shape
        for Rm, inv_m in zip(rows, inverses):
            bm, jm = Rm.shape
            im = jm - bm
            T = scratch[:b * bm].reshape(b, bm)
            S = R[:, im:jm]
            if im:
                S -= np.matmul(R[:, :im], Rm[:, :im].T, out=T)
            S[...] = np.matmul(S, inv_m.T, out=T)
        i = j - b
        D = R[:, i:]
        if i:
            D -= np.matmul(R[:, :i], R[:, :i].T, out=scratch[:b * b].reshape(b, b))
        D[...] = np.linalg.cholesky(D)
        start = sum(inv.size for inv in inverses)
        inverses.append(_lower_inverse(D, flat[start:start + b * b].reshape(b, b)))
    return inverses


def solve_in_place(rows: list[np.ndarray], inverses: list[np.ndarray],
                   X: np.ndarray) -> np.ndarray:
    """Overwrite ``X`` with the solution of (L L') Z = X for the factor that
    ``factor_in_place`` left in ``rows`` and the inverses it returned."""
    for R, inv in zip(rows, inverses):
        b, j = R.shape
        i = j - b
        if i:
            X[i:j] -= R[:, :i] @ X[:i]
        X[i:j] = inv @ X[i:j]
    for R, inv in zip(reversed(rows), reversed(inverses)):
        b, j = R.shape
        i = j - b
        X[i:j] = inv.T @ X[i:j]
        if i:
            X[:i] -= R[:, :i].T @ X[i:j]
    return X


def dual_coefficients(rows: list[np.ndarray], inverses: list[np.ndarray], y: np.ndarray
                      ) -> tuple[np.ndarray, float]:
    """genflow's ``(coef, bias)`` for the factor and the inverses that
    ``factor_in_place`` left, through ``solve_in_place``."""
    ones = np.ones_like(y)
    u, v = solve_in_place(rows, inverses, np.column_stack([ones, y])).T
    bias = float(ones @ v / (ones @ u))
    return v - bias * u, bias


def kernel_times(Q: np.ndarray, S: np.ndarray, gamma: float, w: np.ndarray) -> np.ndarray:
    """``rbf_kernel(Q, S, gamma) @ w`` over ``BLOCK``-row chunks of Q."""
    f = np.empty(len(Q))
    slab = np.empty((min(BLOCK, len(Q)), len(S)))
    for i in range(0, len(Q), BLOCK):
        q = Q[i:i + BLOCK]
        np.matmul(packed_kernel(q, S, gamma, out=slab[:len(q)]), w, out=f[i:i + BLOCK])
    return f
