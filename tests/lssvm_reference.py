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
"""

from __future__ import annotations

import numpy as np


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
