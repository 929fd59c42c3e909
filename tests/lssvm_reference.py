"""Reference LS-SVM builders: the RBF kernel and dual system that
``genflow.models.lssvm`` replaced with an in-place build, kept unchanged
as a test oracle.

Here the kernel, the ``y y'`` outer product, Omega and ``lam * eye(n)``
are separate n x n arrays and the dual matrix is allocated after them.
The in-place build must reproduce the matrix, its solution and every
kernel value bit for bit.  ``solve_dual`` is the dense LU solve of the
bordered system that the blocked Cholesky fit replaced.
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
