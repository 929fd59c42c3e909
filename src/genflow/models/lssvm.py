"""Least-squares SVM with RBF kernel, trained by one dense Cholesky solve.

The squared-slack, equality-constrained margin objective has a dual that
is a single (n+1) x (n+1) linear system; its solution gives one dual
coefficient per training row plus a bias.  The system's n x n block
H = Omega + lam I is symmetric positive definite, so the fit factors it in
place by a blocked Cholesky and gets the bias from two triangular solves
(Suykens et al., *Least Squares Support Vector Machines*, 2002).  The
decision value is sum_j alpha_j y_j K(x, x_j) + bias, squashed to [0,1] by
a logistic map so thresholding behaves like the probabilistic families.
The squash is strictly monotone, so ROC/AUC are unaffected by it.

Memory: the kernel is computed inside its destination, so the dual matrix
is built in one (n+1)^2 buffer and a fit on n rows holds about
(n+1)^2*8 bytes; the factor then overwrites that buffer.  Scoring m rows
against n support rows holds the m x n kernel, about m*n*8 bytes.  Each
kernel adds a scratch of ROW_BLOCK x n (``peak_bytes``).  ``run_flow``
refuses a job whose estimate exceeds physical memory (CLI exit 2).
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset, encode_sign_labels
from .base import ModelSpec, TrainedModel, squash, standardize

__all__ = ["LssvmModel", "peak_bytes", "rbf_kernel"]


# Rows per block of the kernel's elementwise steps: a block stays in cache
# through all five, and its scratch is the kernel's only temporary.
ROW_BLOCK = 32


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row pair, written into ``out``
    (a new array if None).

    The product 2 A B' is written straight into ``out`` by one GEMM (a
    strided view such as the dual system's ``[1:, 1:]`` block included),
    and the squared distances and ``exp`` replace it by blocks of
    ``ROW_BLOCK`` rows.  One m x n buffer and one ROW_BLOCK x n scratch are
    live at the peak.  The GEMM is not split: products over narrower
    column or row blocks differ from it in the last bits."""
    out = np.matmul(2.0 * A, B.T, out=out)
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    # Full ROW_BLOCK rows even when m is smaller: scratches sized to m
    # fragmented the heap (+0.2 MB peak RSS over 40 WBC-sized runs).
    scratch = np.empty((ROW_BLOCK, out.shape[1]))
    for i in range(0, len(out), ROW_BLOCK):
        G = out[i:i + ROW_BLOCK]
        sq = np.add(a2[i:i + ROW_BLOCK], b2, out=scratch[:len(G)])
        np.subtract(sq, G, out=sq)
        np.maximum(sq, 0.0, out=sq)
        np.multiply(-gamma, sq, out=sq)
        np.exp(sq, out=G)
    return out


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


BLOCK = 256  # columns per block of the factor
# Rows per block of the triangular solves.  NumPy has no triangular solve,
# so each diagonal block takes an LU (np.linalg.solve), which small blocks
# keep cheap; with two right-hand sides larger blocks gain no GEMM speed.
# It divides BLOCK, so each solve block lies in one of the factor's
# diagonal blocks, whose upper triangle holds zeros.
SOLVE_BLOCK = 32


def _cholesky_in_place(H: np.ndarray) -> None:
    """Overwrite the lower triangle of the SPD matrix ``H`` with its Cholesky
    factor L (H = L L'), left-looking by blocks of ``BLOCK`` columns; raise
    ``np.linalg.LinAlgError`` if a diagonal block is not positive definite.

    Each block column takes one product with the columns left of it, a
    ``np.linalg.cholesky`` of its diagonal block, and one product of the
    panel below with that block's inverse.  Diagonal blocks are written
    whole, so they hold L with zeros above.  The products are written,
    transposed, into ``H[:b, i:]`` with b <= i: that slice lies in the
    strictly upper triangle, which the factor never reads, so no
    (n - i) x b temporary is allocated (it would be taken from the heap
    and kept between fits)."""
    n = H.shape[0]
    for i in range(0, n, BLOCK):
        j = min(i + BLOCK, n)
        b = j - i
        col = H[i:, i:j]
        if i:
            upd = np.matmul(H[i:j, :i], H[i:, :i].T, out=H[:b, i:])
            col -= upd.T
        col[:b] = np.linalg.cholesky(col[:b])
        if j < n:
            panel = np.matmul(np.linalg.inv(col[:b]), col[b:].T, out=H[:b, j:])
            col[b:] = panel.T


def _cholesky_solve(H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Overwrite ``X`` with the solution of (L L') Z = X for the factor that
    ``_cholesky_in_place`` left in ``H``: a forward then a backward solve
    by blocks of ``SOLVE_BLOCK`` rows."""
    n = H.shape[0]
    starts = range(0, n, SOLVE_BLOCK)
    for i in starts:
        j = min(i + SOLVE_BLOCK, n)
        if i:
            X[i:j] -= H[i:j, :i] @ X[:i]
        X[i:j] = np.linalg.solve(H[i:j, i:j], X[i:j])
    for i in reversed(starts):
        j = min(i + SOLVE_BLOCK, n)
        if j < n:
            X[i:j] -= H[j:, i:j].T @ X[j:]
        X[i:j] = np.linalg.solve(H[i:j, i:j].T, X[i:j])
    return X


def _dual_solution(A: np.ndarray) -> tuple[np.ndarray, float]:
    """``(alpha, bias)`` solving the bordered dual system ``A`` from
    ``_dual_system`` (right-hand side [0, 1..1]); ``A`` is overwritten.

    With H = Omega + lam I (SPD) factored in place, eta = H^-1 y and
    nu = H^-1 1 give bias = y'nu / y'eta and alpha = nu - bias * eta."""
    y = A[1:, 0]
    H = A[1:, 1:]
    _cholesky_in_place(H)
    eta, nu = _cholesky_solve(H, np.column_stack([y, np.ones_like(y)])).T
    bias = float(y @ nu / (y @ eta))
    return nu - bias * eta, bias


def peak_bytes(n_fit: int, n_score: int) -> int:
    """Bytes held at the peak of a fit on ``n_fit`` rows or of scoring
    ``n_score`` rows against them, whichever is larger: the dual system or
    the scoring kernel, plus the kernel's row-block scratch."""
    return 8 * (max((n_fit + 1) ** 2, n_score * n_fit) + ROW_BLOCK * n_fit)


class LssvmModel(TrainedModel):
    PAYLOAD = ("support", "signs", "alpha", "bias", "mu", "sd")  # support is standardized

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "LssvmModel":
        lam = float(spec.param("lambda", 1e-6))
        gamma = float(spec.param("kernel_gamma", 1.0 / train.n_features))
        y = encode_sign_labels(train).astype(float)
        Xs, mu, sd = standardize(train.features)
        alpha, bias = _dual_solution(_dual_system(Xs, y, gamma, lam)[0])
        return cls(spec, train.feature_names, train.class_names,
                   Xs, y, alpha, bias, mu, sd)

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
