"""Least-squares SVM with RBF kernel, trained by one packed Cholesky solve.

The dual of the squared-slack margin objective (Suykens et al., *Least
Squares Support Vector Machines*, 2002) is, with coef = y * alpha, ridge
regression on the +-1 labels with a free bias:
[[0, 1'], [1, K + lam I]] [bias; coef] = [0; y].  K + lam I is symmetric
positive definite and does not depend on the labels: the fit factors it
once and solves for 1 and y.  It keeps the bits of the signed form, which
factored D (K + lam I) D, D = diag(y): every operand there flips sign in
one pattern, so its factor is D L D and its solutions D u and D v, and its
bias dot sums the same terms.  Only the signs of exact zeros differ, which
no prediction sees.  The decision value sum_j coef_j K(x, x_j) + bias is
squashed to [0,1] by a strictly monotone logistic map (ROC/AUC unchanged)
so thresholding behaves like the probabilistic families.

Memory: only the lower triangle of K + lam I is stored, as block rows of
``BLOCK`` rows in one flat buffer (block row k holds rows i_k:j_k,
columns 0:j_k), about n(n + BLOCK)/2 words; the Cholesky factor overwrites
it block row by block row, each diagonal block by its inverse, through one
BLOCK x BLOCK scratch per lane.  When a second core is free
(``base.second_core_free``) the block rows are factored on two lanes, the
calling thread and one helper, with the bits of one lane.  Scoring m rows
computes the kernel over ``ROW_BLOCK``-row chunks through one slab of at
most ROW_BLOCK + 1 rows of n, so no m x n kernel is ever whole.
``peak_bytes`` is the estimate; ``run_flow`` refuses a job whose estimate
exceeds physical memory (CLI exit 2), and lets the sweeps' fold helper
process run only when two such systems fit at once.
"""

from __future__ import annotations

import threading

import numpy as np

from ..dataset import Dataset, encode_sign_labels
from .base import ModelSpec, TrainedModel, second_core_free, squash, standardize

__all__ = ["LssvmModel", "peak_bytes", "rbf_kernel"]


# Rows per block of the kernel's elementwise steps and per scoring chunk: a
# block stays in cache through all five; its scratch is the only temporary.
ROW_BLOCK = 32

# Rows per block row of the packed system.
BLOCK = 256


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float, out: np.ndarray | None = None,
               b2: np.ndarray | None = None) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row pair, written into ``out``
    (a new array if None).  ``b2`` is ``np.sum(B * B, axis=1)`` when the
    caller has it already.

    The product 2 A B' is written straight into ``out`` by one GEMM (a
    strided view included), and the squared distances and ``exp`` replace
    it by blocks of ``ROW_BLOCK`` rows.  One m x n buffer and one
    ROW_BLOCK x n scratch are live at the peak.  The GEMM is not split
    here, but the LS-SVM calls this on row blocks of A: such a product
    can differ from the whole-matrix one in the last bits."""
    out = np.matmul(2.0 * A, B.T, out=out)
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = (np.sum(B * B, axis=1) if b2 is None else b2)[None, :]
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


def _packed_words(n: int) -> int:
    """Words of the packed lower triangle: block row k is b_k x j_k."""
    return sum((min(i + BLOCK, n) - i) * min(i + BLOCK, n) for i in range(0, n, BLOCK))


def _packed_system(Xs: np.ndarray, gamma: float, lam: float) -> list[np.ndarray]:
    """The lower triangle of K + lam I as C-contiguous block rows: views
    into one flat buffer, block row k being rows i:j and columns 0:j (its
    diagonal block is whole).  Each is the kernel of its own row block with
    lam added on the diagonal."""
    n = len(Xs)
    flat = np.empty(_packed_words(n))
    rows = []
    for i in range(0, n, BLOCK):
        j = min(i + BLOCK, n)
        start = sum(R.size for R in rows)
        R = flat[start:start + (j - i) * j].reshape(j - i, j)
        rbf_kernel(Xs[i:j], Xs[:j], gamma, out=R)
        R.reshape(-1)[i::j + 1] += lam  # entries (r, i + r)
        rows.append(R)
    return rows


def _lower_inverse(L: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write inv(L) of a lower-triangular ``L`` into ``out`` (zeros above
    the diagonal), row by row by forward substitution.  ``np.linalg.inv``
    would take an LU of the already triangular block: it is about twice as
    slow at 256 rows, and its blocked LAPACK path raised the peak RSS of a
    WBC-sized benchmark run by about 0.5 MB (OpenBLAS, x86-64)."""
    out[...] = 0.0
    for r in range(len(L)):
        out[r, :r] = -(L[r, :r] @ out[:r, :r]) / L[r, r]
        out[r, r] = 1.0 / L[r, r]
    return out


def _lane_count(block_rows: int) -> int:
    """Two factor lanes when a second core is free (``second_core_free``)
    and the system has more than one block row; else one."""
    return 2 if block_rows > 1 and second_core_free() else 1


def _factor_in_place(rows: list[np.ndarray]) -> None:
    """Overwrite the packed block rows of the SPD matrix H with those of its
    Cholesky factor L (H = L L'), up-looking, except that each diagonal
    block holds inv(L_kk): once factored, a block is read only through its
    inverse.  Raise ``np.linalg.LinAlgError`` if a diagonal block is not
    positive definite.

    Block row k reads only the finished rows above it.  Each earlier block
    m becomes (H_km - L_k,<m L_m,<m') inv(L_mm)'; then the diagonal block
    takes the product L_k,<k L_k,<k' off, is factored by
    ``np.linalg.cholesky`` and is overwritten whole by its inverse, with
    zeros above.

    Block row k waits for block row m to be finished before it updates
    block m, and for nothing else, so the block rows are dealt out to the
    ``_lane_count`` lanes: the calling thread takes rows 0, lanes,
    2 lanes, ... and a helper thread per other lane the rest.  Every lane
    makes the same calls on the same operands through its own
    BLOCK x BLOCK scratch, so the factor has the bits of one lane, and a
    fit allocates no temporary per block.  The helpers are joined before
    this returns or raises."""
    lanes = _lane_count(len(rows))
    finished = [threading.Event() for _ in rows]
    failures: list[BaseException] = []
    helpers = [threading.Thread(target=_factor_lane, name=f"lssvm-factor-{lane}",
                                args=(rows, finished, failures, lane, lanes))
               for lane in range(1, lanes)]
    for helper in helpers:
        helper.start()
    try:
        _factor_lane(rows, finished, failures, 0, lanes)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]


def _factor_lane(rows: list[np.ndarray], finished: list[threading.Event],
                 failures: list[BaseException], lane: int, lanes: int) -> None:
    """Factor block rows lane, lane + lanes, ... in order (see
    ``_factor_in_place``), setting each one's event in ``finished`` once it
    is final.  A failure is appended to ``failures`` and sets every event,
    so a lane waiting for a row wakes, sees it and stops; the caller
    raises it."""
    b0 = rows[0].shape[0]  # no block is larger than the first
    scratch = np.empty(b0 * b0)
    try:
        for k in range(lane, len(rows), lanes):
            R = rows[k]
            b, j = R.shape
            for m, Rm in enumerate(rows[:k]):
                finished[m].wait()
                if failures:
                    return
                bm, jm = Rm.shape
                im = jm - bm
                T = scratch[:b * bm].reshape(b, bm)
                S = R[:, im:jm]
                S -= np.matmul(R[:, :im], Rm[:, :im].T, out=T)
                S[...] = np.matmul(S, Rm[:, im:].T, out=T)
            i = j - b
            D = R[:, i:]
            T = scratch[:b * b].reshape(b, b)
            D -= np.matmul(R[:, :i], R[:, :i].T, out=T)
            D[...] = _lower_inverse(np.linalg.cholesky(D), T)
            finished[k].set()
    except BaseException as exc:  # an interrupt too: the caller re-raises it
        failures.append(exc)
        for event in finished:
            event.set()


def _solve_in_place(rows: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Overwrite ``X`` with the solution of (L L') Z = X for the factor that
    ``_factor_in_place`` left in ``rows``: a forward then a backward solve
    by block rows, each diagonal block applied through the inverse that
    holds its place."""
    for R in rows:
        b, j = R.shape
        i = j - b
        X[i:j] -= R[:, :i] @ X[:i]
        X[i:j] = R[:, i:] @ X[i:j]
    for R in reversed(rows):
        b, j = R.shape
        i = j - b
        X[i:j] = R[:, i:].T @ X[i:j]
        X[:i] -= R[:, :i].T @ X[i:j]
    return X


def _dual_coefficients(rows: list[np.ndarray], y: np.ndarray) -> tuple[np.ndarray, float]:
    """``(coef, bias)`` solving [[0, 1'], [1, H]] [bias; coef] = [0; y] for
    H = K + lam I packed in ``rows`` (overwritten by its factor): with
    u = H^-1 1 and v = H^-1 y, bias = 1'v / 1'u and coef = v - bias * u."""
    _factor_in_place(rows)
    ones = np.ones_like(y)
    u, v = _solve_in_place(rows, np.column_stack([ones, y])).T
    # BLAS dots, as the signed form's y'nu and y'eta: a pairwise sum() differs in bits.
    bias = float(ones @ v / (ones @ u))
    return v - bias * u, bias


def _kernel_times(Q: np.ndarray, S: np.ndarray, gamma: float, w: np.ndarray) -> np.ndarray:
    """``rbf_kernel(Q, S, gamma) @ w``, computed over ``ROW_BLOCK``-row
    chunks of Q through one slab of at most (ROW_BLOCK + 1) x len(S); the
    squared norms of S are summed once for every chunk.

    No chunk is a single row unless Q is: NumPy sends a one-row product to
    GEMV, whose sums can differ from GEMM's in the last bits, and with wide
    rows and a large gamma the kernel amplifies that to 1e-10 relative.  A
    lone last row joins the chunk before it instead, so every other chunk
    keeps the rows, and the places in them, that a product over the whole
    of Q would give it; with one support row every product is a GEMV, whose
    sums depend on a row's place in it (3e-12 in a decision value)."""
    m = len(Q)
    cuts = list(range(0, m, ROW_BLOCK)) + [m]
    if m > 1 and m % ROW_BLOCK == 1:
        del cuts[-2]
    f = np.empty(m)
    slab = np.empty((min(ROW_BLOCK + 1, m), len(S)))
    s2 = np.sum(S * S, axis=1)
    for i, j in zip(cuts, cuts[1:]):
        np.matmul(rbf_kernel(Q[i:j], S, gamma, out=slab[:j - i], b2=s2), w, out=f[i:j])
    return f


def peak_bytes(n_fit: int) -> int:
    """Bytes held at the peak of an LS-SVM fit on ``n_fit`` rows, beside
    the rows themselves: the packed system, the kernel's ROW_BLOCK x n_fit
    scratch while it is built, and four BLOCK x BLOCK blocks while it is
    factored: the scratch of each of two lanes, and ``np.linalg.cholesky``'s
    two copies of a diagonal block in one lane (a lane reaches its diagonal
    block only once the other has finished the one before).  One lane holds
    less.  Scoring against the fit rows holds two buffers of about
    ROW_BLOCK x n_fit, the slab and the kernel's scratch, and no packed
    system, so this bounds it too."""
    return 8 * (_packed_words(n_fit) + ROW_BLOCK * n_fit + 4 * min(n_fit, BLOCK) ** 2)


class LssvmModel(TrainedModel):
    PAYLOAD = ("support", "coef", "bias", "mu", "sd")  # support is standardized

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "LssvmModel":
        lam = float(spec.param("lambda", 1e-6))
        gamma = float(spec.param("kernel_gamma", 1.0 / train.n_features))
        y = encode_sign_labels(train).astype(float)
        Xs, mu, sd = standardize(train.features)
        coef, bias = _dual_coefficients(_packed_system(Xs, gamma, lam), y)
        return cls(spec, train.feature_names, train.class_names, Xs, coef, bias, mu, sd)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self.mu) / self.sd
        gamma = float(self.spec.param("kernel_gamma", 1.0 / X.shape[1]))
        return _kernel_times(Xs, self.support, gamma, self.coef) + self.bias

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        return squash(self.decision_values(X))

    def system_residual(self, train: Dataset) -> float:
        """Relative residual of [[0, 1'], [1, K + lam I]] [bias; coef] = [0; y]
        at the fitted solution, y being the +-1 labels of the fit rows
        ``train``, whose decision values give bias + K coef."""
        coef, lam = self.coef, float(self.spec.param("lambda", 1e-6))
        fitted = self.decision_values(train.features) + lam * coef
        r = np.append(np.ones_like(coef) @ coef, fitted - encode_sign_labels(train))
        return float(np.linalg.norm(r) / np.sqrt(len(coef)))
