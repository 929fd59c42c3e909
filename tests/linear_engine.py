"""Loss-and-gradient compositions of the linear engines in
``genflow.models.linear``, for the finite-difference checks and the
bit-equality property against ``tests/linear_reference.py``.

Each function chains the library's own kernels in the order a fit runs
them, so the tests check exactly the arithmetic the fits use.
"""

from __future__ import annotations

import numpy as np

from genflow.models.linear import (
    _class_major_labels,
    _logistic_terms,
    softmax_grad,
    softmax_nll,
)


def logistic_nll_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray,
                      l2: float) -> tuple[float, np.ndarray]:
    """Penalized binary NLL and its gradient; ``w[0]`` is the intercept."""
    return _logistic_terms(w, X, y, l2)[:2]


def softmax_nll_grad(B: np.ndarray, X: np.ndarray, y: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray]:
    """Penalized multinomial NLL and its gradient at ``B``; ``X`` is N x d."""
    label_at, YT = _class_major_labels(y, len(B))
    nll, ZT, logZ = softmax_nll(B, np.ascontiguousarray(X.T), label_at, l2)
    return nll, softmax_grad(B, X, YT, ZT, logZ, l2)
