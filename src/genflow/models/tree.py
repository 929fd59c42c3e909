"""Decision-tree building blocks: a leaf-count-limited regression tree
(for boosting) and a random-candidate classification tree (for forests).

Trees are stored as nested dicts: internal nodes carry ``feature`` /
``threshold`` / ``left`` / ``right``; leaves carry ``value`` (a scalar
for regression, a class-distribution vector for classification).  Rows
with feature value <= threshold go left.

Split search works on whole nodes at once:

- The regression tree uses the presorted exact search of SLIQ and of
  XGBoost's ``exact`` method.  ``presort`` sorts each feature once per
  boosting fit; a split partitions the node's ``(d, n)`` sorted-index
  matrix with the row mask, keeping each row's order, so no node sorts
  again.  ``_best_split`` scores every cut of every feature in one pass.
- The forest tree draws its ``split_count`` features, takes the node's
  value block once, draws all thresholds with one ``rng.uniform`` over the
  non-constant candidates and scores every candidate's Gini gain together,
  in the style of Extra-Trees.

Both searches reproduce the scalar per-feature / per-candidate search bit
for bit, and the forest consumes the random stream in the same order, so a
given seed grows the same trees: ties sort by row index, prefix sums are
sequential, and the first feature and the first cut win a tied gain.
``tests/tree_reference.py`` keeps the scalar search as the test oracle.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

__all__ = [
    "presort",
    "grow_regression_tree",
    "grow_random_classification_tree",
    "tree_predict",
    "tree_to_doc",
    "tree_from_doc",
]

_MIN_GAIN = 1e-12


def presort(X: np.ndarray) -> np.ndarray:
    """Row indices sorted by each feature, shape (d, n); ties keep row order."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _best_split(g: np.ndarray, order: np.ndarray, vs: np.ndarray, g_sum: float):
    """Exact least-squares split search over all features of one node.

    ``order`` holds the node's rows sorted by each feature, ``vs`` their
    feature values in that order and ``g_sum`` the node's sum of ``g``.
    Returns (gain, feature, threshold) or None when no split reduces the
    squared error.
    """
    n = order.shape[1]
    if n < 2:
        return None
    base = g_sum**2 / n
    csum = np.cumsum(g[order], axis=1)
    cut = np.flatnonzero(vs[:, 1:] > vs[:, :-1])  # split after position i
    if cut.size == 0:
        return None
    f, i = np.divmod(cut, n - 1)
    left_n = i + 1.0
    left_s = csum[f, i]
    gain = left_s**2 / left_n + (csum[f, -1] - left_s) ** 2 / (n - left_n) - base
    j = int(np.argmax(gain))
    if not gain[j] > _MIN_GAIN:
        return None
    f, i = int(f[j]), i[j]
    return float(gain[j]), f, float(0.5 * (vs[f, i] + vs[f, i + 1]))


def grow_regression_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                         max_leaves: int, order: np.ndarray
                         ) -> tuple[dict, np.ndarray]:
    """Best-first growth to at most ``max_leaves`` leaves.

    The tree structure is fit to ``g`` by least squares; leaf values
    are the Newton step sum(g)/sum(h) over the leaf's rows (pass h = 1
    for plain mean leaves).  ``order`` is ``presort(X)``.  Returns the
    tree and each row's leaf value.
    """
    fitted = np.empty(len(g))
    goes_left = np.zeros(len(g), dtype=bool)
    heap = []
    counter = itertools.count()  # tie-break: expansion order

    def leaf(rows, order, vs):
        """A leaf over ``rows`` (ascending), queued with its best split."""
        g_sum = g[rows].sum()
        fitted[rows] = value = float(g_sum / max(h[rows].sum(), 1e-12))
        node = {"value": value}
        split = _best_split(g, order, vs, g_sum)
        if split is not None:
            heapq.heappush(heap, (-split[0], next(counter), node, split, rows, order, vs))
        return node

    root = leaf(np.arange(len(g)), order, np.take_along_axis(X.T, order, axis=1))
    leaves = 1
    while heap and leaves < max_leaves:
        _, _, node, (_, f, thr), rows, order, vs = heapq.heappop(heap)
        mask = X[rows, f] <= thr
        goes_left[rows] = mask
        in_left, d = goes_left[order], len(order)
        in_right = ~in_left
        node.clear()
        node.update(
            feature=f, threshold=thr,
            left=leaf(rows[mask], order[in_left].reshape(d, -1),
                      vs[in_left].reshape(d, -1)),
            right=leaf(rows[~mask], order[in_right].reshape(d, -1),
                       vs[in_right].reshape(d, -1)),
        )
        leaves += 1
    return root, fitted


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each class-count vector along the last axis."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p * p).sum(axis=-1)


def grow_random_classification_tree(X: np.ndarray, y: np.ndarray, n_classes: int,
                                    split_count: int, max_depth: int,
                                    rng: np.random.Generator) -> dict:
    """Forest member: at each node try ``split_count`` random (feature,
    threshold) candidates, thresholds uniform over the node-local value
    range; keep the best Gini reduction.  Leaves store class frequencies.
    """

    def build(rows: np.ndarray, depth: int) -> dict:
        per_class = np.bincount(y[rows], minlength=n_classes)
        counts = per_class.astype(float)
        dist = counts / counts.sum()
        if depth >= max_depth or rows.size < 2 or counts.max() == counts.sum():
            return {"value": dist}
        feats = rng.integers(0, X.shape[1], size=split_count)
        Xr = X[rows]
        lo, hi = Xr.min(axis=0)[feats], Xr.max(axis=0)[feats]
        live = hi > lo  # constant candidates draw no threshold
        if not live.any():
            return {"value": dist}
        feats = feats[live]
        thr = rng.uniform(lo[live], hi[live])
        left = Xr[:, feats] <= thr
        # Rows are grouped by class, so each class is one slice of ``left``.
        ends = np.cumsum(per_class)
        cl = np.stack([left[e - k:e].sum(axis=0) for k, e in zip(per_class, ends)],
                      axis=1)
        nl = cl.sum(axis=1)
        m = rows.size
        ok = np.flatnonzero((nl > 0) & (nl < m))
        if ok.size == 0:
            return {"value": dist}
        cl, nl = cl[ok], nl[ok]
        gain = _gini(counts) - (nl * _gini(cl) + (m - nl) * _gini(counts - cl)) / m
        j = int(np.argmax(gain))
        if not gain[j] > _MIN_GAIN:
            return {"value": dist}
        j = ok[j]
        mask = left[:, j]
        return {
            "feature": int(feats[j]),
            "threshold": float(thr[j]),
            "left": build(rows[mask], depth + 1),
            "right": build(rows[~mask], depth + 1),
        }

    # Row order within a node changes no count, extreme or draw.
    return build(np.argsort(y, kind="stable"), 0)


def tree_predict(node: dict, X: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; output shape matches the leaf value shape."""
    probe = _first_leaf_value(node)
    out = np.zeros((len(X),) + np.shape(probe))

    def walk(nd, rows):
        if "value" in nd:
            out[rows] = nd["value"]
            return
        mask = X[rows, nd["feature"]] <= nd["threshold"]
        walk(nd["left"], rows[mask])
        walk(nd["right"], rows[~mask])

    walk(node, np.arange(len(X)))
    return out


def _first_leaf_value(node):
    while "value" not in node:
        node = node["left"]
    return np.asarray(node["value"])


def tree_to_doc(node: dict) -> dict:
    if "value" in node:
        v = np.asarray(node["value"], dtype=float)
        return {"value": [x.hex() for x in v.ravel().tolist()],
                "scalar": v.ndim == 0}
    return {
        "feature": node["feature"],
        "threshold": float(node["threshold"]).hex(),
        "left": tree_to_doc(node["left"]),
        "right": tree_to_doc(node["right"]),
    }


def tree_from_doc(doc: dict) -> dict:
    if "value" in doc:
        vals = np.array([float.fromhex(h) for h in doc["value"]])
        return {"value": float(vals[0]) if doc["scalar"] else vals}
    return {
        "feature": doc["feature"],
        "threshold": float.fromhex(doc["threshold"]),
        "left": tree_from_doc(doc["left"]),
        "right": tree_from_doc(doc["right"]),
    }
