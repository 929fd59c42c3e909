"""Decision-tree building blocks: a leaf-count-limited regression tree
(for boosting) and a random-candidate classification tree (for forests).

All trees of an ensemble live in one node table of five parallel arrays,
the layout of scikit-learn's tree module: node i splits on
``feature[i]`` at ``threshold[i]`` and sends rows with feature value <=
threshold to ``left[i]``, the rest to ``right[i]``.  A leaf has
``left = right = -1`` (and ``feature = -1``); ``value[i]`` is a scalar
for regression and a class-distribution row for classification, and is
read only at leaves.  Tree t starts at ``roots[t]`` and owns the rows up
to the next root.  The growers append one tree to a ``NodeTable`` and
return its root; ``tree_predict`` walks every tree at once, one depth
level per step, and returns each row's leaf in each tree.  Fitted
ensembles save the table through the shared ``PAYLOAD`` serializer.

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
``tests/tree_reference.py`` keeps the scalar search, the nested-dict
trees and their recursive walk as the test oracle.
"""

from __future__ import annotations

import heapq

import numpy as np

from .base import TrainedModel

__all__ = [
    "NodeTable",
    "TreeEnsemble",
    "presort",
    "grow_regression_tree",
    "grow_random_classification_tree",
    "tree_predict",
]

_MIN_GAIN = 1e-12
_COLUMNS = ("feature", "threshold", "left", "right", "value")


class NodeTable:
    """The node table while trees grow: one list per column."""

    def __init__(self):
        for name in _COLUMNS:
            setattr(self, name, [])

    def leaf(self, value) -> int:
        """Append a leaf and return its index."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.value) - 1

    def split(self, node: int, feature: int, threshold: float, left: int, right: int):
        """Turn leaf ``node`` into a split; its ``value`` is no longer read."""
        self.feature[node], self.threshold[node] = feature, threshold
        self.left[node], self.right[node] = left, right

    def columns(self) -> dict:
        return {name: getattr(self, name) for name in _COLUMNS}


class TreeEnsemble(TrainedModel):
    """Base for tree ensembles: the node table and each tree's root."""

    PAYLOAD = ("roots",) + _COLUMNS


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
                         max_leaves: int, order: np.ndarray, table: NodeTable
                         ) -> tuple[int, np.ndarray]:
    """Best-first growth to at most ``max_leaves`` leaves, appended to
    ``table``; the tree's nodes are ``table`` rows root..end.

    The tree structure is fit to ``g`` by least squares; leaf values
    are the Newton step sum(g)/sum(h) over the leaf's rows (pass h = 1
    for plain mean leaves).  ``order`` is ``presort(X)``.  Returns the
    root and each row's leaf value.
    """
    fitted = np.empty(len(g))
    goes_left = np.zeros(len(g), dtype=bool)
    heap = []  # equal gains expand in creation order, i.e. by node index

    def leaf(rows, order, vs):
        """A leaf over ``rows`` (ascending), queued with its best split."""
        g_sum = g[rows].sum()
        fitted[rows] = value = float(g_sum / max(h[rows].sum(), 1e-12))
        node = table.leaf(value)
        split = _best_split(g, order, vs, g_sum)
        if split is not None:
            heapq.heappush(heap, (-split[0], node, split, rows, order, vs))
        return node

    root = leaf(np.arange(len(g)), order, np.take_along_axis(X.T, order, axis=1))
    leaves = 1
    while heap and leaves < max_leaves:
        _, node, (_, f, thr), rows, order, vs = heapq.heappop(heap)
        mask = X[rows, f] <= thr
        goes_left[rows] = mask
        in_left, d = goes_left[order], len(order)
        in_right = ~in_left
        table.split(node, f, thr,
                    leaf(rows[mask], order[in_left].reshape(d, -1),
                         vs[in_left].reshape(d, -1)),
                    leaf(rows[~mask], order[in_right].reshape(d, -1),
                         vs[in_right].reshape(d, -1)))
        leaves += 1
    return root, fitted


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each class-count vector along the last axis."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p * p).sum(axis=-1)


def grow_random_classification_tree(X: np.ndarray, y: np.ndarray, n_classes: int,
                                    split_count: int, max_depth: int,
                                    rng: np.random.Generator, table: NodeTable) -> int:
    """Forest member: at each node try ``split_count`` random (feature,
    threshold) candidates, thresholds uniform over the node-local value
    range; keep the best Gini reduction.  Leaves store class frequencies.
    Appends the tree to ``table`` and returns its root.
    """

    def build(rows: np.ndarray, depth: int) -> int:
        per_class = np.bincount(y[rows], minlength=n_classes)
        counts = per_class.astype(float)
        node = table.leaf(counts / counts.sum())
        if depth >= max_depth or counts.max() == counts.sum():
            return node
        feats = rng.integers(0, X.shape[1], size=split_count)
        Xr = X[rows]
        lo, hi = Xr.min(axis=0)[feats], Xr.max(axis=0)[feats]
        live = hi > lo  # constant candidates draw no threshold
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
            return node
        cl, nl = cl[ok], nl[ok]
        gain = _gini(counts) - (nl * _gini(cl) + (m - nl) * _gini(counts - cl)) / m
        j = int(np.argmax(gain))
        if not gain[j] > _MIN_GAIN:
            return node
        j = ok[j]
        mask = left[:, j]
        table.split(node, int(feats[j]), float(thr[j]),
                    build(rows[mask], depth + 1), build(rows[~mask], depth + 1))
        return node

    # Row order within a node changes no count, extreme or draw.
    return build(np.argsort(y, kind="stable"), 0)


def tree_predict(ensemble, X: np.ndarray) -> np.ndarray:
    """Leaf index of every row in every tree of ``ensemble`` (an object
    with ``roots`` and the node-table arrays), shape (n, trees).

    All (row, tree) pairs step down one level together; a pair stops
    at its leaf.
    """
    leaf = np.tile(ensemble.roots, (len(X), 1))
    flat = leaf.reshape(-1)  # a view: writes land in ``leaf``
    child = np.column_stack([ensemble.right, ensemble.left]).ravel()  # [2i + goes_left]
    values = X.ravel()
    live = np.flatnonzero(ensemble.left[flat] >= 0)
    node = flat[live]
    start = live // leaf.shape[1] * X.shape[1]  # the pair's row in ``values``
    while live.size:
        goes_left = values[start + ensemble.feature[node]] <= ensemble.threshold[node]
        node = child[2 * node + goes_left]
        inner = ensemble.left[node] >= 0
        if not inner.all():
            flat[live] = node
            live, node, start = live[inner], node[inner], start[inner]
    return leaf


