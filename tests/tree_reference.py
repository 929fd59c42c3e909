"""Reference trees: the scalar search and the nested-dict trees that the
tree engine in ``genflow.models.tree`` replaced, kept unchanged as a test
oracle.

``_best_split`` argsorts every feature at every node and
``grow_random_classification_tree`` scores its candidates one at a time.
Their trees are nested dicts: internal nodes carry ``feature`` /
``threshold`` / ``left`` / ``right``, leaves carry ``value``.
``tree_predict`` walks such a tree recursively and ``tree_to_doc`` encodes
it with hex floats.  ``nested`` converts one tree of the engine's node
table to this form, so the engine must reproduce these trees bit for
bit, consume the same random stream and predict the same leaf values.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

_MIN_GAIN = 1e-12


def _best_split(X: np.ndarray, g: np.ndarray, rows: np.ndarray):
    """Exact least-squares split search over all features.

    Returns (gain, feature, threshold) or None when no split reduces
    the squared error.
    """
    n = rows.size
    if n < 2:
        return None
    gsub = g[rows]
    base = gsub.sum() ** 2 / n
    best = None
    for f in range(X.shape[1]):
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        gs = gsub[order]
        cut = np.flatnonzero(vs[1:] > vs[:-1])  # split after position i
        if cut.size == 0:
            continue
        csum = np.cumsum(gs)
        left_n = cut + 1.0
        left_s = csum[cut]
        total = csum[-1]
        gain = left_s**2 / left_n + (total - left_s) ** 2 / (n - left_n) - base
        j = int(np.argmax(gain))
        if gain[j] > _MIN_GAIN and (best is None or gain[j] > best[0]):
            thr = 0.5 * (vs[cut[j]] + vs[cut[j] + 1])
            best = (float(gain[j]), f, float(thr))
    return best


def grow_regression_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                         max_leaves: int) -> dict:
    """Best-first growth to at most ``max_leaves`` leaves.

    The tree structure is fit to ``g`` by least squares; leaf values
    are the Newton step sum(g)/sum(h) over the leaf's rows (pass h = 1
    for plain mean leaves).
    """
    all_rows = np.arange(len(g))

    def leaf_value(rows):
        return float(g[rows].sum() / max(h[rows].sum(), 1e-12))

    root = {"value": leaf_value(all_rows), "_rows": all_rows}
    heap = []
    counter = itertools.count()  # tie-break: expansion order

    def push(node):
        split = _best_split(X, g, node["_rows"])
        if split is not None:
            heapq.heappush(heap, (-split[0], next(counter), node, split))

    push(root)
    leaves = 1
    while heap and leaves < max_leaves:
        _, _, node, (gain, f, thr) = heapq.heappop(heap)
        rows = node.pop("_rows")
        mask = X[rows, f] <= thr
        left_rows, right_rows = rows[mask], rows[~mask]
        node.pop("value")
        node["feature"] = f
        node["threshold"] = thr
        node["left"] = {"value": leaf_value(left_rows), "_rows": left_rows}
        node["right"] = {"value": leaf_value(right_rows), "_rows": right_rows}
        push(node["left"])
        push(node["right"])
        leaves += 1
    _strip_rows(root)
    return root


def _strip_rows(node):
    node.pop("_rows", None)
    if "left" in node:
        _strip_rows(node["left"])
        _strip_rows(node["right"])


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def grow_random_classification_tree(X: np.ndarray, y: np.ndarray, n_classes: int,
                                    split_count: int, max_depth: int,
                                    rng: np.random.Generator) -> dict:
    """Forest member: at each node try ``split_count`` random (feature,
    threshold) candidates, thresholds uniform over the node-local value
    range; keep the best Gini reduction.  Leaves store class frequencies.
    """

    def build(rows: np.ndarray, depth: int) -> dict:
        counts = np.bincount(y[rows], minlength=n_classes).astype(float)
        dist = counts / counts.sum()
        if depth >= max_depth or rows.size < 2 or counts.max() == counts.sum():
            return {"value": dist}
        base = _gini(counts)
        feats = rng.integers(0, X.shape[1], size=split_count)
        best = None
        for f in feats:
            v = X[rows, f]
            lo, hi = v.min(), v.max()
            if hi <= lo:
                continue
            thr = rng.uniform(lo, hi)
            mask = v <= thr
            nl = int(mask.sum())
            if nl == 0 or nl == rows.size:
                continue
            cl = np.bincount(y[rows[mask]], minlength=n_classes).astype(float)
            cr = counts - cl
            gain = base - (nl * _gini(cl) + (rows.size - nl) * _gini(cr)) / rows.size
            if best is None or gain > best[0]:
                best = (gain, int(f), float(thr), mask)
        if best is None or best[0] <= _MIN_GAIN:
            return {"value": dist}
        _, f, thr, mask = best
        return {
            "feature": f,
            "threshold": thr,
            "left": build(rows[mask], depth + 1),
            "right": build(rows[~mask], depth + 1),
        }

    return build(np.arange(len(y)), 0)


def nested(table, root: int) -> dict:
    """The tree at ``root`` of a node table as nested dicts."""
    if table.left[root] < 0:
        value = np.asarray(table.value[root], dtype=float)
        return {"value": float(value) if value.ndim == 0 else value}
    return {
        "feature": int(table.feature[root]),
        "threshold": float(table.threshold[root]),
        "left": nested(table, int(table.left[root])),
        "right": nested(table, int(table.right[root])),
    }


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
