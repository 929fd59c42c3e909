"""Reference filter rankers: Fisher, mutual information, chi-squared and
mRMR as they stood before ``genflow.ranking`` counted each feature's bins
once into a shared table, kept unchanged as a test oracle.

Mutual information and mRMR fill their joint tables with ``np.add.at``,
mRMR re-runs ``mutual_information`` for its relevance, and chi-squared
loops over each occupied bin with boolean-mask means.  The engine must
reproduce every score's bits and every order.
"""

from __future__ import annotations

import numpy as np

from genflow.dataset import Dataset, DataError
from genflow.ranking import RankedFeatures, discretize


def _descending_order(scores: np.ndarray) -> np.ndarray:
    return np.argsort(-scores, kind="stable")


def fisher_score(train: Dataset) -> RankedFeatures:
    if train.n_classes > 2:
        per_class = [
            _fisher_binary(train.features, train.labels == c)
            for c in range(train.n_classes)
        ]
        scores = np.max(per_class, axis=0)
    else:
        mask = train.labels == 1
        if mask.all() or not mask.any():
            raise DataError("class 1 vs rest: one side is empty")
        scores = _fisher_binary(train.features, mask)
    return RankedFeatures("fisher", scores, _descending_order(scores))


def _fisher_binary(X: np.ndarray, positive_mask: np.ndarray) -> np.ndarray:
    x1, x0 = X[positive_mask], X[~positive_mask]
    num = (x1.mean(axis=0) - x0.mean(axis=0)) ** 2
    den = x0.var(axis=0) + x1.var(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(den > 0, num / np.where(den > 0, den, 1.0),
                          np.where(num > 0, np.inf, 0.0))
    return scores


def _mi_from_joint(joint: np.ndarray) -> float:
    p = joint / joint.sum()
    i, j = np.nonzero(p)
    pxy = p.sum(axis=1)[i] * p.sum(axis=0)[j]
    return float(np.sum(p[i, j] * np.log(p[i, j] / pxy)))


def mutual_information(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    if bin_count < 2:
        raise DataError(f"bin_count must be >= 2, got {bin_count}")
    C = train.n_classes
    scores = np.empty(train.n_features)
    for l in range(train.n_features):
        bins = discretize(train.features[:, l], bin_count)
        joint = np.zeros((bin_count, C))
        np.add.at(joint, (bins, train.labels), 1.0)
        scores[l] = _mi_from_joint(joint)
    return RankedFeatures("mutual_info", scores, _descending_order(scores))


def _chi2_binary(bins: np.ndarray, positive_mask: np.ndarray) -> float:
    n = bins.size
    p_y1 = positive_mask.mean()
    p_y0 = 1.0 - p_y1
    total = 0.0
    for b in np.unique(bins):
        in_b = bins == b
        p_x = in_b.mean()
        p_nx = 1.0 - p_x
        if p_x == 0 or p_nx == 0 or p_y1 == 0 or p_y0 == 0:
            continue
        p_x1 = (in_b & positive_mask).mean()
        p_x0 = (in_b & ~positive_mask).mean()
        p_nx1 = p_y1 - p_x1
        p_nx0 = p_y0 - p_x0
        cross = p_x1 * p_nx0 - p_x0 * p_nx1
        total += n * cross * cross / (p_x * p_nx * p_y1 * p_y0)
    return total


def chi_squared(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    if bin_count < 2:
        raise DataError(f"bin_count must be >= 2, got {bin_count}")
    scores = np.empty(train.n_features)
    classes = range(train.n_classes) if train.n_classes > 2 else (1,)
    for l in range(train.n_features):
        bins = discretize(train.features[:, l], bin_count)
        scores[l] = sum(_chi2_binary(bins, train.labels == c) for c in classes)
    return RankedFeatures("chi_squared", scores, _descending_order(scores))


def mrmr_rank(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    d = train.n_features
    bins = np.column_stack(
        [discretize(train.features[:, l], bin_count) for l in range(d)]
    )
    relevance = mutual_information(train, bin_count).scores
    pair_mi = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            joint = np.zeros((bin_count, bin_count))
            np.add.at(joint, (bins[:, a], bins[:, b]), 1.0)
            pair_mi[a, b] = pair_mi[b, a] = _mi_from_joint(joint)

    order = []
    criterion = np.full(d, -np.inf)
    remaining = list(range(d))
    while remaining:
        if order:
            red = pair_mi[np.ix_(remaining, order)].mean(axis=1)
        else:
            red = np.zeros(len(remaining))
        vals = relevance[remaining] - red
        best = int(np.argmax(vals))  # first index wins ties
        idx = remaining.pop(best)
        criterion[idx] = vals[best]
        order.append(idx)
    return RankedFeatures("mrmr", criterion, np.array(order))
