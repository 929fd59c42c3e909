"""Filter-based feature scoring: Fisher score, mutual information,
chi-squared, and greedy mRMR, plus top-k projection.

All scores are computed from the training split only.  Mutual
information and chi-squared operate on equal-width discretizations of
each feature over its training range; the bin count is a parameter.
Natural log is used throughout (base only rescales scores, never
ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, DataError

__all__ = [
    "RankedFeatures",
    "fisher_score",
    "mutual_information",
    "chi_squared",
    "mrmr_rank",
    "project_top_k",
    "discretize",
    "RANKING_METHODS",
]

# The rankers a run uses unless told otherwise; "mrmr" is opt-in.
RANKING_METHODS = ("fisher", "mutual_info", "chi_squared")


@dataclass(frozen=True)
class RankedFeatures:
    """Per-feature scores under one statistic and the induced order.

    ``order`` is a permutation of 0..d-1.  For the sort-based methods it
    is descending score with ties broken by ascending feature index; for
    mRMR it is the greedy selection order.
    """

    method: str
    scores: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order, dtype=int)
        scores = np.asarray(self.scores, dtype=float)
        if sorted(order.tolist()) != list(range(scores.size)):
            raise ValueError("order is not a permutation of feature indices")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "scores", scores)


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # Stable sort on negated scores: ties resolve to the lower index.
    return np.argsort(-scores, kind="stable")


def fisher_score(train: Dataset) -> RankedFeatures:
    """Squared between-class mean gap over summed within-class variances.

    Variances are population variances.  A feature with zero spread on
    both sides scores 0 when the class means agree and +inf when they
    differ (maximally discriminating).  For C > 2 the score is the max
    over one-vs-rest views.
    """
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


def discretize(values: np.ndarray, bin_count: int) -> np.ndarray:
    """Equal-width bin ids over the observed range; constant -> all bin 0."""
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros(values.shape, dtype=int)
    edges = np.linspace(lo, hi, bin_count + 1)
    return np.clip(np.digitize(values, edges[1:-1]), 0, bin_count - 1)


def _mi_from_joint(joint: np.ndarray) -> float:
    """MI in nats from a joint count (or probability) table."""
    p = joint / joint.sum()
    i, j = np.nonzero(p)
    # one rounded product a cell: the bits of the outer product px py'
    pxy = p.sum(axis=1)[i] * p.sum(axis=0)[j]
    return float(np.sum(p[i, j] * np.log(p[i, j] / pxy)))


def mutual_information(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    """I(feature; label) over equal-width bins, in nats."""
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
    """Sum over occupied bin values of the per-value 2x2 statistic."""
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
    """Per-bin 2x2 chi-square summed over bins; one-vs-rest sum for C > 2."""
    if bin_count < 2:
        raise DataError(f"bin_count must be >= 2, got {bin_count}")
    scores = np.empty(train.n_features)
    classes = range(train.n_classes) if train.n_classes > 2 else (1,)
    for l in range(train.n_features):
        bins = discretize(train.features[:, l], bin_count)
        scores[l] = sum(_chi2_binary(bins, train.labels == c) for c in classes)
    return RankedFeatures("chi_squared", scores, _descending_order(scores))


def mrmr_rank(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    """Greedy MID selection: relevance minus mean redundancy.

    The first pick maximizes I(feature; label); each later pick
    maximizes relevance minus the mean pairwise MI with the features
    already selected.  The greedy pass runs over all d features so
    ``order`` is a full permutation.
    """
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


def project_top_k(data: Dataset, ranking: RankedFeatures, k: int) -> Dataset:
    """Dataset view holding the first k features of the ranking order."""
    if not 1 <= k <= data.n_features:
        raise DataError(f"k must be in 1..{data.n_features}, got {k}")
    if ranking.order.size != data.n_features:
        raise DataError("ranking schema does not match dataset")
    cols = ranking.order[:k]
    return replace(
        data,
        features=data.features[:, cols],
        feature_names=tuple(data.feature_names[c] for c in cols),
    )
