"""Filter-based feature scoring: Fisher score, mutual information,
chi-squared, and greedy mRMR, plus top-k projection.

All scores are computed from the training split only.  Fisher and
chi-squared read one list of one-vs-rest views, those with rows on both
sides.  The binned rankers (mutual information, chi-squared, mRMR) bin each
feature once, equal-width over its training range, count its (bin, label)
or (bin, bin) pairs into one table and read their statistics from it;
``peak_bytes`` bounds the table's memory.  Natural log is used throughout.
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
    "peak_bytes",
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


def _views(train: Dataset) -> list[int]:
    """One-vs-rest positive classes with rows on both sides: class 1 if C = 2, else all."""
    counts, first = train.class_counts(), 0 if train.n_classes > 2 else 1
    return [c for c in range(first, train.n_classes) if 0 < counts[c] < train.n_samples]


def fisher_score(train: Dataset) -> RankedFeatures:
    """Squared between-class mean gap over summed within-class variances.

    Variances are population variances.  A feature with zero spread on
    both sides scores 0 when the class means agree and +inf when they
    differ (maximally discriminating).  For C > 2 the score is the max
    over one-vs-rest views; a view with an empty side is skipped.
    """
    if not (views := _views(train)):
        raise DataError("class 1 vs rest: one side is empty" if train.n_classes <= 2
                        else "every one-vs-rest view has an empty side")
    scores = np.max([_fisher_binary(train.features, train.labels == c) for c in views], axis=0)
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


def _feature_bins(train: Dataset, bin_count: int) -> list[np.ndarray]:
    """Each feature's bin ids, discretized once for every binned ranker."""
    if bin_count < 2:
        raise DataError(f"bin_count must be >= 2, got {bin_count}")
    return [discretize(train.features[:, l], bin_count) for l in range(train.n_features)]


def _table(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Counts of each (row, col) id pair, as float64 (unit weights)."""
    ids = rows * shape[1] + cols
    return np.bincount(ids, np.ones(ids.size), shape[0] * shape[1]).reshape(shape)


def _mi(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> float:
    """MI in nats between two id columns, from their count table."""
    joint = _table(rows, cols, shape)
    p = joint / joint.sum()
    i, j = np.nonzero(p)
    # one rounded product a cell: the bits of the outer product px py'
    pxy = p.sum(axis=1)[i] * p.sum(axis=0)[j]
    return float(np.sum(p[i, j] * np.log(p[i, j] / pxy)))


def peak_bytes(methods, bin_count: int, n_classes: int) -> int:
    """Peak bytes of the binned rankers among ``methods``: one feature's widest table,
    bin_count x C (x bin_count for mRMR's pairs), at 17 a cell in ``_mi`` (counts, ``p``,
    slack) plus 32 a bin for marginals and edges; chi-squared stays below, Fisher at 0."""
    if not set(methods) - {"fisher"}:
        return 0
    width = max(n_classes, bin_count if "mrmr" in methods else 0)
    return bin_count * (17 * width + 32)


def mutual_information(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    """I(feature; label) over equal-width bins, in nats."""
    shape = (bin_count, train.n_classes)
    scores = np.array([_mi(b, train.labels, shape) for b in _feature_bins(train, bin_count)])
    return RankedFeatures("mutual_info", scores, _descending_order(scores))


def chi_squared(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    """Per-bin 2x2 chi-square summed over bins; one-vs-rest sum for C > 2.

    Every probability is a count from the feature's table over n.  A bin
    holding every row adds nothing, nor does a view with an empty side.
    """
    n, classes = train.n_samples, _views(train)
    p_y1 = train.class_counts()[classes] / n
    p_y0 = 1.0 - p_y1
    scores = np.empty(train.n_features)
    for l, bins in enumerate(_feature_bins(train, bin_count)):
        table = _table(bins, train.labels, (bin_count, train.n_classes))
        in_bin = table.sum(axis=1)
        kept = (0 < in_bin) & (in_bin < n)
        x, x1 = in_bin[kept, None], table[kept][:, classes]
        p_x, p_x1, p_x0 = x / n, x1 / n, (x - x1) / n
        p_nx = 1.0 - p_x
        cross = p_x1 * (p_y0 - p_x0) - p_x0 * (p_y1 - p_x1)
        terms = n * cross * cross / (p_x * p_nx * p_y1 * p_y0)
        # Bins in ascending order, then views in class order, one add at a
        # time: np.sum regroups, and sum() compensates exact (non-NumPy) floats
        scores[l] = sum(sum(terms, np.zeros(len(classes))))
    return RankedFeatures("chi_squared", scores, _descending_order(scores))


def mrmr_rank(train: Dataset, bin_count: int = 10) -> RankedFeatures:
    """Greedy MID selection: relevance minus mean redundancy.

    The first pick maximizes I(feature; label); each later pick
    maximizes relevance minus the mean pairwise MI with the features
    already selected.  The greedy pass runs over all d features so
    ``order`` is a full permutation.
    """
    d = train.n_features
    bins = _feature_bins(train, bin_count)
    relevance = np.array([_mi(b, train.labels, (bin_count, train.n_classes)) for b in bins])
    pair_mi = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            pair_mi[a, b] = pair_mi[b, a] = _mi(bins[a], bins[b], (bin_count, bin_count))

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
