"""Confusion counting, per-class one-vs-rest metrics with their micro/macro
averages, ROC curves, and the majority-class randomized baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfusionCounts",
    "EvalMetrics",
    "confusion_counts",
    "averaged_metrics",
    "roc_and_auc",
    "randomized_recall",
    "DEFAULT_THRESHOLDS",
]

DEFAULT_THRESHOLDS = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class ConfusionCounts:
    """C x C matrix; entry (i, j) counts true class i predicted as j."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=int)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (m < 0).any():
            raise ValueError("negative confusion counts")
        object.__setattr__(self, "matrix", m)

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def one_vs_rest(self, i: int) -> tuple[int, int, int, int]:
        """(tp, fp, fn, tn) treating class i as positive."""
        m = self.matrix
        tp = int(m[i, i])
        fp = int(m[:, i].sum() - m[i, i])
        fn = int(m[i, :].sum() - m[i, i])
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn


@dataclass
class EvalMetrics:
    """Classification metrics for one evaluated task.

    Per-class entries are one-vs-rest.  ``micro_*`` are class-frequency
    weighted means of the per-class values; ``macro_*`` are unweighted
    means.  ``overall_accuracy`` is trace/total, which differs from
    micro accuracy for C > 2 (both are reported).
    """

    precision: np.ndarray = None
    recall: np.ndarray = None
    accuracy: np.ndarray = None
    micro_precision: float = None
    micro_recall: float = None
    micro_accuracy: float = None
    macro_precision: float = None
    macro_recall: float = None
    macro_accuracy: float = None
    overall_accuracy: float = None
    roc: list[tuple[float, float, float]] = field(default_factory=list)
    auc: float = None
    degenerate_flags: list[str] = field(default_factory=list)
    confusion: ConfusionCounts = None


def confusion_counts(true_labels, predicted_labels, n_classes: int | None = None
                     ) -> ConfusionCounts:
    y = np.asarray(true_labels, dtype=int)
    p = np.asarray(predicted_labels, dtype=int)
    if y.shape != p.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {p.shape}")
    if n_classes is None:
        n_classes = int(max(y.max(), p.max())) + 1
    if y.size and (y.min() < 0 or p.min() < 0 or y.max() >= n_classes or p.max() >= n_classes):
        raise ValueError("labels out of range")
    m = np.bincount(y * n_classes + p, minlength=n_classes * n_classes)
    return ConfusionCounts(m.reshape(n_classes, n_classes))


def averaged_metrics(counts: ConfusionCounts) -> EvalMetrics:
    """Per-class one-vs-rest metrics plus their micro/macro averages.

    Micro weights are the true-class counts in the scored set.
    """
    C = counts.n_classes
    N = counts.total
    tp = np.diag(counts.matrix)
    predicted = counts.matrix.sum(axis=0)  # tp + fp
    n_i = counts.matrix.sum(axis=1)  # tp + fn
    tn = N - predicted - n_i + tp
    # One row per measure: a strided column would change the micro dots' bits.
    num = np.array([tp, tp, tp + tn])
    den = np.array([predicted, n_i, np.full(C, N)])
    prec, rec, acc = np.divide(num, den, out=np.zeros((3, C)), where=den > 0)
    flags = [f"degenerate denominator: {('precision', 'recall', 'accuracy')[k]} class {i}"
             for i, k in np.argwhere(den.T == 0)]
    w = n_i / N if N else np.zeros(C)
    return EvalMetrics(
        precision=prec,
        recall=rec,
        accuracy=acc,
        micro_precision=float(w @ prec),
        micro_recall=float(w @ rec),
        micro_accuracy=float(w @ acc),
        macro_precision=float(prec.mean()),
        macro_recall=float(rec.mean()),
        macro_accuracy=float(acc.mean()),
        overall_accuracy=float(np.trace(counts.matrix) / N) if N else 0.0,
        degenerate_flags=flags,
        confusion=counts,
    )


def roc_and_auc(scores, true_labels) -> EvalMetrics:
    """ROC points and trapezoidal AUC from positive-class scores.

    The threshold grid ``DEFAULT_THRESHOLDS`` is refined with every
    distinct score value so the integration is exact for the given
    scores.  Predict positive iff score >= threshold.  Rows with a NaN
    score are dropped (and flagged) before anything is counted.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(true_labels, dtype=int)
    if s.shape != y.shape:
        raise ValueError("scores/labels length mismatch")
    m = EvalMetrics()
    scored = ~np.isnan(s)
    if not scored.all():
        m.degenerate_flags.append(f"NaN scores dropped: {int((~scored).sum())}")
        s, y = s[scored], y[scored]
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos == 0 or neg == 0:
        m.degenerate_flags.append("single-class labels: AUC undefined")
        m.auc = None
        return m
    # Thresholds in descending order run the curve from (0,0) toward (1,1).
    desc = np.unique(np.concatenate([DEFAULT_THRESHOLDS, s]))[::-1]
    # Scores >= t, counted for every t at once.
    pos_s = np.sort(s[y == 1])
    neg_s = np.sort(s[y == 0])
    tpr = (pos_s.size - np.searchsorted(pos_s, desc, "left")) / pos
    fpr = (neg_s.size - np.searchsorted(neg_s, desc, "left")) / neg
    points = list(zip(fpr.tolist(), tpr.tolist(), desc.tolist()))
    fprs = np.concatenate([[0.0], fpr, [1.0]])
    tprs = np.concatenate([[0.0], tpr, [1.0]])
    m.roc = points
    m.auc = float(np.trapezoid(tprs, fprs))
    return m


def randomized_recall(class_counts) -> float:
    """Recall of labeling everything as the most frequent class."""
    c = np.asarray(class_counts, dtype=float)
    if c.size == 0 or c.sum() == 0:
        raise ValueError("empty class counts")
    return float(c.max() / c.sum())
