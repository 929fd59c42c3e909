"""Reference per-class metrics: the one-vs-rest loop, with its zero-guarded
division, that ``genflow.metrics.averaged_metrics`` replaced by one
vectorized pass, kept unchanged as a test oracle.

Each class takes its (tp, fp, fn, tn) from ``ConfusionCounts.one_vs_rest``
and divides Python integers, flagging a zero denominator as it goes.  The
engine must reproduce every array, average and flag bit for bit.
"""

from __future__ import annotations

import numpy as np

from genflow.metrics import ConfusionCounts, EvalMetrics


def _safe_div(num: float, den: float, flags: list[str], what: str) -> float:
    if den == 0:
        flags.append(f"degenerate denominator: {what}")
        return 0.0
    return num / den


def averaged_metrics(counts: ConfusionCounts) -> EvalMetrics:
    C = counts.n_classes
    N = counts.total
    flags: list[str] = []
    prec = np.zeros(C)
    rec = np.zeros(C)
    acc = np.zeros(C)
    n_i = counts.matrix.sum(axis=1).astype(float)
    for i in range(C):
        tp, fp, fn, tn = counts.one_vs_rest(i)
        prec[i] = _safe_div(tp, tp + fp, flags, f"precision class {i}")
        rec[i] = _safe_div(tp, tp + fn, flags, f"recall class {i}")
        acc[i] = _safe_div(tp + tn, N, flags, f"accuracy class {i}")
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
