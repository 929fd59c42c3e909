"""Reference selection loops: the grid sweep, the dimensionality sweep and
Decision 2 as they ran before ``genflow.selection`` and ``genflow.flow``
chose their winners with one ``max`` each, kept unchanged as a test oracle.

Each loop keeps a running best and replaces it only on a strictly better
candidate.  The dimensionality sweep cross-validates every (method, k)
point, even when two rankings share a top-k prefix.  The library must
reproduce these tables, curves, winners and out-of-fold labels exactly.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from genflow import DataError
from genflow.models import FAMILIES
from genflow.ranking import project_top_k
from genflow.selection import (
    _FIT_FAILURES,
    DimSweepResult,
    SweepResult,
    _resolve_spec,
    cross_validate,
    cv_accuracy,
)

DEFAULT_GRIDS = {n: f.grid for n, f in FAMILIES.items()}


def sweep_parameters(family, grid, train, folds, seed=0):
    if not grid:
        raise DataError("empty hyperparameter grid")
    names = list(grid)
    table = []
    best = None
    for values in itertools.product(*(grid[n] for n in names)):
        point = dict(zip(names, values))
        spec = _resolve_spec(family, point, train.n_features, seed)
        try:
            mean_acc, fold_accs = cv_accuracy(spec, train, folds)
            note = ""
        except _FIT_FAILURES as exc:  # record the failure, keep sweeping
            mean_acc, fold_accs, note = 0.0, [], f"fit failed: {exc}"
            warnings.warn(f"{family} grid point {point}: {note}")
        table.append({
            "point": point,
            "mean_accuracy": mean_acc,
            "fold_accuracies": fold_accs,
            "note": note,
        })
        if best is None or mean_acc > best[0]:
            best = (mean_acc, spec)
    return SweepResult(best_spec=best[1], cv_accuracy=best[0], table=table)


def dimensionality_sweep(best_spec, train, folds, rankings):
    d = train.n_features
    curves = {}
    best = None  # (acc, k, method_pos)
    for pos, ranking in enumerate(rankings):
        curve = []
        for k in range(1, d + 1):
            accs, pred = cross_validate(best_spec, project_top_k(train, ranking, k),
                                        folds)
            acc = float(np.mean(accs))
            curve.append(acc)
            cand = (acc, -k, -pos)
            if best is None or cand > best:
                best, best_pred = cand, pred
        curves[ranking.method] = curve
    acc, neg_k, neg_pos = best
    return DimSweepResult(
        best_method=rankings[-neg_pos].method,
        best_k=-neg_k,
        cv_accuracy=acc,
        curves=curves,
        oof_labels=best_pred,
    )


def select_best_model(candidates, train, folds, grids, seed=0):
    candidates = list(candidates)  # a generator would be spent before the count below
    if not candidates:
        raise DataError("no candidate families")
    leaderboard = []
    best = None
    failures = 0
    for family in candidates:
        grid = grids.get(family, DEFAULT_GRIDS.get(family))
        if grid is None:
            raise DataError(f"no grid for family {family!r}")
        result = sweep_parameters(family, grid, train, folds, seed=seed)
        ok = any(not row["note"] for row in result.table)
        failures += not ok
        leaderboard.append({
            "family": family,
            "cv_accuracy": result.cv_accuracy,
            "best_point": dict(result.best_spec.hyperparameters),
            "table": result.table,
        })
        key = (round(result.cv_accuracy, 4), -FAMILIES[family].complexity)
        if best is None or key > best[0] or (
            key == best[0] and result.cv_accuracy > best[1].cv_accuracy
        ):
            best = (key, result)
    if failures == len(candidates):
        raise DataError("every candidate family failed to fit")
    return best[1], leaderboard
