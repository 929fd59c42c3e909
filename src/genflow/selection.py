"""Interleaved k-fold construction, hyperparameter grid sweeps, and the
top-k dimensionality sweep.

Fold rule: after one seeded shuffle of the training rows, the sample at
shuffled position j validates in fold j mod fold_count, so every fifth
sample (for the default 5 folds) lands in the same validation set.  The
positional variant (no shuffle) is available for strict fidelity to
pre-shuffled inputs.

Tie rules: a grid sweep keeps the earlier grid point; the dimensionality
sweep prefers smaller k, then the earlier-listed method; Decision 2
(``flow.select_best_model``) ranks families by accuracy rounded to 4
places, then simpler family, then exact accuracy, then the earlier family.
A top-k prefix shared by several rankings is cross-validated once; the
curves stay per method.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, DataError
from .models import ModelError, ModelSpec, fit_model
from .ranking import RankedFeatures, project_top_k

__all__ = [
    "FoldPlan",
    "SweepResult",
    "DimSweepResult",
    "make_interleaved_folds",
    "sweep_parameters",
    "dimensionality_sweep",
    "cv_accuracy",
    "cross_validate",
]


@dataclass(frozen=True)
class FoldPlan:
    """Validation-fold id per training row (in original row order)."""

    fold_count: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=int)
        if self.fold_count < 2:
            raise DataError(f"fold_count must be >= 2, got {self.fold_count}")
        sizes = np.bincount(a, minlength=self.fold_count)
        if len(sizes) != self.fold_count or (sizes == 0).any():
            raise DataError("every fold must be nonempty")
        object.__setattr__(self, "assignments", a)

    def folds(self):
        for k in range(self.fold_count):
            val = np.flatnonzero(self.assignments == k)
            fit = np.flatnonzero(self.assignments != k)
            yield fit, val


@dataclass
class SweepResult:
    best_spec: ModelSpec
    cv_accuracy: float
    table: list[dict] = field(default_factory=list)  # one row per grid point


@dataclass
class DimSweepResult:
    best_method: str
    best_k: int
    cv_accuracy: float
    curves: dict[str, list[float]] = field(default_factory=dict)
    # Pooled out-of-fold labels of the winning (method, k), one per train row.
    oof_labels: np.ndarray | None = field(default=None, compare=False, repr=False)


def make_interleaved_folds(train: Dataset, fold_count: int = 5, seed: int = 0,
                           positional: bool = False) -> FoldPlan:
    """Fold id = shuffled position mod fold_count."""
    n = train.n_samples
    if fold_count > n:
        raise DataError(f"fold_count {fold_count} exceeds {n} training rows")
    positions = np.arange(n) if positional else np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=int)
    assignments[positions] = np.arange(n) % fold_count
    return FoldPlan(fold_count, assignments)


def _resolve_spec(family: str, point: dict, d: int, seed: int) -> ModelSpec:
    params = dict(point)
    if "kernel_gamma_scale" in params:
        params["kernel_gamma"] = params.pop("kernel_gamma_scale") / d
    return ModelSpec(family, params, seed=seed)


def cross_validate(spec: ModelSpec, train: Dataset, folds: FoldPlan
                   ) -> tuple[list[float], np.ndarray]:
    """Per-fold held-out accuracies and the pooled out-of-fold labels
    (argmax, so threshold 0.5 for binary tasks)."""
    pred = np.empty(train.n_samples, dtype=int)
    accs = []
    for fit_rows, val_rows in folds.folds():
        model = fit_model(spec, train.restrict_rows(fit_rows))
        pred[val_rows] = model.predict_labels(train.restrict_rows(val_rows))
        accs.append(float(np.mean(pred[val_rows] == train.labels[val_rows])))
    return accs, pred


def cv_accuracy(spec: ModelSpec, train: Dataset, folds: FoldPlan
                ) -> tuple[float, list[float]]:
    """Mean held-out accuracy over folds, and the per-fold accuracies."""
    accs, _ = cross_validate(spec, train, folds)
    return float(np.mean(accs)), accs


# What a fit may raise on data it cannot handle.  Anything else is a
# programming error and must propagate (the CLI exits with 3), not be scored
# as a losing grid point.
_FIT_FAILURES = (ModelError, DataError, np.linalg.LinAlgError, FloatingPointError)


def _refuse_one_row_folds(folds: FoldPlan) -> None:
    """A one-row validation fold cannot be scored as a Dataset, so every
    fit of a sweep over it would fail: refuse the plan before any fit."""
    for k, (_, val_rows) in enumerate(folds.folds()):
        if len(val_rows) < 2:
            raise DataError(f"validation fold {k} holds one row, {val_rows.tolist()}; "
                            "every fold needs at least 2 rows")


def sweep_parameters(family: str, grid: dict[str, list], train: Dataset,
                     folds: FoldPlan, seed: int = 0) -> SweepResult:
    """Exhaustive Cartesian sweep; best point by mean validation accuracy."""
    if not grid or any(len(values) == 0 for values in grid.values()):
        raise DataError("empty hyperparameter grid")
    _refuse_one_row_folds(folds)
    table, specs = [], []
    for values in itertools.product(*grid.values()):
        point = dict(zip(grid, values))
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
        specs.append(spec)
    best = max(range(len(table)), key=lambda i: table[i]["mean_accuracy"])
    return SweepResult(specs[best], table[best]["mean_accuracy"], table)


def dimensionality_sweep(best_spec: ModelSpec, train: Dataset, folds: FoldPlan,
                         rankings: list[RankedFeatures]) -> DimSweepResult:
    """Refit the selected spec on top-k subsets for k = 1..d per ranking.

    The best (method, k) maximizes mean CV accuracy, and its out-of-fold
    labels are kept.  A prefix seen for an earlier method reuses that
    accuracy and cannot win: the tie rule prefers the earlier method.
    """
    _refuse_one_row_folds(folds)
    d = train.n_features
    prefix_acc: dict[tuple[int, ...], float] = {}
    points = []  # (acc, k, method position, out-of-fold labels), one per prefix
    curves: dict[str, list[float]] = {}
    for pos, ranking in enumerate(rankings):
        curves[ranking.method] = curve = []
        for k in range(1, d + 1):
            cols = tuple(ranking.order[:k].tolist())
            if cols not in prefix_acc:
                accs, pred = cross_validate(best_spec, project_top_k(train, ranking, k),
                                            folds)
                prefix_acc[cols] = float(np.mean(accs))
                points.append((prefix_acc[cols], k, pos, pred))
            curve.append(prefix_acc[cols])
    acc, k, pos, pred = max(points, key=lambda p: (p[0], -p[1], -p[2]))
    return DimSweepResult(rankings[pos].method, k, acc, curves, oof_labels=pred)
