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

Fold jobs: each sweep hands all of its (grid point or new prefix, fold)
fits to ``_fold_values`` as one batch.  When a second core is free (the
rule the LS-SVM factor lanes follow, ``second_core_free``) and two fits of
the batch's family fit in physical memory at once (its record's
``fit_bytes``), one forked helper process takes jobs from the same queue as
the caller.  Values are gathered by job number, so tables, curves and
out-of-fold labels have the bits of the serial loop, and a point's note is
that of its first failing fold.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
import traceback
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import Dataset, DataError
from .models import FAMILIES, ModelError, ModelSpec, fit_model
from .models.base import physical_memory_bytes, second_core_free
from .models.ova import refuse_missing_class
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
    (argmax, so threshold 0.5 for binary tasks): one spec's fold jobs."""
    return _pooled(_fold_values([(spec, None)], train, folds)[0], folds)


def cv_accuracy(spec: ModelSpec, train: Dataset, folds: FoldPlan
                ) -> tuple[float, list[float]]:
    """Mean held-out accuracy over folds, and the per-fold accuracies."""
    accs, _ = cross_validate(spec, train, folds)
    return float(np.mean(accs)), accs


# What a fit may raise on data it cannot handle.  Anything else is a
# programming error and must propagate (the CLI exits with 3), not be scored
# as a losing grid point.
_FIT_FAILURES = (ModelError, DataError, np.linalg.LinAlgError, FloatingPointError)


def _fold_values(cases: list, train: Dataset, folds: FoldPlan) -> list[list]:
    """Each ``(spec, view)`` case's ``_fold_fit`` values on ``train``, in
    fold order, from one ``_run_jobs`` batch bounded by its families'
    ``fit_bytes``.  A one-row validation fold cannot be scored as a
    Dataset, so a plan with one is refused before any fit."""
    splits = list(folds.folds())
    for k, (_, val_rows) in enumerate(splits):
        if len(val_rows) < 2:
            raise DataError(f"validation fold {k} holds one row, {val_rows.tolist()}; "
                            "every fold needs at least 2 rows")
    fit_bytes = max((FAMILIES[spec.family].fit_bytes(train.n_samples) for spec, _ in cases),
                    default=0)
    values = _run_jobs([partial(_fold_fit, spec, view, train, *s)
                        for spec, view in cases for s in splits], fit_bytes)
    return [values[i:i + len(splits)] for i in range(0, len(values), len(splits))]


# Job numbers are 4 bytes; a pipe holds at least one 4096-byte page, so a
# batch of this many is queued whole before the helper starts.
_QUEUE_JOBS = 1024


def _value(job):
    """What ``job()`` returns, or the typed fit failure it raises."""
    try:
        return job()
    except _FIT_FAILURES as exc:
        return exc


def _take(queue: int) -> int | None:
    """The next job number in the queue pipe; None once it is empty."""
    word = os.read(queue, 4)  # every reader takes whole 4-byte words
    return int.from_bytes(word, "little") if word else None


def _run_jobs(jobs: list, fit_bytes: int = 0) -> list:
    """Each job's ``_value``, in job order.

    The jobs run in this process alone unless a second core is free
    (``second_core_free``, the rule of the LS-SVM lanes), this process runs
    one thread, so that forking it is safe, and two fits that each hold
    ``fit_bytes``, one per process, fit in physical memory.  Then each
    batch of at least two jobs is shared with one forked helper process
    (``_share_with_helper``).  The values do not depend on which process
    ran a job."""
    if not (hasattr(os, "fork") and second_core_free() and threading.active_count() == 1
            and 2 * fit_bytes <= physical_memory_bytes()):
        return [_value(job) for job in jobs]
    return [value for start in range(0, len(jobs), _QUEUE_JOBS)
            for value in _share_with_helper(jobs[start:start + _QUEUE_JOBS])]


def _share_with_helper(jobs: list) -> list:
    """Run ``jobs`` on this process and one forked helper; each job's
    ``_value``, in job order.

    Both processes take job numbers from one pipe, preloaded and closed
    for writing before the fork, so a slow fit delays only the process
    that runs it.  The helper sends its values when the queue is empty;
    an exception that stopped it is raised here, and a helper that dies
    without sending is a ``RuntimeError`` naming its exit status.  The
    helper is killed if still running and always reaped before this
    returns or raises, an interrupt included."""
    if len(jobs) < 2:
        return [_value(job) for job in jobs]
    values = [None] * len(jobs)
    queue, queue_in = os.pipe()
    os.write(queue_in, b"".join(i.to_bytes(4, "little") for i in range(len(jobs))))
    os.close(queue_in)
    results, results_in = os.pipe()
    parent = os.getpid()
    helper = None
    try:
        helper = os.fork()
        if helper == 0:
            _helper(jobs, queue, results_in, parent)  # never returns
        os.close(results_in)
        results_in = None
        while (i := _take(queue)) is not None:
            values[i] = _value(jobs[i])
        message = b"".join(iter(lambda: os.read(results, 1 << 16), b""))
        code = os.waitstatus_to_exitcode(os.waitpid(helper, 0)[1])
        helper = None
    finally:
        if helper:
            os.kill(helper, signal.SIGKILL)
            os.waitpid(helper, 0)
        for fd in (queue, results, results_in):
            if fd is not None:
                os.close(fd)
    if code != 0:
        raise RuntimeError(f"the fold helper ended with exit status {code} (a negative "
                           "status is the signal that killed it) before sending its values")
    kind, *payload = pickle.loads(message)  # written by the helper above
    if kind == "error":
        exc, trace = payload
        raise exc from RuntimeError(f"raised in the fold helper:\n{trace}")
    for i, value in payload[0].items():
        values[i] = value
    return values


def _helper(jobs: list, queue: int, out: int, parent: int) -> None:
    """The forked helper's whole life: take jobs from ``queue`` until it is
    empty or the parent is gone, write its values by job number (or the
    exception that stopped it) to ``out``, pickled, and exit with status 0
    once they are written whole, else 1.  It never returns to the caller's
    stack."""
    code = 1
    try:
        try:
            done = {}
            while os.getppid() == parent and (i := _take(queue)) is not None:
                done[i] = _value(jobs[i])
            message = pickle.dumps(("values", done))
        except BaseException as exc:  # an interrupt too: the parent raises it
            trace = traceback.format_exc()
            try:
                message = pickle.dumps(("error", exc, trace))
            except Exception:  # an exception that cannot be pickled
                message = pickle.dumps(("error", RuntimeError(repr(exc)), trace))
        view = memoryview(message)
        while view:
            view = view[os.write(out, view):]
        code = 0
    finally:
        os._exit(code)


def _fold_fit(spec: ModelSpec, view, data: Dataset, fit_rows: np.ndarray,
              val_rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Fit ``spec`` on one fold's fit rows of ``view(data)``, made in the
    job so no batch holds every view (``data`` if ``view`` is None): the
    held-out accuracy and labels (argmax, so threshold 0.5 if binary)."""
    if view is not None:
        data = view(data)
    model = fit_model(spec, data.restrict_rows(fit_rows))
    pred = model.predict_labels(data.restrict_rows(val_rows))
    return float(np.mean(pred == data.labels[val_rows])), pred


def _pooled(values: list, folds: FoldPlan) -> tuple[list[float], np.ndarray]:
    """One case's per-fold accuracies and pooled out-of-fold labels from
    its fold values; the first failure in fold order is raised."""
    pred = np.empty(len(folds.assignments), dtype=int)
    accs = []
    for k, value in enumerate(values):
        if isinstance(value, BaseException):
            raise value
        accs.append(value[0])
        pred[folds.assignments == k] = value[1]
    return accs, pred


def _missing_class(family: str, train: Dataset, folds: FoldPlan) -> DataError | None:
    """For a one-vs-all family, the failure of the first fold whose fit
    rows lack a class, found without a fit; None if every fold has all."""
    if FAMILIES[family].ova_base is not None:
        for fit_rows, _ in folds.folds():
            try:
                refuse_missing_class(np.bincount(train.labels[fit_rows],
                                                 minlength=train.n_classes))
            except DataError as exc:
                return exc
    return None


def sweep_parameters(family: str, grid: dict[str, list], train: Dataset,
                     folds: FoldPlan, seed: int = 0) -> SweepResult:
    """Exhaustive Cartesian sweep; best point by mean validation accuracy.

    Every (grid point, fold) fit is one job of one batch (``_fold_values``).
    A point whose fold fails scores 0 with the note of its first failing
    fold; a one-vs-all family with a fold that lacks a class fits nothing."""
    if not grid or any(len(values) == 0 for values in grid.values()):
        raise DataError("empty hyperparameter grid")
    points = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    specs = [_resolve_spec(family, point, train.n_features, seed) for point in points]
    doomed = _missing_class(family, train, folds)
    values = _fold_values([] if doomed else [(spec, None) for spec in specs], train, folds)
    table = []
    for p, point in enumerate(points):
        failure = doomed or next((v for v in values[p] if isinstance(v, BaseException)), None)
        if failure is None:
            fold_accs = [acc for acc, _ in values[p]]
            mean_acc, note = float(np.mean(fold_accs)), ""
        else:  # record the failure, keep sweeping
            mean_acc, fold_accs, note = 0.0, [], f"fit failed: {failure}"
            warnings.warn(f"{family} grid point {point}: {note}")
        table.append({
            "point": point,
            "mean_accuracy": mean_acc,
            "fold_accuracies": fold_accs,
            "note": note,
        })
    best = max(range(len(table)), key=lambda i: table[i]["mean_accuracy"])
    return SweepResult(specs[best], table[best]["mean_accuracy"], table)


def dimensionality_sweep(best_spec: ModelSpec, train: Dataset, folds: FoldPlan,
                         rankings: list[RankedFeatures]) -> DimSweepResult:
    """Refit the selected spec on top-k subsets for k = 1..d per ranking.

    The best (method, k) maximizes mean CV accuracy, and its out-of-fold
    labels are kept.  A prefix seen for an earlier method reuses that
    accuracy and cannot win: the tie rule prefers the earlier method.
    Every (new prefix, fold) fit is one job of one batch (``_fold_values``);
    a typed fit failure is raised, the first in prefix then fold order.
    """
    d = train.n_features
    firsts: dict[tuple[int, ...], tuple[int, int]] = {}  # prefix -> (k, method position)
    for pos, ranking in enumerate(rankings):
        for k in range(1, d + 1):
            firsts.setdefault(tuple(ranking.order[:k].tolist()), (k, pos))
    values = _fold_values([(best_spec, partial(project_top_k, ranking=rankings[pos], k=k))
                           for k, pos in firsts.values()], train, folds)
    prefix_acc: dict[tuple[int, ...], float] = {}
    points = []  # (acc, k, method position, out-of-fold labels), one per prefix
    for fold_values, (cols, (k, pos)) in zip(values, firsts.items()):
        accs, pred = _pooled(fold_values, folds)
        prefix_acc[cols] = float(np.mean(accs))
        points.append((prefix_acc[cols], k, pos, pred))
    curves: dict[str, list[float]] = {}
    for ranking in rankings:
        curves[ranking.method] = [prefix_acc[tuple(ranking.order[:k].tolist())]
                                  for k in range(1, d + 1)]
    acc, k, pos, pred = max(points, key=lambda p: (p[0], -p[1], -p[2]))
    return DimSweepResult(rankings[pos].method, k, acc, curves, oof_labels=pred)
