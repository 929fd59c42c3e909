"""End-to-end orchestration: route the dataset (binary vs multi-class),
select the best model by cross-validated sweeps, reduce dimensionality,
decide between flat multi-class and hierarchical binary classification,
and assemble the final report structure.

Each task (the flat run or one hierarchy level) takes one path: family
sweep, one ranking pass, dimensionality sweep, whose winning fits give the
out-of-fold metrics.  One list of tasks, each with its training and test
split, drives the flow from the refusals to final scoring.  Hierarchy levels
are binarized on both splits before any fit (an empty or one-sided level is
a DataError); a task with fewer than two training rows per fold, a task
that no requested family applies to, or a swept family with no grid in the
config is a DataError at the same point.

Decision 3 (flat vs hierarchical) is evaluated on out-of-fold training
predictions so that the test split influences nothing before the final
scoring stage; the test metrics of the chosen route are then reported.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset, DataError, stratified_split
from .metrics import (
    EvalMetrics,
    averaged_metrics,
    confusion_counts,
    randomized_recall,
    roc_and_auc,
)
from .models import (
    BINARY_FAMILIES,
    FAMILIES,
    MULTICLASS_FAMILIES,
    ModelSpec,
    TrainedModel,
    fit_model,
)
from .models.base import physical_memory_bytes
from .ranking import (
    RANKING_METHODS,
    RankedFeatures,
    chi_squared,
    fisher_score,
    mrmr_rank,
    mutual_information,
    peak_bytes as ranking_peak_bytes,
    project_top_k,
)
from .selection import (
    DimSweepResult,
    FoldPlan,
    SweepResult,
    dimensionality_sweep,
    make_interleaved_folds,
    sweep_parameters,
)

__all__ = [
    "FlowConfig",
    "HierarchyLevel",
    "HierarchySpec",
    "TaskResult",
    "FlowReport",
    "decision_route",
    "select_best_model",
    "combine_level_metrics",
    "decision_hierarchy",
    "run_flow",
    "load_hierarchy_spec",
    "file_stem",
]

# Ranking method -> scorer(train, bin_count); names are looked up per call.
_RANKERS = {
    "fisher": lambda train, bins: fisher_score(train),
    "mutual_info": lambda train, bins: mutual_information(train, bins),
    "chi_squared": lambda train, bins: chi_squared(train, bins),
    "mrmr": lambda train, bins: mrmr_rank(train, bins),
}


@dataclass
class FlowConfig:
    train_fraction: float = 0.30
    fold_count: int = 5
    seed: int = 0
    candidate_families: tuple[str, ...] | None = None  # None = all applicable
    grids: dict = field(default_factory=lambda: copy.deepcopy(  # not the registry's own
        {n: f.grid for n, f in FAMILIES.items()}))
    ranking_methods: tuple[str, ...] = RANKING_METHODS
    bin_count: int = 10
    hierarchy: "HierarchySpec | None" = None
    decision3_metric: str = "recall"  # or "accuracy"
    folds_positional: bool = False

    def __post_init__(self):  # misspelled names and bad values fail before the split
        for kind, names, known in (
                ("model families", self.candidate_families or (), FAMILIES),
                ("ranking methods", self.ranking_methods, _RANKERS),
                ("Decision 3 metrics", (self.decision3_metric,), ("accuracy", "recall"))):
            if unknown := [n for n in names if n not in known]:
                raise DataError(f"unknown {kind} {unknown}; known: {sorted(known)}")
            if repeated := sorted({n for n in names if names.count(n) > 1}):
                raise DataError(f"duplicate {kind} {repeated}")
        if not self.ranking_methods:  # the dimensionality sweep needs a ranking
            raise DataError("no ranking methods")
        if self.bin_count < 2:  # the binned rankers need two bins
            raise DataError(f"bin_count must be >= 2, got {self.bin_count}")
        if self.fold_count < 2:  # one fold leaves nothing to fit on
            raise DataError(f"fold_count must be >= 2, got {self.fold_count}")
        if self.seed < 0:  # NumPy seeds are non-negative
            raise DataError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "train_fraction": self.train_fraction,
            "fold_count": self.fold_count,
            "seed": self.seed,
            "candidate_families": list(self.candidate_families)
            if self.candidate_families else None,
            "grids": copy.deepcopy(self.grids),  # never the registry's own lists
            "ranking_methods": list(self.ranking_methods),
            "bin_count": self.bin_count,
            "hierarchy": self.hierarchy.to_list() if self.hierarchy else None,
            "decision3_metric": self.decision3_metric,
            "folds_positional": self.folds_positional,
        }


@dataclass(frozen=True)
class HierarchyLevel:
    name: str
    positive: tuple[int, ...]
    negative: tuple[int, ...]

    def __post_init__(self):
        if not self.positive or not self.negative:
            raise DataError(f"hierarchy level {self.name!r}: empty label set")
        if set(self.positive) & set(self.negative):
            raise DataError(f"hierarchy level {self.name!r}: overlapping label sets")


def file_stem(task_name: str) -> str:
    """The stem of a task's bundle file names: each character that is not
    alphanumeric becomes ``_``."""
    return "".join(c if c.isalnum() else "_" for c in task_name)


# File systems cap a file name at 255 bytes.  A level's longest bundle file
# name is dimsweep_hierarchy_<stem>_<method>.csv, so this caps its stem.
MAX_LEVEL_STEM_BYTES = 255 - len("dimsweep_hierarchy__.csv") - max(map(len, _RANKERS))


@dataclass(frozen=True)
class HierarchySpec:
    levels: tuple[HierarchyLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise DataError("a hierarchy needs at least one level")
        # A level's files are named by file_stem("hierarchy:" + name), which maps
        # each character alone, so levels collide exactly when their names' stems do.
        stems = [file_stem(lv.name) for lv in self.levels]
        if clash := [lv.name for lv, s in zip(self.levels, stems) if stems.count(s) > 1]:
            raise DataError(f"hierarchy levels {clash} would write the same bundle "
                            "files; give each level a name of its own")
        # isalnum keeps non-ASCII letters, so a stem is measured in the bytes
        # of the file-system encoding, which must hold it.
        for lv, s in zip(self.levels, stems):
            try:
                size = len(os.fsencode(s))
            except UnicodeEncodeError as exc:
                raise DataError(
                    f"hierarchy level {lv.name!r} names bundle files with "
                    f"{exc.object[exc.start:exc.end]!r}, which the file-system encoding "
                    f"{sys.getfilesystemencoding()} cannot hold; rename the level or "
                    "run under a UTF-8 locale") from None
            if size > MAX_LEVEL_STEM_BYTES:
                raise DataError(f"hierarchy level {lv.name[:40]!r}... names bundle files "
                                f"over 255 bytes: its file stem is {size} bytes, at most "
                                f"{MAX_LEVEL_STEM_BYTES} fit")

    def validate_for(self, n_classes: int) -> None:
        for lv in self.levels:
            bad = [c for c in lv.positive + lv.negative if not 0 <= c < n_classes]
            if bad:
                raise DataError(
                    f"hierarchy level {lv.name!r}: labels {bad} out of range "
                    f"for C={n_classes}"
                )

    def to_list(self) -> list[dict]:
        return [
            {"name": lv.name, "positive": list(lv.positive),
             "negative": list(lv.negative)}
            for lv in self.levels
        ]


def load_hierarchy_spec(path) -> HierarchySpec:
    """Hierarchy file: a JSON list of {name, positive: [ids], negative: [ids]}."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open hierarchy file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid hierarchy document: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise DataError(f"{path}: hierarchy must be a nonempty list of levels")
    levels = []
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict):
            raise DataError(f"{path}: bad level record {i}: expected a JSON object, "
                            f"got {rec!r}")
        name = str(rec.get("name", f"level {i + 1}"))
        sides = [rec.get("positive"), rec.get("negative")]
        if not all(isinstance(s, list) and all(type(c) is int for c in s) for s in sides):
            raise DataError(f"{path}: bad level record {i}, level {name!r}: 'positive'"
                            " and 'negative' must be lists of integer class ids, "
                            f"got {sides}")
        levels.append(HierarchyLevel(name, *map(tuple, sides)))
    return HierarchySpec(tuple(levels))


@dataclass
class TaskResult:
    """Everything learned about one classification task (flat run or one
    hierarchy level)."""

    name: str
    sweep: SweepResult
    leaderboard: list[dict]
    dim: DimSweepResult
    ranking: RankedFeatures  # the ranking of the chosen (method, k)
    chosen_spec: ModelSpec
    cv_metrics: EvalMetrics
    test_metrics: EvalMetrics | None = None
    model: TrainedModel | None = None
    roc: EvalMetrics | None = None


@dataclass
class FlowReport:
    route: str
    config: dict
    source_id: str
    class_names: tuple[str, ...]
    flat: TaskResult | None = None
    levels: list[TaskResult] = field(default_factory=list)
    combined: dict | None = None          # hierarchical combined test metrics
    combined_cv: dict | None = None       # combined out-of-fold metrics
    baseline: float | None = None
    decision_trail: list[dict] = field(default_factory=list)
    advisories: list[str] = field(default_factory=list)

    def tasks(self) -> list[TaskResult]:
        """The flat task (once set), then the hierarchy levels."""
        return ([self.flat] if self.flat else []) + self.levels


def decision_route(data: Dataset) -> str:
    return "binary" if data.n_classes == 2 else "multiclass"


def select_best_model(candidates, train: Dataset, folds: FoldPlan, grids,
                      seed: int = 0) -> tuple[SweepResult, list[dict]]:
    """Decision 2: sweep every candidate family, keep the best.

    Families tied to 4 decimal places resolve by model complexity
    (simpler wins).
    """
    candidates = list(candidates)  # a generator would be spent by the loop below
    if not candidates:
        raise DataError("no candidate families")
    results = []
    for family in candidates:
        results.append(sweep_parameters(family, grids[family], train, folds, seed=seed))
    if all(row["note"] for result in results for row in result.table):
        raise DataError("every candidate family failed to fit")
    leaderboard = [{
        "family": family,
        "cv_accuracy": result.cv_accuracy,
        "best_point": dict(result.best_spec.hyperparameters),
        "table": result.table,
    } for family, result in zip(candidates, results)]
    best = max(results, key=lambda r: (round(r.cv_accuracy, 4),
                                       -FAMILIES[r.best_spec.family].complexity,
                                       r.cv_accuracy))
    return best, leaderboard


def _route_families(config: FlowConfig, route: str) -> tuple[list[str], list[str]]:
    """The families swept on the flat task and on each hierarchy level: the
    requested ones that apply, else the route's defaults, in order.  A level
    and a binary route's flat task take those in ``BINARY_FAMILIES``; a
    multi-class flat task takes any family whose record is not
    ``binary_only``."""
    requested = config.candidate_families
    levels = [f for f in requested or BINARY_FAMILIES if f in BINARY_FAMILIES]
    flat = [f for f in requested or MULTICLASS_FAMILIES if not FAMILIES[f].binary_only]
    return (levels if route == "binary" else flat), levels


def _swept_families(config: FlowConfig, route: str) -> set[str]:
    """The families the run sweeps: the flat task's, plus the levels' with a hierarchy."""
    flat, levels = _route_families(config, route)
    return {*flat, *(levels if config.hierarchy else ())}


def _run_task(name: str, train: Dataset, candidates, config: FlowConfig,
              trail: list[dict]) -> TaskResult:
    """Decision 2, one ranking pass and the dimensionality sweep for one
    task; its out-of-fold metrics pool the sweep's winning fits."""
    folds = make_interleaved_folds(train, config.fold_count, config.seed,
                                   positional=config.folds_positional)
    sweep, leaderboard = select_best_model(candidates, train, folds,
                                           config.grids, seed=config.seed)
    trail.append({
        "stage": f"decision2:{name}",
        "inputs": {"candidates": list(candidates),
                   "leaderboard": [
                       {"family": e["family"], "cv_accuracy": e["cv_accuracy"]}
                       for e in leaderboard
                   ]},
        "outcome": {"family": sweep.best_spec.family,
                    "hyperparameters": dict(sweep.best_spec.hyperparameters),
                    "cv_accuracy": sweep.cv_accuracy},
    })
    rankings = compute_rankings(train, config)
    dim = dimensionality_sweep(sweep.best_spec, train, folds, rankings)
    trail.append({
        "stage": f"dimensionality:{name}",
        "inputs": {"methods": [r.method for r in rankings]},
        "outcome": {"method": dim.best_method, "k": dim.best_k,
                    "cv_accuracy": dim.cv_accuracy},
    })
    return TaskResult(
        name=name,
        sweep=sweep,
        leaderboard=leaderboard,
        dim=dim,
        ranking=next(r for r in rankings if r.method == dim.best_method),
        chosen_spec=sweep.best_spec,
        cv_metrics=averaged_metrics(confusion_counts(
            train.labels, dim.oof_labels, n_classes=train.n_classes)),
    )


def compute_rankings(train: Dataset, config: FlowConfig) -> list[RankedFeatures]:
    return [_RANKERS[method](train, config.bin_count)
            for method in config.ranking_methods]


def _final_score(task: TaskResult, train: Dataset, test: Dataset) -> None:
    """Fit the chosen configuration on the full training split and score
    the test split.  The only stage that reads test features."""
    reduced_train = project_top_k(train, task.ranking, task.dim.best_k)
    reduced_test = project_top_k(test, task.ranking, task.dim.best_k)
    model = fit_model(task.chosen_spec, reduced_train)
    scores = model.predict_scores(reduced_test)
    pred = np.argmax(scores, axis=1)
    counts = confusion_counts(test.labels, pred, n_classes=test.n_classes)
    task.test_metrics = averaged_metrics(counts)
    task.model = model
    if test.n_classes == 2:
        task.roc = roc_and_auc(scores[:, 1], test.labels)
        task.test_metrics.auc = task.roc.auc


def _binarize_level(data: Dataset, level: HierarchyLevel) -> Dataset:
    keep = np.isin(data.labels, level.positive + level.negative)
    if not keep.any():
        raise DataError(f"hierarchy level {level.name!r}: no samples")
    sub = data.restrict_rows(np.flatnonzero(keep), f"#{level.name}")
    labels = np.isin(sub.labels, level.positive).astype(int)
    if labels.min() == labels.max():
        raise DataError(f"hierarchy level {level.name!r}: one side is empty")
    neg = ",".join(str(c) for c in level.negative)
    pos = ",".join(str(c) for c in level.positive)
    return replace(sub, labels=labels, class_names=(f"classes {neg}", f"classes {pos}"))


def combine_level_metrics(per_level: list[EvalMetrics]) -> dict:
    """Unweighted mean of per-level accuracy / precision / recall.

    Per-level values are the binary (positive-class) metrics of each
    hierarchy level.
    """
    if not per_level:
        raise DataError("no hierarchy levels to combine")
    return {name: float(np.mean([getattr(m, name)[1] for m in per_level]))
            for name in ("accuracy", "precision", "recall")}


def _decision3_value(metrics: EvalMetrics, metric: str) -> float:
    return metrics.macro_recall if metric == "recall" else metrics.macro_accuracy


def decision_hierarchy(flat_metrics: EvalMetrics, baseline: float,
                       hierarchical: dict | None,
                       metric: str = "recall") -> tuple[str, dict]:
    """Decision 3: keep the flat route iff it beats the randomized
    baseline; otherwise prefer the hierarchy when it scores higher."""
    flat_value = _decision3_value(flat_metrics, metric)
    detail = {"metric": metric, "flat": flat_value, "baseline": baseline}
    if flat_value >= baseline:
        detail["reason"] = "flat beats randomized baseline"
        return "multiclass_flat", detail
    if hierarchical is None:
        detail["reason"] = "flat below baseline but no hierarchy supplied"
        detail["advisory"] = "hierarchy recommended"
        return "multiclass_flat", detail
    hier_value = hierarchical[metric]
    detail["hierarchical"] = hier_value
    if hier_value > flat_value:
        detail["reason"] = "hierarchical route scores higher"
        return "multiclass_hierarchical", detail
    detail["reason"] = "flat route scores higher than hierarchy"
    return "multiclass_flat", detail


def _refuse_oversized(config: FlowConfig, route: str, n_train: int, n_classes: int) -> None:
    """Refuse, before any fit, a run whose LS-SVM system or binned-ranker
    tables would not fit in physical memory.  Each layer owns its estimate:
    a family record's ``fit_bytes`` (``lssvm.peak_bytes`` for the LS-SVM
    families, 0 for the others) and ``ranking.peak_bytes``.  The fit's is
    for the final refit on the whole training split, which bounds every
    fold and level fit; test rows are scored in chunks and do not enter it."""
    available = physical_memory_bytes()
    kernel_bytes = max((FAMILIES[f].fit_bytes(n_train) for f in _swept_families(config, route)),
                       default=0)
    if kernel_bytes > available:
        raise DataError(
            f"the LS-SVM families need about {kernel_bytes / 2**30:.2f} GiB to fit "
            f"{n_train} training rows, more than the "
            f"{available / 2**30:.1f} GiB of physical memory; drop lssvm/ova_svm "
            "from --families or lower --train-fraction")
    estimate = ranking_peak_bytes(config.ranking_methods, config.bin_count, n_classes)
    if estimate > available:
        raise DataError(
            f"the binned rankers need about {estimate / 2**30:.2f} GiB for "
            f"{config.bin_count} bins, more than the {available / 2**30:.1f} GiB "
            "of physical memory; lower --bin-count or pass --rankers fisher")


def _refuse_overflowing(data: Dataset) -> None:
    """Refuse a feature that reaches max|x| >= 2**511 / sqrt(n) on the n
    loaded rows: a sum of n squares at that size, as in standardization
    and Fisher's variances, can overflow.  The column extremes come from
    max and min, so no |X| copy is made."""
    bound = 2.0**511 / np.sqrt(data.n_samples)
    top = np.maximum(data.features.max(axis=0), -data.features.min(axis=0))
    if (over := np.flatnonzero(top >= bound)).size:
        name, size = data.feature_names[over[0]], top[over[0]]
        raise DataError(f"feature {name!r} reaches magnitude {size:.6g}, at or above "
                        f"2**511/sqrt(n) = {bound:.6g} for n = {data.n_samples} rows, "
                        "where its sum of squares can overflow; rescale it")


def run_flow(data: Dataset, config: FlowConfig) -> FlowReport:
    """Execute the whole pipeline on one dataset.  The returned report is
    complete: ``report_body`` of it is the body the bundle writes."""
    _refuse_overflowing(data)
    trail: list[dict] = []
    split = stratified_split(data, config.train_fraction, config.seed)
    route = decision_route(data)
    _refuse_oversized(config, route, split.train.n_samples, data.n_classes)
    trail.append({
        "stage": "split",
        "inputs": {"train_fraction": config.train_fraction, "seed": config.seed},
        "outcome": {"train_rows": split.train.n_samples,
                    "test_rows": split.test.n_samples},
    })
    trail.append({
        "stage": "decision1",
        "inputs": {"n_classes": data.n_classes},
        "outcome": {"route": route},
    })
    report = FlowReport(
        route=route,
        config=config.to_dict(),
        source_id=data.source_id,
        class_names=data.class_names,
        decision_trail=trail,
    )

    # One (name, train, test) per task: the flat task, then each level
    # binarized on both splits.  Before any fit, every task has two validation
    # rows per fold (one row cannot be a Dataset) and a family to sweep.
    flat_name = "binary" if route == "binary" else "multiclass_flat"
    tasks = [(flat_name, split.train, split.test)]
    if config.hierarchy is not None:
        config.hierarchy.validate_for(data.n_classes)
        tasks += [(f"hierarchy:{lv.name}", _binarize_level(split.train, lv),
                   _binarize_level(split.test, lv)) for lv in config.hierarchy.levels]
    for name, train, _ in tasks:
        if train.n_samples < 2 * config.fold_count:
            raise DataError(f"task {name!r} has {train.n_samples} training rows; "
                            f"fold_count {config.fold_count} needs at least "
                            f"{2 * config.fold_count}, two validation rows per fold")
    flat_families, level_families = _route_families(config, route)
    if not flat_families:
        raise DataError(f"none of the families {list(config.candidate_families)} "
                        f"applies to the {route} route")
    if config.hierarchy is not None and not level_families:
        raise DataError(f"none of the families {list(config.candidate_families)} "
                        "applies to the binary hierarchy levels")
    if ungridded := sorted(_swept_families(config, route) - config.grids.keys()):
        raise DataError(f"no grid for the swept families {ungridded}")

    report.flat = _run_task(flat_name, split.train, flat_families, config, trail)
    if route != "binary":
        report.baseline = randomized_recall(split.train.class_counts())
        flat_value = _decision3_value(report.flat.cv_metrics, config.decision3_metric)
        if flat_value < report.baseline and config.hierarchy is not None:
            # Each level trains on its ground-truth subset; predictions never
            # cascade between levels.
            report.levels = [_run_task(name, train, level_families, config, trail)
                             for name, train, _ in tasks[1:]]
            report.combined_cv = combine_level_metrics([t.cv_metrics for t in report.levels])
        report.route, detail = decision_hierarchy(report.flat.cv_metrics, report.baseline,
                                                  report.combined_cv, config.decision3_metric)
        trail.append({"stage": "decision3", "inputs": {}, "outcome": detail})
        if "advisory" in detail:
            report.advisories.append(detail["advisory"])
        if report.route == "multiclass_flat":  # the levels only informed Decision 3
            report.levels, report.combined_cv = [], None

    # Final scoring of the chosen route (first stage that reads test data).
    for task, (_, train, test) in zip(report.tasks(), tasks):
        _final_score(task, train, test)
        if task.roc is not None and not task.roc.roc:
            report.advisories.append(
                f"ROC plot skipped for {task.name}: {task.roc.degenerate_flags}")
    if report.levels:
        report.combined = combine_level_metrics([t.test_metrics for t in report.levels])
    return report
