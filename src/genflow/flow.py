"""End-to-end orchestration: route the dataset (binary vs multi-class),
select the best model by cross-validated sweeps, reduce dimensionality,
decide between flat multi-class and hierarchical binary classification,
and assemble the final report structure.

Each task (the flat run or one hierarchy level) takes one path: family
sweep, one ranking pass, dimensionality sweep, whose winning fits give the
out-of-fold metrics.  Hierarchy levels are binarized on both splits before
any fit (an empty or one-sided level is a DataError) and scored from there.

Decision 3 (flat vs hierarchical) is evaluated on out-of-fold training
predictions so that the test split influences nothing before the final
scoring stage; the test metrics of the chosen route are then reported.
"""

from __future__ import annotations

import json
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
from .ranking import (
    RANKING_METHODS,
    RankedFeatures,
    chi_squared,
    fisher_score,
    mrmr_rank,
    mutual_information,
    project_top_k,
)
from .selection import (
    DEFAULT_GRIDS,
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
    "evaluate_hierarchy",
    "combine_level_metrics",
    "decision_hierarchy",
    "run_flow",
    "load_hierarchy_spec",
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
    grids: dict = field(default_factory=lambda: DEFAULT_GRIDS)
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
        if self.bin_count < 2:  # the binned rankers need two bins
            raise DataError(f"bin_count must be >= 2, got {self.bin_count}")

    def to_dict(self) -> dict:
        return {
            "train_fraction": self.train_fraction,
            "fold_count": self.fold_count,
            "seed": self.seed,
            "candidate_families": list(self.candidate_families)
            if self.candidate_families else None,
            "grids": self.grids,
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


@dataclass(frozen=True)
class HierarchySpec:
    levels: tuple[HierarchyLevel, ...]

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
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open hierarchy file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid hierarchy document: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise DataError(f"{path}: hierarchy must be a nonempty list of levels")
    levels = []
    for i, rec in enumerate(doc):
        try:
            levels.append(HierarchyLevel(
                name=str(rec.get("name", f"level {i + 1}")),
                positive=tuple(int(c) for c in rec["positive"]),
                negative=tuple(int(c) for c in rec["negative"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad level record {i}: {exc}") from exc
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


def decision_route(data: Dataset) -> str:
    return "binary" if data.n_classes == 2 else "multiclass"


def select_best_model(candidates, train: Dataset, folds: FoldPlan, grids,
                      seed: int = 0) -> tuple[SweepResult, list[dict]]:
    """Decision 2: sweep every candidate family, keep the best.

    Families tied to 4 decimal places resolve by model complexity
    (simpler wins).
    """
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


def _candidates(config: FlowConfig, default: tuple, extra: tuple = ()) -> list[str]:
    """The requested families that apply to the route (all of ``default``
    if none were requested)."""
    return [f for f in config.candidate_families or default if f in default + extra]


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
        task.test_metrics.roc = task.roc.roc
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
    acc = [m.accuracy[1] if m.accuracy is not None else m.micro_accuracy
           for m in per_level]
    prec = [m.precision[1] for m in per_level]
    rec = [m.recall[1] for m in per_level]
    return {
        "accuracy": float(np.mean(acc)),
        "precision": float(np.mean(prec)),
        "recall": float(np.mean(rec)),
    }


def evaluate_hierarchy(levels: list[tuple[str, Dataset, Dataset]],
                       config: FlowConfig, trail: list[dict]
                       ) -> tuple[list[TaskResult], dict]:
    """Run the binary pipeline independently on each hierarchy level.

    ``levels`` holds the (name, train, test) datasets binarized up front by
    ``run_flow``; only train is read.  Returns (per-level task results,
    combined out-of-fold metrics).  Levels are trained on ground-truth
    subsets; predictions never cascade between levels.
    """
    candidates = _candidates(config, BINARY_FAMILIES)
    tasks = [_run_task(f"hierarchy:{name}", train, candidates, config, trail)
             for name, train, _ in levels]
    return tasks, combine_level_metrics([t.cv_metrics for t in tasks])


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


def run_flow(data: Dataset, config: FlowConfig) -> FlowReport:
    """Execute the whole pipeline on one dataset."""
    trail: list[dict] = []
    split = stratified_split(data, config.train_fraction, config.seed)
    trail.append({
        "stage": "split",
        "inputs": {"train_fraction": config.train_fraction, "seed": config.seed},
        "outcome": {"train_rows": split.train.n_samples,
                    "test_rows": split.test.n_samples},
    })
    route = decision_route(data)
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

    # Every hierarchy level is binarized on both splits before any fit.
    levels = []
    if config.hierarchy is not None:
        config.hierarchy.validate_for(data.n_classes)
        levels = [(lv.name, _binarize_level(split.train, lv),
                   _binarize_level(split.test, lv)) for lv in config.hierarchy.levels]
    if route == "binary":
        task = _run_task("binary", split.train, _candidates(config, BINARY_FAMILIES),
                         config, trail)
        _final_score(task, split.train, split.test)
        report.flat = task
        return report

    candidates = _candidates(config, MULTICLASS_FAMILIES, ("ova_logreg",))
    flat = _run_task("multiclass_flat", split.train, candidates, config, trail)
    baseline = randomized_recall(split.train.class_counts())
    report.baseline = baseline

    hierarchy_cv = None
    level_tasks: list[TaskResult] = []
    flat_value = _decision3_value(flat.cv_metrics, config.decision3_metric)
    if flat_value < baseline and config.hierarchy is not None:
        level_tasks, hierarchy_cv = evaluate_hierarchy(levels, config, trail)
    route, detail = decision_hierarchy(flat.cv_metrics, baseline,
                                       hierarchy_cv, config.decision3_metric)
    trail.append({"stage": "decision3", "inputs": {}, "outcome": detail})
    if "advisory" in detail:
        report.advisories.append(detail["advisory"])
    report.route = route

    # Final scoring of the chosen route (first stage that reads test data).
    _final_score(flat, split.train, split.test)
    report.flat = flat
    if route == "multiclass_hierarchical":
        for task, (_, train_lv, test_lv) in zip(level_tasks, levels):
            _final_score(task, train_lv, test_lv)
        report.levels = level_tasks
        report.combined = combine_level_metrics(
            [t.test_metrics for t in level_tasks]
        )
        report.combined_cv = hierarchy_cv
    return report
