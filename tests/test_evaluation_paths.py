"""Each task is evaluated along one path: out-of-fold metrics come from the
dimensionality sweep's own fits, rankings are computed once per task, and
hierarchy levels are binarized on both splits once, before any fit."""

from dataclasses import replace

import numpy as np
import pytest

from genflow import (
    DataError,
    Dataset,
    FlowConfig,
    HierarchyLevel,
    HierarchySpec,
    averaged_metrics,
    confusion_counts,
    fisher_score,
    make_interleaved_folds,
    project_top_k,
    run_flow,
    stratified_split,
)
from genflow import flow, selection
from genflow.cli import build_parser, main
from genflow.models import fit_model
from genflow.ranking import RANKING_METHODS
from tests.conftest import group_hierarchy, make_binary, make_imbalanced6, make_multiclass
from tests.test_flow import fast_config
from tests.test_report_cli import write_toy_csv


def oof_metrics_oracle(spec, train, folds):
    """The pooled out-of-fold loop that flow once ran as a separate refit."""
    pred = np.empty(train.n_samples, dtype=int)
    for fit_rows, val_rows in folds.folds():
        model = fit_model(spec, train.restrict_rows(fit_rows))
        pred[val_rows] = model.predict_labels(train.restrict_rows(val_rows))
    counts = confusion_counts(train.labels, pred, n_classes=train.n_classes)
    return averaged_metrics(counts)


def binarize(data, level):
    keep = np.flatnonzero(np.isin(data.labels, level.positive + level.negative))
    sub = data.restrict_rows(keep)
    return replace(sub, labels=np.isin(sub.labels, level.positive).astype(int),
                   class_names=("negative", "positive"))


def assert_cv_matches_oracle(task, train, config):
    assert config.ranking_methods == ("fisher",)
    assert task.dim.best_method == "fisher"
    folds = make_interleaved_folds(train, config.fold_count, config.seed,
                                   positional=config.folds_positional)
    reduced = project_top_k(train, fisher_score(train), task.dim.best_k)
    oracle = oof_metrics_oracle(task.chosen_spec, reduced, folds)
    np.testing.assert_array_equal(task.cv_metrics.confusion.matrix,
                                  oracle.confusion.matrix)
    assert task.cv_metrics.macro_recall == oracle.macro_recall


def hier_config(**overrides):
    base = dict(
        seed=0,
        grids={"multinomial_logreg": {"l2": [1e-6]}, "logreg": {"l2": [1e-6]}},
        candidate_families=("multinomial_logreg", "logreg"),
        ranking_methods=("fisher",),
        hierarchy=group_hierarchy(),
    )
    base.update(overrides)
    return FlowConfig(**base)


def counted(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def forbid_fits(monkeypatch):
    def no_fit(spec, train):
        raise AssertionError("a model was fitted")

    monkeypatch.setattr(selection, "fit_model", no_fit)
    monkeypatch.setattr(flow, "fit_model", no_fit)


@pytest.fixture(scope="module")
def hier_run():
    """The 6-class fixture routed hierarchically, with flow's own refits
    and ranking passes counted."""
    calls: list[str] = []
    with pytest.MonkeyPatch.context() as mp:
        counted(mp, flow, "fit_model", calls)
        counted(mp, flow, "compute_rankings", calls)
        data = make_imbalanced6(n=1200, seed=0)
        report = run_flow(data, hier_config())
    return data, report, calls


class TestOutOfFoldMetrics:
    def test_binary_task_matches_oracle(self):
        ds = make_binary(n=150, sep=1.0, seed=4)
        config = fast_config(candidate_families=("logreg", "boosted_tree"))
        report = run_flow(ds, config)
        train = stratified_split(ds, config.train_fraction, config.seed).train
        assert_cv_matches_oracle(report.flat, train, config)

    def test_flat_multiclass_and_every_level_match_oracle(self, hier_run):
        data, report, _ = hier_run
        config = hier_config()
        split = stratified_split(data, config.train_fraction, config.seed)
        assert report.route == "multiclass_hierarchical"
        assert_cv_matches_oracle(report.flat, split.train, config)
        levels = config.hierarchy.levels
        assert [t.name for t in report.levels] == [
            f"hierarchy:{lv.name}" for lv in levels]
        for task, level in zip(report.levels, levels):
            assert_cv_matches_oracle(task, binarize(split.train, level), config)


class TestOnePassPerTask:
    def test_one_refit_and_one_ranking_pass_per_task(self, hier_run):
        _, report, calls = hier_run
        tasks = 1 + len(report.levels)
        assert tasks == 6
        assert calls.count("fit_model") == tasks
        assert calls.count("compute_rankings") == tasks

    def test_binary_run_counts(self, monkeypatch):
        calls: list[str] = []
        counted(monkeypatch, flow, "fit_model", calls)
        counted(monkeypatch, flow, "compute_rankings", calls)
        run_flow(make_binary(n=120, seed=7), fast_config())
        assert calls.count("fit_model") == 1
        assert calls.count("compute_rankings") == 1


class TestHierarchyPath:
    def test_no_leakage_trail_ignores_test_rows(self, hier_run):
        # Replacing every test-split row's features with noise must not
        # change any decision recorded before final scoring, hierarchy
        # levels included.
        data, report, _ = hier_run
        split = stratified_split(data, 0.30, seed=0)
        X = data.features.copy()
        rng = np.random.default_rng(99)
        X[split.test_index] = rng.normal(size=(split.test.n_samples,
                                               data.n_features))
        tampered = Dataset(X, data.labels, data.feature_names, data.class_names,
                           data.source_id)
        b = run_flow(tampered, hier_config())
        assert any(t["stage"].startswith("decision2:hierarchy:")
                   for t in report.decision_trail)
        assert report.decision_trail == b.decision_trail

    @pytest.mark.parametrize("dropped, message", [
        ((2, 3), "no samples"),
        ((3,), "one side is empty"),
    ])
    def test_level_missing_from_test_split_fails_before_any_fit(
            self, monkeypatch, dropped, message):
        # Stratified splits keep every class on both sides, so the split
        # is altered to leave a level with training rows only.
        real_split = flow.stratified_split

        def split_without(data, fraction, seed):
            split = real_split(data, fraction, seed)
            keep = np.flatnonzero(~np.isin(split.test.labels, dropped))
            return replace(split, test=split.test.restrict_rows(keep))

        monkeypatch.setattr(flow, "stratified_split", split_without)
        forbid_fits(monkeypatch)
        spec = HierarchySpec((
            HierarchyLevel("common", (0,), (1,)),
            HierarchyLevel("rare", (2,), (3,)),
        ))
        ds = make_multiclass(n=200, n_classes=4, seed=3)
        config = fast_config(candidate_families=("multinomial_logreg",),
                             hierarchy=spec)
        with pytest.raises(DataError, match=f"'rare'.*{message}"):
            run_flow(ds, config)


class TestNames:
    def test_unknown_names_rejected_by_config(self):
        with pytest.raises(DataError, match="mutual_inf"):
            FlowConfig(ranking_methods=("fisher", "mutual_inf"))
        with pytest.raises(DataError, match="boosted_tre"):
            FlowConfig(candidate_families=("logreg", "boosted_tre"))

    @pytest.mark.parametrize("metric", ["precision", "acc"])
    def test_unknown_decision3_metric_rejected_by_config(self, metric):
        with pytest.raises(DataError, match=metric):
            FlowConfig(decision3_metric=metric)

    def test_one_default_ranker_list(self):
        args = build_parser().parse_args(
            ["--data", "x.csv", "--label-col", "y", "--out", "o"])
        assert tuple(args.rankers.split(",")) == RANKING_METHODS
        assert FlowConfig().ranking_methods == RANKING_METHODS

    @pytest.mark.parametrize("flag, value", [
        ("--rankers", "fisher,mutual_inf"),
        ("--families", "logreg,lssvm,boosted_tre"),
    ])
    def test_misspelled_name_exit_2_before_any_fit(self, tmp_path, monkeypatch,
                                                   capsys, flag, value):
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv")
        argv = ["--data", str(data), "--label-col", "label", "--grid-preset",
                "thin", "--out", str(tmp_path / "out"), flag, value]
        if flag == "--rankers":
            argv += ["--families", "logreg"]
        assert main(argv) == 2
        assert value.rsplit(",", 1)[1] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mrmr_reachable_from_cli(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        out = tmp_path / "out"
        code = main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg", "--rankers", "fisher,mrmr",
                     "--grid-preset", "thin", "--out", str(out)])
        assert code == 0
        lines = (out / "curves" / "dimsweep_binary_mrmr.csv"
                 ).read_text().strip().splitlines()
        assert lines[0] == "method,k,mean_cv_accuracy"
        assert len(lines) - 1 == 4  # one row per feature of the toy set


class TestBinCount:
    @pytest.mark.parametrize("bins", [1, 0, -3])
    def test_rejected_by_config(self, bins):
        with pytest.raises(DataError, match="bin_count"):
            FlowConfig(bin_count=bins)

    def test_bin_count_1_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv")
        argv = ["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                "--families", "logreg", "--bin-count", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "bin_count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
