"""Each task is evaluated along one path: out-of-fold metrics come from the
dimensionality sweep's own fits, rankings are computed once per task, and
hierarchy levels are binarized on both splits once, before any fit."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from genflow.models import BINARY_FAMILIES, MULTICLASS_FAMILIES, fit_model
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


class TestFoldCount:
    def test_fold_count_above_a_level_refused_before_any_fit(self, monkeypatch):
        # Class B has one training row, so level4 (C vs B) trains on 20 rows.
        forbid_fits(monkeypatch)
        with pytest.raises(DataError, match="'hierarchy:level4' has 20 training rows; "
                                            "fold_count 25 needs at least 50"):
            run_flow(make_imbalanced6(seed=0), hier_config(fold_count=25))

    # fold_count <= n < 2 fold_count rows leave a one-row validation fold,
    # which cannot be a Dataset, so every grid point of the task would fail.
    def test_one_row_fold_in_a_level_refused_before_any_fit(self, monkeypatch):
        forbid_fits(monkeypatch)
        with pytest.raises(DataError, match="'hierarchy:level4' has 20 training rows; "
                                            "fold_count 12 needs at least 24"):
            run_flow(make_imbalanced6(seed=0), hier_config(fold_count=12))

    def test_one_row_fold_in_the_flat_task_exit_2_before_any_fit(self, tmp_path,
                                                                 monkeypatch, capsys):
        forbid_fits(monkeypatch)
        rng = np.random.default_rng(0)
        data = tmp_path / "small.csv"
        np.savetxt(data, np.column_stack([rng.normal(size=(24, 3)), np.arange(24) % 2]),
                   fmt=["%.6f"] * 3 + ["%d"], delimiter=",", comments="",
                   header="f0,f1,f2,label")
        assert main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg,lssvm", "--grid-preset", "thin",
                     "--out", str(tmp_path / "out")]) == 2
        assert ("task 'binary' has 8 training rows; fold_count 5 needs at least 10"
                in capsys.readouterr().err)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(4, 80), fold_count=st.integers(2, 20),
           seed=st.integers(0, 2**16), positional=st.booleans())
    def test_every_fold_scores_or_the_run_is_refused(self, rows, fold_count, seed,
                                                     positional):
        data = Dataset(np.arange(rows, dtype=float)[:, None], np.arange(rows) % 2,
                       ("x",), ("a", "b"))
        train = stratified_split(data, seed=seed).train
        if train.n_samples >= 2 * fold_count:
            plan = make_interleaved_folds(train, fold_count, seed, positional=positional)
            for _, val_rows in plan.folds():
                assert train.restrict_rows(val_rows).n_samples >= 2
            return
        config = fast_config(fold_count=fold_count, seed=seed, folds_positional=positional)
        with pytest.MonkeyPatch.context() as mp:
            forbid_fits(mp)
            with pytest.raises(DataError, match=f"has {train.n_samples} training rows; "
                                                f"fold_count {fold_count} needs at least"):
                run_flow(data, config)


class TestNames:
    def test_unknown_names_rejected_by_config(self):
        with pytest.raises(DataError, match="mutual_inf"):
            FlowConfig(ranking_methods=("fisher", "mutual_inf"))
        with pytest.raises(DataError, match="boosted_tre"):
            FlowConfig(candidate_families=("logreg", "boosted_tre"))

    @pytest.mark.parametrize("field, names", [
        ("candidate_families", ("logreg", "lssvm", "logreg")),
        ("ranking_methods", ("fisher", "chi_squared", "fisher")),
    ])
    def test_duplicate_names_rejected_by_config(self, field, names):
        # a repeated family would be swept and listed twice, a repeated
        # ranker listed twice in the config but curved once
        with pytest.raises(DataError, match=rf"duplicate .*\['{names[0]}'\]"):
            FlowConfig(**{field: names})

    def test_duplicate_family_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv")
        argv = ["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                "--families", "logreg,logreg", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "duplicate model families ['logreg']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_empty_ranker_list_refused_before_any_fit(self, monkeypatch):
        forbid_fits(monkeypatch)
        with pytest.raises(DataError, match="no ranking methods"):
            run_flow(make_binary(n=120, seed=1), fast_config(ranking_methods=()))

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


class TestEmptyFamilyList:
    """A route left with no family to sweep is a DataError before any fit,
    even when the hierarchy would go unused."""

    @pytest.mark.parametrize("data, families, hierarchy, route", [
        (make_binary(n=120, seed=1), ("multinomial_logreg",), None, "binary route"),
        (make_multiclass(n=120, seed=1), ("logreg",), None, "multiclass route"),
        (make_multiclass(n=120, seed=1), ("multinomial_logreg", "ova_logreg"),
         HierarchySpec((HierarchyLevel("top", (0,), (1, 2)),)), "hierarchy levels"),
    ])
    def test_run_flow_refuses(self, monkeypatch, data, families, hierarchy, route):
        forbid_fits(monkeypatch)
        config = fast_config(candidate_families=families, hierarchy=hierarchy)
        with pytest.raises(DataError, match=route):
            run_flow(data, config)

    def test_cli_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        forbid_fits(monkeypatch)
        ds = make_imbalanced6(seed=0)
        data = tmp_path / "six.csv"
        data.write_text(",".join(ds.feature_names) + ",label\n" + "".join(
            ",".join(f"{v:.6f}" for v in row) + f",{y}\n"
            for row, y in zip(ds.features, ds.labels)))
        h = tmp_path / "h.json"
        h.write_text('[{"name": "top", "positive": [0, 1, 2], "negative": [3, 4, 5]}]')
        argv = ["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                "--families", "multinomial_logreg,ova_logreg", "--hierarchy", str(h),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "hierarchy levels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_oversized_bin_count_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv")
        argv = ["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                "--families", "logreg", "--bin-count", "1000000000000",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "--bin-count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("methods, n_classes, nbytes", [
        (("mutual_info",), 2, 1000 * (17 * 2 + 32)),
        (("fisher", "chi_squared"), 6, 1000 * (17 * 6 + 32)),
        (("mrmr",), 2, 1000 * (17 * 1000 + 32)),
        (("mrmr",), 1200, 1000 * (17 * 1200 + 32)),
    ])
    def test_bound_is_the_largest_table(self, monkeypatch, methods, n_classes, nbytes):
        config = FlowConfig(ranking_methods=methods, bin_count=1000,
                            candidate_families=("logreg",))
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: nbytes)
        flow._refuse_oversized(config, "binary", 100, n_classes)
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: nbytes - 1)
        with pytest.raises(DataError, match="--bin-count"):
            flow._refuse_oversized(config, "binary", 100, n_classes)

    @pytest.mark.parametrize("method, bins", [
        ("mutual_info", 10**6), ("chi_squared", 10**6), ("mrmr", 1000)])
    def test_refused_below_traced_peak(self, monkeypatch, method, bins):
        data = make_binary(n=100, d=3, seed=0)
        tracemalloc.start()
        try:
            flow._RANKERS[method](data, bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        config = FlowConfig(ranking_methods=(method,), bin_count=bins,
                            candidate_families=("logreg",))
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: peak - 1)
        with pytest.raises(DataError, match="--bin-count"):  # the estimate is >= the peak
            flow._refuse_oversized(config, "binary", 100, 2)

    def test_fisher_alone_needs_no_table(self, monkeypatch):
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: 0)
        config = FlowConfig(ranking_methods=("fisher",), bin_count=10**12,
                            candidate_families=("logreg",))
        flow._refuse_oversized(config, "binary", 100, 2)


class TestUngriddedFamily:
    """A swept family with no grid in the config is a DataError before any
    fit; no registry grid is swept in its place."""

    @pytest.mark.parametrize("data, families, hierarchy, missing", [
        (make_binary(n=120, seed=1), ("logreg", "decision_forest"), None,
         "decision_forest"),
        # lssvm is swept only on the hierarchy's binary levels
        (make_multiclass(n=120, seed=1), ("multinomial_logreg", "lssvm"),
         HierarchySpec((HierarchyLevel("top", (0,), (1, 2)),)), "lssvm"),
    ])
    def test_run_flow_refuses(self, monkeypatch, data, families, hierarchy, missing):
        forbid_fits(monkeypatch)
        config = FlowConfig(grids={"logreg": {"l2": [1e-6]},
                                   "multinomial_logreg": {"l2": [1e-6]}},
                            candidate_families=families, hierarchy=hierarchy,
                            ranking_methods=("fisher",))
        with pytest.raises(DataError, match=rf"no grid for the swept families \['{missing}'\]"):
            run_flow(data, config)


class TestRefusedBeforeSplit:
    """Bundle paths that cannot be written are data errors raised before the
    split, so no model is fitted."""

    def test_out_naming_a_file_exit_2(self, tmp_path, monkeypatch, capsys):
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv")
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        for out in (blocker, blocker / "sub"):
            argv = ["--data", str(data), "--label-col", "label", "--grid-preset",
                    "thin", "--families", "logreg", "--out", str(out)]
            assert main(argv) == 2
            assert "is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_empty_hierarchy_refused(self, monkeypatch):
        forbid_fits(monkeypatch)
        with pytest.raises(DataError, match="at least one level"):
            run_flow(make_multiclass(n=120, seed=1), fast_config(
                candidate_families=("multinomial_logreg", "logreg"),
                ranking_methods=("fisher",), hierarchy=HierarchySpec(())))

    def test_colliding_level_names_refused_by_run_flow(self, monkeypatch):
        forbid_fits(monkeypatch)
        with pytest.raises(DataError, match=r"\['lv-2', 'lv_2'\]"):
            run_flow(make_multiclass(n=120, seed=1), fast_config(
                candidate_families=("multinomial_logreg", "logreg"),
                hierarchy=HierarchySpec((HierarchyLevel("lv-2", (0,), (1, 2)),
                                         HierarchyLevel("lv_2", (1,), (2,))))))

    @pytest.mark.parametrize("names", [("lv-2", "lv_2"), ("twin", "twin")])
    def test_colliding_level_names_exit_2(self, tmp_path, monkeypatch, capsys, names):
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv")
        h = tmp_path / "h.json"
        h.write_text(f'[{{"name": "{names[0]}", "positive": [0], "negative": [1]}}, '
                     f'{{"name": "{names[1]}", "positive": [1], "negative": [0]}}]')
        argv = ["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                "--hierarchy", str(h), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "same bundle files" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # isalnum keeps "é", which is two bytes in UTF-8.
    @pytest.mark.parametrize("name", ["x" * (flow.MAX_LEVEL_STEM_BYTES + 1),
                                      "lv." * 74, "é" * 111])
    def test_over_long_level_name_exit_2(self, tmp_path, monkeypatch, capsys, name):
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv")
        h = tmp_path / "h.json"
        h.write_text(json.dumps([{"name": name, "positive": [0], "negative": [1]}]))
        argv = ["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                "--hierarchy", str(h), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "over 255 bytes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_longest_level_name_fills_255_bytes(self):
        name = "é" * (flow.MAX_LEVEL_STEM_BYTES // 2)
        HierarchySpec((HierarchyLevel(name, (0,), (1,)),))
        files = [f"dimsweep_{flow.file_stem('hierarchy:' + name)}_{method}.csv"
                 for method in flow._RANKERS]
        assert max(len(f.encode()) for f in files) == 255


def write_scaled_csv(path, data, top):
    """``data`` as a CSV, its last column rescaled to reach magnitude ``top``;
    every value is written exactly."""
    X = data.features.copy()
    X[:, -1] *= top / np.abs(X[:, -1]).max()
    with open(path, "w") as fh:
        fh.write(",".join(data.feature_names) + ",label\n")
        for row, y in zip(X, data.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{y}\n")
    return path


class TestLargeFeature:
    """A feature whose sums of squares can overflow, max|x| >= 2**511/sqrt(n)
    on the n loaded rows, is refused before the split; just below the bound
    every family and ranker runs without a RuntimeWarning."""

    BOUND = 2.0**511 / np.sqrt(120)

    def test_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        forbid_fits(monkeypatch)
        data = write_scaled_csv(tmp_path / "big.csv", make_binary(n=120, d=3), 9.75e306)
        assert main(["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "feature 'f2' reaches magnitude 9.75e+306" in err
        assert f"2**511/sqrt(n) = {self.BOUND:.6g} for n = 120 rows" in err
        assert not (tmp_path / "out").exists()

    def test_run_flow_refuses_at_the_bound(self, monkeypatch):
        forbid_fits(monkeypatch)
        data = make_binary(n=120, d=3)
        X = data.features.copy()
        X[0, 1] = -self.BOUND
        with pytest.raises(DataError, match="feature 'f1' reaches magnitude"):
            run_flow(replace(data, features=X), fast_config())

    @pytest.mark.parametrize("data, families", [
        (make_binary(n=120, d=3), BINARY_FAMILIES),
        (make_multiclass(n=120), MULTICLASS_FAMILIES)], ids=["binary", "multiclass"])
    def test_just_below_the_bound_exit_0(self, tmp_path, data, families):
        # tier-1 turns a RuntimeWarning into an error, which exits 3
        path = write_scaled_csv(tmp_path / "wide.csv", data, 0.99 * self.BOUND)
        assert main(["--data", str(path), "--label-col", "label", "--grid-preset", "thin",
                     "--families", ",".join(families),
                     "--rankers", "fisher,mutual_info,chi_squared,mrmr",
                     "--out", str(tmp_path / "out")]) == 0
