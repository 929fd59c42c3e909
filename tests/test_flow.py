import copy

import numpy as np
import pytest

from genflow import (
    DataError,
    Dataset,
    EvalMetrics,
    FlowConfig,
    HierarchyLevel,
    HierarchySpec,
    combine_level_metrics,
    decision_hierarchy,
    decision_route,
    load_hierarchy_spec,
    make_interleaved_folds,
    run_flow,
    select_best_model,
    stratified_split,
)
from genflow import flow
from genflow.models import BINARY_FAMILIES, FAMILIES, MULTICLASS_FAMILIES
from genflow.report import report_body
from tests.conftest import make_binary, make_imbalanced6, make_multiclass

FAST_GRIDS = {
    "logreg": {"l2": [1e-6]},
    "multinomial_logreg": {"l2": [1e-6]},
    "boosted_tree": {"leaves": [4], "learning_rate": [0.3], "trees": [5]},
}


def fast_config(**overrides):
    base = dict(
        seed=0,
        grids=FAST_GRIDS,
        candidate_families=("logreg",),
        ranking_methods=("fisher",),
    )
    base.update(overrides)
    return FlowConfig(**base)


class TestDecisionRoute:
    def test_binary(self, binary_ds):
        assert decision_route(binary_ds) == "binary"

    def test_multiclass(self, multiclass_ds):
        assert decision_route(multiclass_ds) == "multiclass"


class TestSelectBestModel:
    def test_complexity_breaks_exact_ties(self):
        # Widely separated classes: every family reaches CV accuracy 1.0,
        # so the tie-break alone decides.  The simpler family must win
        # even when listed after the complex one.
        ds = make_binary(n=100, sep=8.0, seed=1)
        folds = make_interleaved_folds(ds, 5, seed=0)
        sweep, board = select_best_model(
            ("boosted_tree", "logreg"), ds, folds, FAST_GRIDS
        )
        accs = {e["family"]: e["cv_accuracy"] for e in board}
        assert accs["boosted_tree"] == accs["logreg"] == 1.0
        assert sweep.best_spec.family == "logreg"

    def test_leaderboard_covers_all_candidates(self):
        ds = make_binary(n=80, seed=2)
        folds = make_interleaved_folds(ds, 4, seed=0)
        sweep, board = select_best_model(
            ("logreg", "boosted_tree"), ds, folds, FAST_GRIDS
        )
        assert [e["family"] for e in board] == ["logreg", "boosted_tree"]

    def test_winner_not_beaten_at_4dp(self):
        ds = make_binary(n=120, sep=0.8, seed=3)
        folds = make_interleaved_folds(ds, 5, seed=0)
        sweep, board = select_best_model(
            ("logreg", "boosted_tree"), ds, folds, FAST_GRIDS
        )
        best_round = round(sweep.cv_accuracy, 4)
        assert all(round(e["cv_accuracy"], 4) <= best_round for e in board)

    def test_no_candidates_rejected(self, binary_ds):
        folds = make_interleaved_folds(binary_ds, 5, seed=0)
        with pytest.raises(DataError, match="no candidate"):
            select_best_model((), binary_ds, folds, FAST_GRIDS)

    def test_generator_of_candidates(self):
        ds = make_binary(n=80, seed=2)
        folds = make_interleaved_folds(ds, 4, seed=0)
        sweep, board = select_best_model(
            (f for f in ["logreg"]), ds, folds, FAST_GRIDS
        )
        assert sweep.best_spec.family == "logreg"
        assert [e["family"] for e in board] == ["logreg"]


def metrics_with(recall1, precision1=0.5, accuracy1=0.5, macro_recall=None,
                 macro_accuracy=None):
    return EvalMetrics(
        precision=np.array([0.5, precision1]),
        recall=np.array([0.5, recall1]),
        accuracy=np.array([0.5, accuracy1]),
        macro_recall=macro_recall if macro_recall is not None else recall1,
        macro_accuracy=macro_accuracy if macro_accuracy is not None else accuracy1,
    )


class TestDecisionHierarchy:
    def test_flat_beats_baseline(self):
        route, detail = decision_hierarchy(
            metrics_with(0.9, macro_recall=0.9), baseline=0.7,
            hierarchical={"recall": 0.95},
        )
        assert route == "multiclass_flat"
        assert "beats randomized baseline" in detail["reason"]

    def test_below_baseline_no_hierarchy_advises(self):
        route, detail = decision_hierarchy(
            metrics_with(0.5, macro_recall=0.5), baseline=0.7, hierarchical=None
        )
        assert route == "multiclass_flat"
        assert detail["advisory"] == "hierarchy recommended"

    def test_hierarchy_wins_when_higher(self):
        route, detail = decision_hierarchy(
            metrics_with(0.5, macro_recall=0.5), baseline=0.7,
            hierarchical={"recall": 0.8},
        )
        assert route == "multiclass_hierarchical"
        assert detail["hierarchical"] == 0.8

    def test_flat_kept_when_hierarchy_no_better(self):
        route, _ = decision_hierarchy(
            metrics_with(0.5, macro_recall=0.5), baseline=0.7,
            hierarchical={"recall": 0.5},
        )
        assert route == "multiclass_flat"

    def test_accuracy_metric_variant(self):
        m = metrics_with(0.2, macro_recall=0.2, macro_accuracy=0.95)
        route, detail = decision_hierarchy(m, baseline=0.7, hierarchical=None,
                                           metric="accuracy")
        assert route == "multiclass_flat"
        assert detail["flat"] == 0.95
        assert "beats" in detail["reason"]


class TestCombineLevelMetrics:
    # Published five-level hierarchy results reproduced from the printed
    # per-level table: means 89.84% accuracy, 0.880 precision, 0.8228 recall.
    LEVEL_ACC = [0.994, 0.957, 0.853, 0.971, 0.717]
    LEVEL_PREC = [0.995, 0.975, 0.727, 0.976, 0.727]
    LEVEL_REC = [0.998, 0.905, 0.656, 0.993, 0.562]

    def test_published_five_level_example(self):
        levels = [
            metrics_with(r, precision1=p, accuracy1=a)
            for a, p, r in zip(self.LEVEL_ACC, self.LEVEL_PREC, self.LEVEL_REC)
        ]
        combined = combine_level_metrics(levels)
        assert combined["precision"] == pytest.approx(0.880, abs=1e-3)
        assert combined["recall"] == pytest.approx(0.8228, abs=1e-3)
        assert combined["accuracy"] == pytest.approx(0.8984, abs=2e-3)

    def test_single_level_identity(self):
        m = metrics_with(0.7, precision1=0.8, accuracy1=0.9)
        combined = combine_level_metrics([m])
        assert combined == {"accuracy": 0.9, "precision": 0.8, "recall": 0.7}

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            combine_level_metrics([])


class TestHierarchySpecValidation:
    def test_overlapping_sets_rejected(self):
        with pytest.raises(DataError, match="overlapping"):
            HierarchyLevel("bad", (0, 1), (1, 2))

    def test_empty_side_rejected(self):
        with pytest.raises(DataError, match="empty"):
            HierarchyLevel("bad", (), (1,))

    def test_out_of_range_labels_rejected(self):
        spec = HierarchySpec((HierarchyLevel("lv", (0,), (7,)),))
        with pytest.raises(DataError, match="out of range"):
            spec.validate_for(3)

    def test_load_from_json(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text('[{"name": "top", "positive": [0], "negative": [1, 2]}]')
        spec = load_hierarchy_spec(p)
        assert spec.levels[0].positive == (0,)
        assert spec.levels[0].negative == (1, 2)

    def test_load_rejects_non_list(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text('{"positive": [0]}')
        with pytest.raises(DataError, match="nonempty list"):
            load_hierarchy_spec(p)

    def test_load_rejects_missing_key(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text('[{"name": "top", "positive": [0]}]')
        with pytest.raises(DataError, match="bad level record"):
            load_hierarchy_spec(p)

    @pytest.mark.parametrize("positive", ['"12"', "[3.9]", "[true]", "7"])
    def test_load_rejects_non_integer_ids(self, tmp_path, positive):
        p = tmp_path / "h.json"
        p.write_text('[{"name": "top", "positive": [0], "negative": [1]}, '
                     f'{{"name": "odd", "positive": {positive}, "negative": [2]}}]')
        with pytest.raises(DataError, match="level 'odd'.*integer class ids"):
            load_hierarchy_spec(p)

    @pytest.mark.parametrize("second", ["lv-2", "lv_2", "lv 2"])
    def test_colliding_level_names_rejected(self, second):
        with pytest.raises(DataError, match="same bundle files"):
            HierarchySpec((HierarchyLevel("lv_2", (0,), (1,)),
                           HierarchyLevel(second, (2,), (1,))))


class TestRunFlowBinary:
    def test_end_to_end_shape(self):
        ds = make_binary(n=150, sep=2.0, seed=4)
        report = run_flow(ds, fast_config())
        assert report.route == "binary"
        assert report.flat is not None
        assert report.flat.test_metrics is not None
        assert report.flat.roc is not None and report.flat.roc.auc is not None
        stages = [t["stage"] for t in report.decision_trail]
        assert stages[:2] == ["split", "decision1"]
        assert any(s.startswith("decision2") for s in stages)
        assert any(s.startswith("dimensionality") for s in stages)

    def test_separable_data_scores_high(self):
        ds = make_binary(n=200, sep=4.0, seed=5)
        report = run_flow(ds, fast_config())
        assert report.flat.test_metrics.accuracy[1] > 0.95
        assert report.flat.roc.auc > 0.98

    def test_noise_labels_near_majority_rate(self):
        # Labels independent of features: test accuracy cannot stray far
        # from the majority-class rate of the test split.
        ds = make_binary(n=400, seed=6, noise_labels=True)
        report = run_flow(ds, fast_config())
        split = stratified_split(ds, 0.30, seed=0)
        majority = max(split.test.class_counts()) / split.test.n_samples
        assert abs(report.flat.test_metrics.overall_accuracy - majority) < 0.08

    def test_determinism(self):
        ds = make_binary(n=120, seed=7)
        a = run_flow(ds, fast_config())
        b = run_flow(ds, fast_config())
        assert report_body(a) == report_body(b)

    def test_report_config_is_not_the_family_registry(self):
        """Editing a returned report's grids must not change later runs."""
        ds = make_binary(n=120, seed=7)
        config = FlowConfig(seed=0, candidate_families=("logreg",),
                            ranking_methods=("fisher",))
        registry = FAMILIES["logreg"].grid
        saved = copy.deepcopy(registry)
        try:
            first = run_flow(ds, config)
            body = copy.deepcopy(report_body(first))
            assert first.config["grids"]["logreg"] is not registry
            first.config["grids"]["logreg"]["l2"].append(10.0)
            assert report_body(run_flow(ds, config)) == body
        finally:  # keep the registry intact for other tests
            for name, values in saved.items():
                registry[name][:] = values

    def test_default_config_grids_are_not_the_family_registry(self):
        """Editing a default config's grids must leave the registry as it is."""
        saved = {n: copy.deepcopy(f.grid) for n, f in FAMILIES.items()}
        config = FlowConfig()
        try:
            assert config.grids == saved
            config.grids["logreg"]["l2"].append(10.0)
            config.grids["lssvm"]["lambda"].clear()
            assert {n: f.grid for n, f in FAMILIES.items()} == saved
            assert FlowConfig().grids == saved
        finally:  # keep the registry intact for other tests
            for name, family in FAMILIES.items():
                for axis, values in saved[name].items():
                    family.grid[axis][:] = values

    def test_seed_changes_split(self):
        ds = make_binary(n=120, seed=7)
        a = run_flow(ds, fast_config(seed=1))
        b = run_flow(ds, fast_config(seed=2))
        assert report_body(a) != report_body(b)


class TestRouteFamilies:
    """Which requested families each route sweeps on its flat task and on
    the hierarchy levels."""

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_requested_family_kept_iff_it_applies(self, name):
        config = FlowConfig(candidate_families=(name,))
        flat, levels = flow._route_families(config, "multiclass")
        assert flat == ([] if FAMILIES[name].binary_only else [name])
        assert levels == ([name] if name in BINARY_FAMILIES else [])
        assert flow._route_families(config, "binary") == (levels, levels)

    def test_defaults_are_the_route_tuples_in_order(self):
        config = FlowConfig()
        assert flow._route_families(config, "multiclass") == (
            list(MULTICLASS_FAMILIES), list(BINARY_FAMILIES))
        assert flow._route_families(config, "binary") == (
            list(BINARY_FAMILIES), list(BINARY_FAMILIES))


class TestRunFlowMulticlass:
    def test_flat_route_reports_baseline(self):
        ds = make_multiclass(n=240, sep=4.0, seed=8)
        report = run_flow(ds, fast_config(
            candidate_families=("multinomial_logreg",)))
        assert report.route == "multiclass_flat"
        assert report.baseline == pytest.approx(
            max(stratified_split(ds, 0.3, seed=0).train.class_counts())
            / stratified_split(ds, 0.3, seed=0).train.n_samples
        )
        assert report.flat.test_metrics.confusion.n_classes == 3
        d3 = next(t for t in report.decision_trail if t["stage"] == "decision3")
        assert d3["outcome"]["flat"] >= report.baseline

    def test_below_baseline_without_hierarchy_advises(self):
        report = run_flow(make_imbalanced6(n=600, seed=0),
                          fast_config(candidate_families=("multinomial_logreg",)))
        assert report.route == "multiclass_flat"
        assert report.advisories == ["hierarchy recommended"]
        assert report.decision_trail[-1]["outcome"]["reason"] == (
            "flat below baseline but no hierarchy supplied")
        assert report_body(report)["advisories"] == ["hierarchy recommended"]

    def test_no_leakage_trail_ignores_test_rows(self):
        # Replacing the features of every test-split row with noise must
        # not change any decision recorded before final scoring.
        ds = make_binary(n=160, sep=1.5, seed=9)
        split = stratified_split(ds, 0.30, seed=0)
        X = ds.features.copy()
        rng = np.random.default_rng(99)
        X[split.test_index] = rng.normal(size=(split.test.n_samples,
                                               ds.n_features))
        tampered = Dataset(X, ds.labels, ds.feature_names, ds.class_names,
                           ds.source_id)
        a = run_flow(ds, fast_config())
        b = run_flow(tampered, fast_config())
        assert a.decision_trail == b.decision_trail
