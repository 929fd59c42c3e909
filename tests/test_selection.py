import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow import (
    DataError,
    Dataset,
    ModelSpec,
    dimensionality_sweep,
    fisher_score,
    make_interleaved_folds,
    mutual_information,
    select_best_model,
    sweep_parameters,
)
from genflow import models
from genflow.models import ModelError
from genflow.selection import cv_accuracy
from tests.conftest import make_binary
from tests.test_evaluation_paths import forbid_fits


class TestFoldPlan:
    def test_positional_mod_arithmetic(self):
        ds = make_binary(n=10)
        plan = make_interleaved_folds(ds, 5, seed=0, positional=True)
        for k in range(5):
            assert sorted(np.flatnonzero(plan.assignments == k)) == [k, k + 5]

    def test_fold_sizes_n12(self):
        ds = make_binary(n=12)
        plan = make_interleaved_folds(ds, 5, seed=3)
        sizes = sorted(np.bincount(plan.assignments), reverse=True)
        assert sizes == [3, 3, 2, 2, 2]

    def test_partition(self):
        ds = make_binary(n=53)
        plan = make_interleaved_folds(ds, 5, seed=1)
        seen = np.zeros(53, dtype=int)
        for fit_rows, val_rows in plan.folds():
            assert np.intersect1d(fit_rows, val_rows).size == 0
            assert len(fit_rows) + len(val_rows) == 53
            seen[val_rows] += 1
        assert (seen == 1).all()

    def test_too_many_folds(self):
        ds = make_binary(n=4)
        with pytest.raises(DataError, match="exceeds"):
            make_interleaved_folds(ds, 5, seed=0)

    def test_seeded_shuffle_deterministic(self):
        ds = make_binary(n=30)
        a = make_interleaved_folds(ds, 5, seed=7)
        b = make_interleaved_folds(ds, 5, seed=7)
        assert np.array_equal(a.assignments, b.assignments)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           positional=st.booleans())
    def test_partition_property(self, data, n, seed, positional):
        fold_count = data.draw(st.integers(2, n), label="fold_count")
        ds = Dataset(np.zeros((n, 1)), np.zeros(n, dtype=int), ("x",), ("a",))
        plan = make_interleaved_folds(ds, fold_count, seed=seed, positional=positional)
        validated = np.zeros(n, dtype=int)
        sizes = []
        for fit_rows, val_rows in plan.folds():
            assert val_rows.size > 0
            assert np.intersect1d(fit_rows, val_rows).size == 0
            assert np.array_equal(np.sort(np.concatenate([fit_rows, val_rows])),
                                  np.arange(n))
            validated[val_rows] += 1
            sizes.append(val_rows.size)
        assert len(sizes) == fold_count
        assert (validated == 1).all()
        assert max(sizes) - min(sizes) <= 1


class TestOneRowFolds:
    """fold_count <= n < 2 fold_count rows leave a one-row validation fold,
    which cannot be scored as a Dataset: every sweep refuses such a plan
    before any fit, whoever built it."""

    @pytest.mark.parametrize("sweep", [
        lambda ds, plan: sweep_parameters("logreg", {"l2": [1e-6]}, ds, plan),
        lambda ds, plan: select_best_model(["logreg"], ds, plan, {"logreg": {"l2": [1e-6]}}),
        lambda ds, plan: dimensionality_sweep(ModelSpec("logreg", {}), ds, plan,
                                              [fisher_score(ds)]),
    ], ids=["sweep_parameters", "select_best_model", "dimensionality_sweep"])
    def test_refused_before_any_fit(self, monkeypatch, sweep):
        forbid_fits(monkeypatch)
        ds = make_binary(n=7)
        plan = make_interleaved_folds(ds, 5, positional=True)  # folds 2-4 hold one row
        with pytest.raises(DataError, match=r"validation fold 2 holds one row, \[2\]"):
            sweep(ds, plan)


class TestSweep:
    def test_single_point_grid(self):
        ds = make_binary(n=100, seed=2)
        plan = make_interleaved_folds(ds, 5, seed=0)
        res = sweep_parameters("logreg", {"l2": [1e-6]}, ds, plan)
        assert len(res.table) == 1
        assert res.best_spec.hyperparameters == {"l2": 1e-6}
        assert res.cv_accuracy == res.table[0]["mean_accuracy"]

    def test_grid_exhaustive(self):
        ds = make_binary(n=80, seed=3)
        plan = make_interleaved_folds(ds, 4, seed=0)
        grid = {"leaves": [2, 4], "learning_rate": [0.1, 0.3], "trees": [3]}
        res = sweep_parameters("boosted_tree", grid, ds, plan)
        assert len(res.table) == 4  # product of value-list sizes

    def test_more_trees_win_on_nonlinear_data(self):
        rng = np.random.default_rng(6)
        from genflow import Dataset
        X = rng.uniform(-1, 1, size=(300, 2))
        y = ((X[:, 0] * X[:, 1]) > 0).astype(int)
        ds = Dataset(X, y, ("a", "b"), ("n", "p"))
        plan = make_interleaved_folds(ds, 5, seed=0)
        grid = {"leaves": [8], "learning_rate": [0.3], "trees": [1, 50]}
        res = sweep_parameters("boosted_tree", grid, ds, plan)
        # Oracle: evaluate both grid points exhaustively.
        accs = {row["point"]["trees"]: row["mean_accuracy"] for row in res.table}
        assert accs[50] > accs[1]
        assert res.best_spec.param("trees") == 50

    def test_empty_grid_rejected(self):
        ds = make_binary(n=40)
        plan = make_interleaved_folds(ds, 4, seed=0)
        with pytest.raises(DataError, match="empty"):
            sweep_parameters("logreg", {}, ds, plan)

    @pytest.mark.parametrize("family, grid", [
        ("logreg", {"l2": []}),
        ("boosted_tree", {"leaves": [4], "trees": []}),
    ])
    def test_empty_grid_axis_rejected(self, family, grid):
        ds = make_binary(n=40)
        plan = make_interleaved_folds(ds, 4, seed=0)
        with pytest.raises(DataError, match="empty hyperparameter grid"):
            sweep_parameters(family, grid, ds, plan)

    def test_best_is_argmax_of_table(self):
        ds = make_binary(n=120, seed=9)
        plan = make_interleaved_folds(ds, 5, seed=0)
        grid = {"leaves": [2, 6], "learning_rate": [0.1], "trees": [5, 15]}
        res = sweep_parameters("boosted_tree", grid, ds, plan)
        best_in_table = max(row["mean_accuracy"] for row in res.table)
        assert res.cv_accuracy == best_in_table

    def test_determinism(self):
        ds = make_binary(n=90, seed=4)
        plan = make_interleaved_folds(ds, 5, seed=2)
        grid = {"split_count": [8], "depth": [4], "ensemble_count": [3, 5]}
        a = sweep_parameters("decision_forest", grid, ds, plan, seed=11)
        b = sweep_parameters("decision_forest", grid, ds, plan, seed=11)
        assert a.table == b.table
        assert a.best_spec == b.best_spec


def _failing_fitter(exc):
    def fit(spec, train):
        raise exc
    return fit


class TestSweepFailures:
    GRID = {"l2": [1e-6, 1e-3]}

    @pytest.mark.parametrize("exc", [ModelError("no fit"), DataError("empty class"),
                                     np.linalg.LinAlgError("singular"),
                                     FloatingPointError("overflow")])
    def test_fit_failure_scored_zero(self, monkeypatch, exc):
        monkeypatch.setattr(models.LogisticRegressionModel, "fit", _failing_fitter(exc))
        ds = make_binary(n=40)
        plan = make_interleaved_folds(ds, 4, seed=0)
        with pytest.warns(UserWarning, match="fit failed"):
            res = sweep_parameters("logreg", self.GRID, ds, plan)
        assert [row["mean_accuracy"] for row in res.table] == [0.0, 0.0]
        assert all(row["note"].startswith("fit failed") for row in res.table)

    @pytest.mark.parametrize("exc", [TypeError("bad operand"), IndexError("out of range")])
    def test_planted_bug_propagates(self, monkeypatch, exc):
        monkeypatch.setattr(models.LogisticRegressionModel, "fit", _failing_fitter(exc))
        ds = make_binary(n=40)
        plan = make_interleaved_folds(ds, 4, seed=0)
        with pytest.raises(type(exc)):
            sweep_parameters("logreg", self.GRID, ds, plan)


class TestDimensionalitySweep:
    def _setup(self, d=4, n=150, seed=5):
        ds = make_binary(n=n, d=d, seed=seed)
        plan = make_interleaved_folds(ds, 5, seed=0)
        spec = ModelSpec("logreg", {})
        rankings = [fisher_score(ds), mutual_information(ds, 8)]
        return ds, plan, spec, rankings

    def test_d1_best_k_is_1(self):
        ds = make_binary(n=60, d=1)
        plan = make_interleaved_folds(ds, 5, seed=0)
        res = dimensionality_sweep(ModelSpec("logreg", {}), ds, plan,
                                   [fisher_score(ds)])
        assert res.best_k == 1

    def test_curves_have_d_points(self):
        ds, plan, spec, rankings = self._setup()
        res = dimensionality_sweep(spec, ds, plan, rankings)
        for curve in res.curves.values():
            assert len(curve) == ds.n_features

    def test_best_at_least_full_feature_accuracy(self):
        ds, plan, spec, rankings = self._setup()
        res = dimensionality_sweep(spec, ds, plan, rankings)
        for method, curve in res.curves.items():
            assert res.cv_accuracy >= curve[-1]

    def test_tie_prefers_smaller_k_then_earlier_method(self):
        # Duplicate-column dataset: every k gives the same accuracy, so
        # the tie rules alone determine the winner.
        rng = np.random.default_rng(12)
        x = rng.normal(size=100)
        y = (x > 0).astype(int)
        from genflow import Dataset
        X = np.column_stack([x, x, x])
        ds = Dataset(X, y, ("a", "b", "c"), ("n", "p"))
        plan = make_interleaved_folds(ds, 5, seed=0)
        res = dimensionality_sweep(ModelSpec("logreg", {}), ds, plan,
                                   [fisher_score(ds), mutual_information(ds, 4)])
        assert res.best_k == 1
        assert res.best_method == "fisher"

    def test_determinism(self):
        ds, plan, spec, rankings = self._setup()
        a = dimensionality_sweep(spec, ds, plan, rankings)
        b = dimensionality_sweep(spec, ds, plan, rankings)
        assert a == b

    def test_cv_accuracy_matches_manual_refit(self):
        ds, plan, spec, rankings = self._setup()
        res = dimensionality_sweep(spec, ds, plan, rankings)
        from genflow import project_top_k
        ranking = next(r for r in rankings if r.method == res.best_method)
        manual, _ = cv_accuracy(spec, project_top_k(ds, ranking, res.best_k), plan)
        assert manual == res.cv_accuracy
