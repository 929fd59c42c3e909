"""Selection against the reference loops in ``tests/selection_reference.py``:
the same tables, winners, curves and out-of-fold labels, with each distinct
top-k prefix cross-validated once."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow import (
    DataError,
    Dataset,
    ModelSpec,
    SweepResult,
    dimensionality_sweep,
    make_interleaved_folds,
)
from genflow import flow, selection
from genflow.flow import select_best_model
from genflow.models import FAMILIES
from genflow.ranking import RankedFeatures
from tests import selection_reference as ref
from tests.conftest import make_binary

BINARY_GRIDS = {
    "logreg": {"l2": [1e-6, 1.0]},
    "lssvm": {"lambda": [1e-6, 1e-2], "kernel_gamma_scale": [1.0]},
}
MULTICLASS_GRIDS = {
    "ova_logreg": {"l2": [1e-6]},
    "multinomial_logreg": {"l2": [1e-6]},
}


def ranking(method: str, order) -> RankedFeatures:
    return RankedFeatures(method, np.zeros(len(order)), np.asarray(order))


def distinct_prefixes(rankings) -> int:
    return len({tuple(r.order[:k].tolist())
                for r in rankings for k in range(1, r.order.size + 1)})


def fit_counter(mp) -> list:
    """Record the family of every fit the selection module makes.  The
    fits stay in this process, where the spy sees them all."""
    calls = []
    original = selection.fit_model
    mp.setattr(selection, "second_core_free", lambda: False)

    def counted(spec, train):
        calls.append(spec.family)
        return original(spec, train)

    mp.setattr(selection, "fit_model", counted)
    return calls


@st.composite
def selection_cases(draw):
    """A small coarse-valued set (so accuracies tie often), a fold plan and
    rankings that share prefixes: one copies another's leading order, and
    one method may be listed twice."""
    n_classes = draw(st.sampled_from([2, 3]), label="n_classes")
    n = draw(st.integers(18, 45), label="n")
    d = draw(st.integers(2, 4), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    y = rng.permutation(np.arange(n) % n_classes)
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    X[:, 0] += y * draw(st.sampled_from([0.0, 1.0, 3.0]), label="separation")
    data = Dataset(X, y, tuple(f"f{i}" for i in range(d)),
                   tuple(f"c{i}" for i in range(n_classes)), "toy")
    folds = make_interleaved_folds(data, draw(st.integers(2, 4), label="folds"),
                                   seed=draw(st.integers(0, 9), label="fold seed"))
    first = draw(st.permutations(range(d)), label="first order")
    shared = draw(st.integers(1, d), label="shared prefix")
    rest = draw(st.permutations(first[shared:]), label="rest")
    rankings = [ranking("first", first), ranking("copy", first[:shared] + rest),
                ranking("other", draw(st.permutations(range(d)), label="other order"))]
    rankings = draw(st.permutations(rankings), label="method order")
    if draw(st.booleans(), label="list one twice"):
        rankings.append(rankings[draw(st.integers(0, 2), label="twice")])
    grids = BINARY_GRIDS if n_classes == 2 else MULTICLASS_GRIDS
    candidates = draw(st.permutations(list(grids)), label="candidates")
    return data, folds, rankings, grids, candidates


class TestAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(case=selection_cases())
    def test_same_selection_as_reference_loops(self, case):
        data, folds, rankings, grids, candidates = case
        best, leaderboard = select_best_model(candidates, data, folds, grids)
        ref_best, ref_leaderboard = ref.select_best_model(candidates, data, folds, grids)
        assert leaderboard == ref_leaderboard
        assert best == ref_best  # the winner's spec, accuracy and table

        with pytest.MonkeyPatch.context() as mp:
            calls = fit_counter(mp)
            dim = dimensionality_sweep(best.best_spec, data, folds, rankings)
        ref_dim = ref.dimensionality_sweep(best.best_spec, data, folds, rankings)
        assert dim == ref_dim  # method, k, accuracy and curves
        np.testing.assert_array_equal(dim.oof_labels, ref_dim.oof_labels)
        assert len(calls) == folds.fold_count * distinct_prefixes(rankings)


class TestDecisionTwoTies:
    """Decision 2 on made-up sweeps whose accuracies tie at 4 decimals, at
    full precision, or fail outright, across families of equal and of
    different complexity."""

    @settings(max_examples=300, deadline=None)
    @given(outcomes=st.lists(st.tuples(
        st.sampled_from(["logreg", "ova_logreg", "lssvm", "boosted_tree"]),
        st.sampled_from([0.8, 0.9, 0.90001, 0.90004, 0.90006]),
        st.booleans()), min_size=1, max_size=5))
    def test_same_winner_as_reference_loop(self, outcomes):
        data = make_binary(n=20)
        folds = make_interleaved_folds(data, 2, seed=0)
        by_family = {}
        for pos, (family, acc, failed) in enumerate(outcomes):
            by_family[f"{family}#{pos}"] = SweepResult(
                ModelSpec(family, seed=pos), 0.0 if failed else acc,
                [{"point": {}, "mean_accuracy": 0.0 if failed else acc,
                  "fold_accuracies": [], "note": "fit failed: x" if failed else ""}])

        def fake_sweep(name, grid, train, folds, seed=0):
            return by_family[name]

        results = []
        for module in (flow, ref):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, "sweep_parameters", fake_sweep)
                mp.setattr(module, "FAMILIES", FAMILIES | {
                    name: FAMILIES[name.split("#")[0]] for name in by_family})
                try:
                    results.append(module.select_best_model(
                        list(by_family), data, folds, {n: {} for n in by_family}))
                except DataError as exc:
                    results.append(str(exc))
        assert results[0] == results[1]


class TestFitCount:
    def test_one_cross_validation_per_distinct_prefix(self):
        ds = make_binary(n=60, d=4, seed=3)
        plan = make_interleaved_folds(ds, 5, seed=0)
        a = ranking("a", [2, 0, 1, 3])
        b = ranking("b", [2, 0, 3, 1])  # shares k = 1, 2 with a
        c = ranking("c", [1, 3, 0, 2])  # shares nothing: k = 4 is another column order
        rankings = [a, b, c, a]  # a listed twice adds no prefix
        assert distinct_prefixes(rankings) == 10
        with pytest.MonkeyPatch.context() as mp:
            calls = fit_counter(mp)
            res = dimensionality_sweep(ModelSpec("logreg", {"l2": 1e-6}), ds, plan,
                                       rankings)
        assert len(calls) == 5 * 10
        assert list(res.curves) == ["a", "b", "c"]
        assert res.curves["a"][:2] == res.curves["b"][:2]
