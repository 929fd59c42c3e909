"""The tree engine against the scalar reference growers in
``tests/tree_reference.py``: equal trees (float hex, compared through the
oracle's nested form), equal per-row leaf values, an equal random stream
after growth, and leaf lookups equal to the oracle's recursive walk."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow.models import ModelSpec, fit_model
from genflow.models.boosting import _logistic_loss
from genflow.models.tree import (
    NodeTable,
    grow_random_classification_tree,
    grow_regression_tree,
    presort,
    tree_predict,
)
from tests import tree_reference as reference
from tests.conftest import make_binary

COLUMN_KINDS = ("ties", "continuous", "constant", "signed_zeros")


@st.composite
def feature_matrices(draw, max_rows=160):
    """Integer columns with many ties, continuous columns, constant columns
    and columns mixing -0.0 with 0.0, in any mix, from 2 rows up."""
    n = draw(st.integers(2, max_rows))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        if kind == "ties":
            cols.append(rng.integers(1, draw(st.integers(2, 11)), size=n).astype(float))
        elif kind == "continuous":
            cols.append(rng.normal(scale=10.0, size=n))
        elif kind == "signed_zeros":
            cols.append(rng.choice([-0.0, 0.0, 1.0], size=n))
        else:
            cols.append(np.full(n, draw(st.sampled_from([0.0, -2.5, 7.0]))))
    return np.column_stack(cols), rng


def frozen(table: NodeTable, roots) -> SimpleNamespace:
    """The grown table as arrays, the layout a fitted ensemble holds."""
    return SimpleNamespace(roots=np.asarray(roots),
                           **{k: np.asarray(v) for k, v in table.columns().items()})


def as_doc(table, root: int) -> dict:
    return reference.tree_to_doc(reference.nested(table, root))


@settings(max_examples=150, deadline=None)
@given(data=feature_matrices(), leaves=st.integers(2, 48),
       discrete_g=st.booleans())
def test_regression_tree_matches_reference(data, leaves, discrete_g):
    X, rng = data
    n = len(X)
    if discrete_g:  # many tied gains
        g = rng.choice([-0.5, 0.25, 0.5], size=n)
    else:
        g = rng.normal(size=n)
    h = rng.uniform(0.01, 0.25, size=n)
    table = NodeTable()
    root, fitted = grow_regression_tree(X, g, h, leaves, presort(X), table)
    ref = reference.grow_regression_tree(X, g, h, leaves)
    assert as_doc(table, root) == reference.tree_to_doc(ref)
    ensemble = frozen(table, [root])
    assert fitted.tobytes() == ensemble.value[tree_predict(ensemble, X)[:, 0]].tobytes()
    assert fitted.tobytes() == reference.tree_predict(ref, X).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=feature_matrices(), n_classes=st.integers(2, 9),
       split_count=st.sampled_from([1, 2, 3, 8, 31, 128, 1024]),
       depth=st.sampled_from([1, 2, 3, 5, 16, 64]),
       seed=st.integers(0, 2**32 - 1))
def test_random_tree_matches_reference(data, n_classes, split_count, depth, seed):
    X, rng = data
    y = rng.integers(0, n_classes, size=len(X))
    new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    table = NodeTable()
    root = grow_random_classification_tree(X, y, n_classes, split_count, depth,
                                           new_rng, table)
    ref = reference.grow_random_classification_tree(X, y, n_classes, split_count,
                                                    depth, ref_rng)
    assert as_doc(table, root) == reference.tree_to_doc(ref)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def fresh_rows(ensemble, d, rng, n=64):
    """Rows drawn from each column's split thresholds, their float
    neighbours, +-0.0 and continuous values."""
    pool = [np.array([-0.0, 0.0]), rng.normal(scale=10.0, size=8)]
    split = ensemble.left >= 0
    cols = []
    for f in range(d):
        thr = ensemble.threshold[split & (ensemble.feature == f)]
        near = np.concatenate([thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf)])
        cols.append(rng.choice(np.concatenate(pool + [near]), size=n))
    return np.column_stack(cols)


@settings(max_examples=100, deadline=None)
@given(data=feature_matrices(), n_trees=st.integers(1, 4), leaves=st.integers(2, 24),
       n_classes=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_leaf_lookup_matches_recursive_walk(data, n_trees, leaves, n_classes, seed):
    """Several trees share one table; on unseen rows, including exact
    threshold values and signed zeros, every tree's leaf values equal the
    oracle's recursive walk of that tree bit for bit."""
    X, rng = data
    order = presort(X)
    boost, boost_roots = NodeTable(), []
    forest, forest_roots = NodeTable(), []
    tree_rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=len(X))
    for _ in range(n_trees):
        g = rng.normal(size=len(X))
        boost_roots.append(grow_regression_tree(X, g, np.ones(len(X)), leaves, order,
                                                boost)[0])
        forest_roots.append(grow_random_classification_tree(X, y, n_classes, 3, 8,
                                                            tree_rng, forest))
    for table, roots in ((boost, boost_roots), (forest, forest_roots)):
        ensemble = frozen(table, roots)
        Q = fresh_rows(ensemble, X.shape[1], rng)
        leaf = tree_predict(ensemble, Q)
        assert leaf.shape == (len(Q), n_trees)
        assert np.array_equal(tree_predict(ensemble, np.asfortranarray(Q)), leaf)
        for t, root in enumerate(roots):
            expected = reference.tree_predict(reference.nested(table, root), Q)
            assert ensemble.value[leaf[:, t]].tobytes() == expected.tobytes()


@pytest.mark.parametrize("lr", [0.3, 3.0, 10.0])
def test_boosted_margins_replay_the_training_loss(lr):
    """At large learning rates the halving guard shrinks or drops whole
    trees; scoring the fit rows must reproduce the last recorded loss."""
    ds = make_binary(n=300, d=6, sep=0.5, seed=3, noise_labels=True)
    with np.errstate(over="ignore"):
        model = fit_model(ModelSpec("boosted_tree", {"leaves": 40, "learning_rate": lr,
                                                     "trees": 40}), ds)
    y = ds.labels.astype(float)
    assert _logistic_loss(model._margins(ds.features), y) == model.loss_curve[-1]
