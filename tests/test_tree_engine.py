"""The tree engine against the scalar reference growers in
``tests/tree_reference.py``: equal tree documents (float hex), equal
per-row leaf values and an equal random stream after growth."""

import numpy as np
from hypothesis import given, settings, strategies as st

from genflow.models.tree import (
    grow_random_classification_tree,
    grow_regression_tree,
    presort,
    tree_predict,
    tree_to_doc,
)
from tests import tree_reference as reference

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
    tree, fitted = grow_regression_tree(X, g, h, leaves, presort(X))
    ref = reference.grow_regression_tree(X, g, h, leaves)
    assert tree_to_doc(tree) == tree_to_doc(ref)
    assert fitted.tobytes() == tree_predict(ref, X).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=feature_matrices(), n_classes=st.integers(2, 9),
       split_count=st.sampled_from([1, 2, 3, 8, 31, 128, 1024]),
       depth=st.sampled_from([1, 2, 3, 5, 16, 64]),
       seed=st.integers(0, 2**32 - 1))
def test_random_tree_matches_reference(data, n_classes, split_count, depth, seed):
    X, rng = data
    y = rng.integers(0, n_classes, size=len(X))
    new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tree = grow_random_classification_tree(X, y, n_classes, split_count, depth, new_rng)
    ref = reference.grow_random_classification_tree(X, y, n_classes, split_count,
                                                    depth, ref_rng)
    assert tree_to_doc(tree) == tree_to_doc(ref)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
