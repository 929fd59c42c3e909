"""The softmax code against the reference in ``tests/linear_reference.py``:
equal coefficients (float hex) and convergence flags from the multinomial
fit, and bit-equal losses, gradients and scores from every softmax site."""

import numpy as np
from hypothesis import given, settings, strategies as st

from genflow import Dataset
from genflow.models import ModelSpec, fit_model
from genflow.models.base import row_max
from genflow.models.linear import MultinomialLogregModel, softmax_nll_grad
from genflow.models.neural import NeuralNetModel, nn_loss_grad
from tests import linear_reference as reference

# Entries that exercise the row maxima: signed zeros, infinities, ties.
SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, 1.0, -1.0, 2.5])


def hexes(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


@st.composite
def softmax_tasks(draw, max_rows=48):
    """C 2-12 classes, all present, n >= C rows of d 1-6 features, with
    duplicated rows and constant columns in any mix."""
    C = draw(st.integers(2, 12))
    n = draw(st.integers(C, max(C, max_rows)))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.permutation(np.arange(n) % C)
    X = rng.normal(size=(n, d)) + draw(st.floats(0.0, 3.0)) * (y[:, None] % 3)
    for j in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            X[:, j] = draw(st.sampled_from([0.0, -2.5, 7.0]))
    if draw(st.booleans()):  # duplicated rows
        k = draw(st.integers(1, n // 2 or 1))
        X[n - k:] = X[:k]
    l2 = draw(st.sampled_from([1e-6, 1e-3, 1.0]))
    return X, y, C, l2


@settings(max_examples=60, deadline=None)
@given(task=softmax_tasks())
def test_multinomial_fit_matches_reference(task):
    X, y, C, l2 = task
    data = Dataset(X, y, tuple(f"f{j}" for j in range(X.shape[1])),
                   tuple(f"c{i}" for i in range(C)), "toy")
    model = fit_model(ModelSpec("multinomial_logreg", {"l2": l2}), data)
    coef, converged = reference.fit_multinomial(X, y, C, l2)
    assert hexes(model.coef) == hexes(coef)
    assert model.converged == converged


@settings(max_examples=60, deadline=None)
@given(task=softmax_tasks(max_rows=200), scale=st.sampled_from([0.0, 0.1, 3.0, 40.0]))
def test_nll_grad_composition_matches_reference(task, scale):
    X, y, C, l2 = task
    rng = np.random.default_rng(len(y))
    B = scale * rng.normal(size=(C, X.shape[1] + 1))
    nll, G = softmax_nll_grad(B, X, y, l2)
    ref_nll, ref_G = reference.softmax_nll_grad(B, X, y, l2)
    assert nll.hex() == ref_nll.hex()
    assert hexes(G) == hexes(ref_G)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), C=st.integers(1, 13), seed=st.integers(0, 2**32 - 1))
def test_row_max_equals_numpy_max(n, C, seed):
    Z = np.random.default_rng(seed).choice(SPECIAL, size=(n, C))
    # Equal values; the sign of a zero maximum is not pinned (see row_max).
    np.testing.assert_array_equal(row_max(Z), Z.max(axis=1))
    assert row_max(Z[:, ::-1]).tolist() == Z.max(axis=1).tolist()


@st.composite
def softmax_layers(draw):
    """Weights and inputs for a C-output layer, some drawn from SPECIAL so
    scores tie, hit signed zeros and overflow."""
    C = draw(st.integers(3, 12))
    n = draw(st.integers(C, 60))
    d = draw(st.integers(1, 6))
    hidden = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.booleans())

    def arr(*shape):
        return rng.choice(SPECIAL, size=shape) if special else rng.normal(size=shape)

    y = rng.permutation(np.arange(n) % C)
    return dict(C=C, X=arr(n, d), y=y, W1=arr(d, hidden),
                b1=arr(hidden), W2=arr(hidden, C), b2=arr(C),
                coef=arr(C, d + 1))


def assert_bit_equal(a, b):
    """Equal shapes and float hex, so -0.0 differs from 0.0; a NaN's sign
    and payload, which no caller reads, are not compared."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert hexes(a) == hexes(b)


@settings(max_examples=150, deadline=None)
@given(layer=softmax_layers())
def test_nn_multiclass_loss_grad_matches_reference(layer):
    args = [layer[k] for k in ("W1", "b1", "W2", "b2", "X", "y")]
    with np.errstate(all="ignore"):
        got = nn_loss_grad(*args, layer["C"])
        ref = reference.nn_loss_grad_multiclass(*args)
    for a, b in zip(got, ref):
        assert_bit_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(layer=softmax_layers())
def test_score_matrices_match_reference(layer):
    C, X = layer["C"], layer["X"]
    d = X.shape[1]
    names, classes = tuple(f"f{j}" for j in range(d)), tuple(f"c{i}" for i in range(C))
    mu = np.zeros(d)
    sd = np.ones(d)
    multi = MultinomialLogregModel(ModelSpec("multinomial_logreg"), names, classes,
                                   layer["coef"])
    net = NeuralNetModel(ModelSpec("neural_net"), names, classes, layer["W1"],
                         layer["b1"], layer["W2"], layer["b2"], mu, sd)
    with np.errstate(all="ignore"):
        assert_bit_equal(multi.score_matrix(X),
                         reference.multinomial_scores(layer["coef"], X))
        assert_bit_equal(net.score_matrix(X),
                         reference.neural_scores(layer["W1"], layer["b1"], layer["W2"],
                                                 layer["b2"], mu, sd, X))
