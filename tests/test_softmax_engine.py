"""The linear engines against the reference in ``tests/linear_reference.py``:
equal coefficients and weights (float hex) and convergence flags from the
multinomial and binary logistic fits and the neural net's fits, and
bit-equal losses, gradients and scores from every softmax site."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genflow import Dataset, make_interleaved_folds, stratified_split
from genflow.models import ModelSpec, fit_model
from genflow.models.base import row_max
from genflow.models.linear import MultinomialLogregModel, _class_sums
from genflow.models.neural import NeuralNetModel, nn_grad
from tests import linear_reference as reference
from tests.linear_engine import softmax_nll_grad
from tests.conftest import make_imbalanced6, make_multiclass

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


def test_stalled_line_search_is_not_converged(monkeypatch):
    """When all 40 step halvings raise the NLL the fit stops at its start
    and does not claim convergence."""
    from genflow.models import linear
    real = linear.softmax_nll
    calls = []

    def rising(B, XT, label_at, l2):
        nll, ZT, logZ = real(B, XT, label_at, l2)
        calls.append(B)
        return (nll if len(calls) == 1 else np.inf), ZT, logZ

    monkeypatch.setattr(linear, "softmax_nll", rising)
    data = make_multiclass(n=60, d=3, n_classes=3, seed=2)
    model = fit_model(ModelSpec("multinomial_logreg", {"l2": 1e-6}), data)
    assert len(calls) == 41  # the start and 40 rejected trials
    assert model.converged is False
    assert not model.coef.any()


def six_class_fold() -> Dataset:
    """The 574 x 5 six-class fold ``scripts/bench_fits.py`` times: the 30%
    stratified training split of the seed-0 six-class set, restricted to the
    fit rows of the first of its five folds that hold every class."""
    train = stratified_split(make_imbalanced6(2400, seed=0), 0.30, 0).train
    for fit_rows, _ in make_interleaved_folds(train, 5, 0).folds():
        if len(np.unique(train.labels[fit_rows])) == train.n_classes:
            fold = train.restrict_rows(fit_rows)
            assert fold.features.shape == (574, 5)
            return fold
    raise AssertionError("no fold's fit rows hold every class")


@pytest.mark.parametrize("data", [
    pytest.param(six_class_fold, id="six-class-fold-574x5-C6"),
    pytest.param(lambda: make_multiclass(n=600, d=5, n_classes=9, sep=1.5, seed=9),
                 id="n600-C9"),
    pytest.param(lambda: make_multiclass(n=604, d=4, n_classes=12, sep=1.0, seed=12),
                 id="n604-C12"),
])
def test_fold_sized_multinomial_fit_matches_reference(data):
    data = data()
    assert set(data.labels.tolist()) == set(range(data.n_classes))
    model = fit_model(ModelSpec("multinomial_logreg", {"l2": 1e-6}), data)
    coef, converged = reference.fit_multinomial(data.features, data.labels,
                                                data.n_classes, 1e-6)
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


# exp of a large negative score underflows to 0.0; the rest are a negative
# zero, the smallest subnormal, an overflowed score and its negation.
SUM_SPECIAL = np.array([float(np.exp(-800.0)), -0.0, 5e-324, np.inf, -np.inf])


@settings(max_examples=150, deadline=None)
@given(C=st.integers(2, 700), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       special=st.floats(0.0, 0.5), zero_column=st.booleans())
@example(C=7, n=3, seed=0, special=0.0, zero_column=True)
@example(C=8, n=3, seed=1, special=0.3, zero_column=True)
@example(C=128, n=3, seed=2, special=0.0, zero_column=False)
@example(C=129, n=3, seed=3, special=0.1, zero_column=True)
@example(C=700, n=3, seed=4, special=0.0, zero_column=False)
def test_class_sums_follow_numpy_order(C, n, seed, special, zero_column):
    """Magnitudes 1e-17..1e2 make every reordering of a sum visible, so a
    NumPy release that sums rows in another order fails here.  A column of
    -0.0 sums to +0.0 in NumPy."""
    rng = np.random.default_rng(seed)
    E = rng.random((C, n)) * 10.0 ** rng.integers(-17, 3, size=(C, n))
    hit = rng.random((C, n)) < special
    E[hit] = rng.choice(SUM_SPECIAL, size=int(hit.sum()))
    if zero_column:
        E[:, -1] = -0.0
    with np.errstate(invalid="ignore"):
        got = _class_sums(E)
        want = np.ascontiguousarray(E.T).sum(axis=1)
    assert hexes(got) == hexes(want), "NumPy's row-sum order changed; update _class_sums"


@st.composite
def logistic_tasks(draw):
    """n 2-300 rows of d 1-9 features with both labels present, separable
    or overlapping, some columns constant."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    if draw(st.booleans()):  # separable on a random direction
        y = (X @ rng.normal(size=d) > 0).astype(int)
    else:
        y = (rng.random(n) < draw(st.floats(0.1, 0.9))).astype(int)
        X[:, 0] += draw(st.floats(0.0, 2.0)) * y
    y[:2] = (0, 1)
    for j in range(d):
        if draw(st.integers(0, 3)) == 0:
            X[:, j] = draw(st.sampled_from([0.0, 1.0, -4.5]))
    l2 = draw(st.sampled_from([1e-6, 1e-3, 1.0]))
    return X, y, l2


@settings(max_examples=80, deadline=None)
@given(task=logistic_tasks())
def test_logistic_fit_matches_reference(task):
    X, y, l2 = task
    data = Dataset(X, y, tuple(f"f{j}" for j in range(X.shape[1])), ("a", "b"), "toy")
    model = fit_model(ModelSpec("logreg", {"l2": l2}), data)
    intercept, weights, converged = reference.fit_logistic(X, y, l2)
    assert model.intercept.hex() == float(intercept).hex()
    assert hexes(model.weights) == hexes(weights)
    assert model.converged == converged


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
        got = nn_grad(*args, layer["C"])
        ref = reference.nn_loss_grad_multiclass(*args)[1:]
    for a, b in zip(got, ref, strict=True):
        assert_bit_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(layer=softmax_layers())
def test_nn_binary_grad_matches_reference(layer):
    """The sigmoid branch: the layer's first output column, 0/1 targets."""
    args = [layer["W1"], layer["b1"], layer["W2"][:, :1], layer["b2"][:1], layer["X"],
            layer["y"] % 2]
    with np.errstate(all="ignore"):
        got = nn_grad(*args, 2)
        ref = reference.nn_loss_grad_binary(*args)[1:]
    for a, b in zip(got, ref, strict=True):
        assert_bit_equal(a, b)


def assert_neural_fit_matches_reference(data: Dataset, learning_rate=0.04, hidden_nodes=25,
                                        seed=0):
    spec = ModelSpec("neural_net", {"learning_rate": learning_rate,
                                    "hidden_nodes": hidden_nodes}, seed=seed)
    model = fit_model(spec, data)
    *weights, converged = reference.fit_neural(data.features, data.labels, data.n_classes,
                                               learning_rate, hidden_nodes, seed)
    for name, ref in zip(NeuralNetModel.PAYLOAD, weights):
        assert hexes(getattr(model, name)) == hexes(ref), name
    assert model.converged == converged


def wbc_fold() -> Dataset:
    """A WBC-shaped fold: 699 rows of 9 integer features in 1..10 with many
    ties, about 35% positives and overlapping classes; the fit rows of the
    first of five folds of its 30% stratified training split."""
    rng = np.random.default_rng(0)
    y = (rng.random(699) < 241 / 699).astype(int)
    loc = np.where(y, 6.5, 2.0)[:, None]
    scale = np.where(y, 2.5, 1.5)[:, None]
    X = np.clip(np.rint(rng.normal(loc, scale, size=(699, 9))), 1, 10)
    data = Dataset(X, y, tuple(f"f{i}" for i in range(9)), ("2", "4"), "wbc")
    train = stratified_split(data, 0.30, 0).train
    fit_rows, _ = next(make_interleaved_folds(train, 5, 0).folds())
    fold = train.restrict_rows(fit_rows)
    assert fold.features.shape == (167, 9)
    return fold


@pytest.mark.parametrize("data", [
    pytest.param(wbc_fold, id="wbc-fold-167x9"),
    pytest.param(six_class_fold, id="six-class-fold-574x5-C6"),
    pytest.param(lambda: make_multiclass(n=600, d=5, n_classes=9, sep=1.5, seed=9),
                 id="n600-C9"),
])
def test_fold_sized_neural_fit_matches_reference(data):
    assert_neural_fit_matches_reference(data())


@settings(max_examples=30, deadline=None)
@given(task=logistic_tasks(), learning_rate=st.sampled_from([0.04, 0.5, 5.0]),
       hidden_nodes=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_binary_neural_fit_matches_reference(task, learning_rate, hidden_nodes, seed):
    X, y, _ = task
    data = Dataset(X, y, tuple(f"f{j}" for j in range(X.shape[1])), ("a", "b"), "toy")
    with np.errstate(all="ignore"):
        assert_neural_fit_matches_reference(data, learning_rate, hidden_nodes, seed)


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
