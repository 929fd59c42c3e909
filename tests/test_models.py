import json

import numpy as np
import pytest

from genflow import (
    Dataset,
    ModelError,
    ModelSpec,
    fit_model,
    model_from_document,
)
from genflow.models.neural import nn_grad
from tests import linear_reference as reference
from tests.conftest import make_binary, make_multiclass
from tests.linear_engine import logistic_nll_grad, softmax_nll_grad

SPECS = [
    ("logreg", {}),
    ("lssvm", {"lambda": 1e-4, "kernel_gamma": 0.25}),
    ("boosted_tree", {"leaves": 8, "learning_rate": 0.2, "trees": 25}),
    ("decision_forest", {"split_count": 32, "depth": 8, "ensemble_count": 8}),
    ("neural_net", {"learning_rate": 0.1, "hidden_nodes": 12}),
]


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ModelError, match="unknown model family"):
            ModelSpec("quantum_forest", {})

    def test_unknown_hyperparameter(self):
        with pytest.raises(ModelError, match="unknown hyperparameter"):
            ModelSpec("logreg", {"depth": 3})

    @pytest.mark.parametrize("family,params", [
        ("boosted_tree", {"leaves": 1}),
        ("boosted_tree", {"learning_rate": 0.0}),
        ("lssvm", {"lambda": 0.0}),
        ("lssvm", {"kernel_gamma": -1.0}),
        ("neural_net", {"hidden_nodes": 0}),
        ("decision_forest", {"depth": 0}),
    ])
    def test_constraint_violations(self, family, params):
        with pytest.raises(ModelError, match="violates constraint"):
            ModelSpec(family, params)


class TestLssvm:
    def test_symmetric_separable_pair(self):
        # 1-D: class 0 at x=-1, class 1 at x=+1, both reproduced.
        X = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        y = [0, 1, 0, 1]
        ds = Dataset(X, y, ("x",), ("a", "b"))
        m = fit_model(ModelSpec("lssvm", {"lambda": 1e-6, "kernel_gamma": 1.0}), ds)
        assert list(m.predict_labels(ds)) == y

    def test_dual_system_residual(self, binary_ds):
        m = fit_model(ModelSpec("lssvm", {"lambda": 1e-4, "kernel_gamma": 0.5}),
                      binary_ds)
        assert m.system_residual(binary_ds) <= 1e-8

    def test_requires_binary(self, multiclass_ds):
        with pytest.raises(ModelError, match="binary"):
            fit_model(ModelSpec("lssvm", {"lambda": 1e-4}), multiclass_ds)

    def test_monotone_squash_preserves_ranking(self, binary_ds):
        m = fit_model(ModelSpec("lssvm", {"lambda": 1e-4, "kernel_gamma": 0.5}),
                      binary_ds)
        f = m.decision_values(binary_ds.features)
        p = m.predict_scores(binary_ds)[:, 1]
        order_f = np.argsort(f, kind="stable")
        order_p = np.argsort(p, kind="stable")
        assert np.array_equal(order_f, order_p)


class TestLogreg:
    def test_positive_slope_on_shifted_data(self):
        # class-1 values exceed class-0 values -> fitted weight > 0 and
        # the score is strictly increasing in x (oracle: sign of the
        # score gradient).
        rng = np.random.default_rng(0)
        x0 = rng.normal(loc=-1.0, size=50)
        x1 = rng.normal(loc=1.0, size=50)
        X = np.concatenate([x0, x1])[:, None]
        y = [0] * 50 + [1] * 50
        m = fit_model(ModelSpec("logreg", {}), Dataset(X, y, ("x",), ("a", "b")))
        assert m.weights[0] > 0
        grid = Dataset(np.linspace(-3, 3, 20)[:, None], [0, 1] * 10,
                       ("x",), ("a", "b"))
        p = m.predict_scores(grid)[:, 1]
        assert (np.diff(p) > 0).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 12, 3
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.normal(size=d + 1)
        _, g = logistic_nll_grad(w, X, y, l2=1e-3)
        num = np.empty_like(g)
        h = 1e-6
        for i in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            num[i] = (logistic_nll_grad(wp, X, y, 1e-3)[0]
                      - logistic_nll_grad(wm, X, y, 1e-3)[0]) / (2 * h)
        assert np.linalg.norm(g - num) <= 1e-5 * max(np.linalg.norm(num), 1.0)


class TestMultinomial:
    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, d, C = 10, 2, 3
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        B = rng.normal(size=(C, d + 1))
        _, G = softmax_nll_grad(B, X, y, l2=1e-3)
        num = np.empty_like(G)
        h = 1e-6
        for i in range(C):
            for j in range(d + 1):
                Bp, Bm = B.copy(), B.copy()
                Bp[i, j] += h
                Bm[i, j] -= h
                num[i, j] = (softmax_nll_grad(Bp, X, y, 1e-3)[0]
                             - softmax_nll_grad(Bm, X, y, 1e-3)[0]) / (2 * h)
        assert np.linalg.norm(G - num) <= 1e-5 * max(np.linalg.norm(num), 1.0)

    def test_zero_coefficients_give_uniform_rows(self):
        from genflow.models.linear import MultinomialLogregModel
        m = MultinomialLogregModel(ModelSpec("multinomial_logreg", {}),
                                   ("a", "b"), ("x", "y", "z"),
                                   np.zeros((3, 3)))
        S = m.score_matrix(np.random.default_rng(0).normal(size=(5, 2)))
        assert np.allclose(S, 1 / 3)

    def test_binary_reduction_to_logistic(self):
        # For C=2, Eq-9 style softmax reduces to the logistic form with
        # parameter difference B1 - B0.
        from genflow.models.linear import MultinomialLogregModel
        rng = np.random.default_rng(1)
        B = rng.normal(size=(2, 4))
        m = MultinomialLogregModel(ModelSpec("multinomial_logreg", {}),
                                   ("a", "b", "c"), ("x", "y"), B)
        X = rng.normal(size=(50, 3))
        p_soft = m.score_matrix(X)[:, 1]
        diff = B[1] - B[0]
        p_logit = 1.0 / (1.0 + np.exp(-(diff[0] + X @ diff[1:])))
        assert np.allclose(p_soft, p_logit, atol=1e-12)


class TestBoostedTree:
    def test_training_loss_monotone(self, binary_ds):
        m = fit_model(ModelSpec("boosted_tree",
                                {"leaves": 6, "learning_rate": 0.3, "trees": 40}),
                      binary_ds)
        curve = np.array(m.loss_curve)
        assert (np.diff(curve) <= 1e-9).all()

    def test_fits_nonlinear_boundary(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(300, 2))
        y = ((X[:, 0] * X[:, 1]) > 0).astype(int)  # XOR-like
        ds = Dataset(X, y, ("a", "b"), ("n", "p"))
        m = fit_model(ModelSpec("boosted_tree",
                                {"leaves": 8, "learning_rate": 0.3, "trees": 50}), ds)
        assert np.mean(m.predict_labels(ds) == y) > 0.95


class TestForest:
    def test_deterministic_given_seed(self, binary_ds):
        spec = ModelSpec("decision_forest",
                         {"split_count": 16, "depth": 6, "ensemble_count": 5},
                         seed=9)
        a = fit_model(spec, binary_ds)
        b = fit_model(spec, binary_ds)
        assert a.to_document() == b.to_document()
        assert np.array_equal(a.predict_scores(binary_ds),
                              b.predict_scores(binary_ds))

    def test_different_seed_differs(self, binary_ds):
        spec1 = ModelSpec("decision_forest",
                          {"split_count": 16, "depth": 6, "ensemble_count": 5},
                          seed=1)
        spec2 = ModelSpec("decision_forest",
                          {"split_count": 16, "depth": 6, "ensemble_count": 5},
                          seed=2)
        a = fit_model(spec1, binary_ds)
        b = fit_model(spec2, binary_ds)
        assert a.to_document() != b.to_document()

    def test_multiclass_votes(self, multiclass_ds):
        spec = ModelSpec("decision_forest",
                         {"split_count": 32, "depth": 8, "ensemble_count": 9})
        m = fit_model(spec, multiclass_ds)
        acc = np.mean(m.predict_labels(multiclass_ds) == multiclass_ds.labels)
        assert acc > 0.9


class TestNeuralNet:
    @pytest.mark.parametrize("seed", range(10))
    def test_binary_gradient_check(self, seed):
        rng = np.random.default_rng(200 + seed)
        n, d, hidden = 8, 3, 4
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        W1 = rng.normal(size=(d, hidden))
        b1 = rng.normal(size=hidden)
        W2 = rng.normal(size=(hidden, 1))
        b2 = rng.normal(size=1)
        self._check(W1, b1, W2, b2, X, y, n_classes=2)

    @pytest.mark.parametrize("seed", range(10))
    def test_multiclass_gradient_check(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, d, hidden, C = 8, 3, 4, 3
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        W1 = rng.normal(size=(d, hidden))
        b1 = rng.normal(size=hidden)
        W2 = rng.normal(size=(hidden, C))
        b2 = rng.normal(size=C)
        self._check(W1, b1, W2, b2, X, y, n_classes=C)

    @staticmethod
    def _check(W1, b1, W2, b2, X, y, n_classes):
        gW1, gb1, gW2, gb2 = nn_grad(W1, b1, W2, b2, X, y, n_classes)
        h = 1e-6

        def loss(*params):
            return reference.nn_loss_grad(*params, X, y)[0]

        for arr, grad in ((W1, gW1), (b1, gb1), (W2, gW2), (b2, gb2)):
            num = np.empty_like(grad)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss(W1, b1, W2, b2)
                arr[idx] = orig - h
                dn = loss(W1, b1, W2, b2)
                arr[idx] = orig
                num[idx] = (up - dn) / (2 * h)
            denom = max(np.linalg.norm(num), 1.0)
            assert np.linalg.norm(grad - num) <= 1e-4 * denom

    def test_learns_separable_data(self):
        ds = make_binary(n=150, sep=2.0, seed=8)
        m = fit_model(ModelSpec("neural_net",
                                {"learning_rate": 0.5, "hidden_nodes": 8}), ds)
        assert np.mean(m.predict_labels(ds) == ds.labels) > 0.95


class TestScoreContract:
    @pytest.mark.parametrize("family,params", SPECS)
    def test_rows_sum_to_one(self, family, params, binary_ds):
        m = fit_model(ModelSpec(family, params, seed=1), binary_ds)
        S = m.predict_scores(binary_ds)
        assert S.shape == (binary_ds.n_samples, 2)
        assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-9
        assert (S >= 0).all()

    def test_multiclass_rows_sum_to_one(self, multiclass_ds):
        for family, params in [
            ("multinomial_logreg", {}),
            ("neural_net", {"learning_rate": 0.1, "hidden_nodes": 6}),
            ("decision_forest", {"split_count": 16, "depth": 6, "ensemble_count": 5}),
            ("ova_boosted_tree", {"leaves": 4, "learning_rate": 0.3, "trees": 10}),
            ("ova_svm", {"lambda": 1e-4, "kernel_gamma": 0.5}),
        ]:
            m = fit_model(ModelSpec(family, params, seed=2), multiclass_ds)
            S = m.predict_scores(multiclass_ds)
            assert S.shape == (multiclass_ds.n_samples, 3)
            assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-9

    def test_argmax_invariant_under_increasing_transform(self, binary_ds):
        m = fit_model(ModelSpec("logreg", {}), binary_ds)
        S = m.predict_scores(binary_ds)
        raw = np.argmax(S, axis=1)
        transformed = np.argmax(np.sqrt(S + 1.0), axis=1)
        assert np.array_equal(raw, transformed)

    def test_schema_mismatch_rejected(self, binary_ds):
        from genflow.dataset import DataError
        m = fit_model(ModelSpec("logreg", {}), binary_ds)
        other = Dataset(binary_ds.features, binary_ds.labels,
                        tuple(f"g{i}" for i in range(binary_ds.n_features)),
                        binary_ds.class_names)
        with pytest.raises(DataError, match="schema"):
            m.predict_scores(other)

    def test_training_accuracy_reproducible_after_fit(self, binary_ds):
        # Scoring the training set twice gives identical results.
        m = fit_model(ModelSpec("boosted_tree",
                                {"leaves": 4, "learning_rate": 0.2, "trees": 10}),
                      binary_ds)
        a = m.predict_scores(binary_ds)
        b = m.predict_scores(binary_ds)
        assert np.array_equal(a, b)


class TestOneVsAll:
    def test_binary_equivalence(self, binary_ds):
        single = fit_model(ModelSpec("logreg", {}, seed=0), binary_ds)
        ova = fit_model(ModelSpec("ova_logreg", {}, seed=0), binary_ds)
        p = single.predict_scores(binary_ds)[:, 1]
        thresholded = (p >= 0.5).astype(int)
        assert np.array_equal(ova.predict_labels(binary_ds), thresholded)

    def test_three_class_separated_means(self):
        ds = make_multiclass(n=240, sep=6.0, seed=11)
        ova = fit_model(ModelSpec("ova_logreg", {}, seed=0), ds)
        pred = ova.predict_labels(ds)
        # Oracle: per-class scores enumerated directly from the members.
        per_class = np.column_stack(
            [m.predict_scores(
                Dataset(ds.features, (ds.labels == c).astype(int),
                        ds.feature_names, ("rest", ds.class_names[c])))[:, 1]
             for c, m in enumerate(ova.members)]
        )
        assert np.array_equal(pred, np.argmax(per_class, axis=1))
        assert np.mean(pred == ds.labels) > 0.98

    def test_empty_class_rejected(self):
        from genflow.dataset import DataError
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(10, 2)), [0] * 5 + [1] * 5,
                     ("a", "b"), ("x", "y", "z"))  # class 2 declared, absent
        with pytest.raises(DataError, match="no training samples"):
            fit_model(ModelSpec("ova_logreg", {}), ds)


class TestSerialization:
    @pytest.mark.parametrize("family,params", SPECS)
    def test_binary_round_trip_exact(self, family, params, binary_ds):
        m = fit_model(ModelSpec(family, params, seed=5), binary_ds)
        doc = json.loads(json.dumps(m.to_document()))
        m2 = model_from_document(doc)
        assert np.array_equal(m.predict_scores(binary_ds),
                              m2.predict_scores(binary_ds))

    def test_ova_round_trip_exact(self, multiclass_ds):
        m = fit_model(ModelSpec("ova_boosted_tree",
                                {"leaves": 4, "learning_rate": 0.3, "trees": 8},
                                seed=5), multiclass_ds)
        doc = json.loads(json.dumps(m.to_document()))
        m2 = model_from_document(doc)
        assert np.array_equal(m.predict_scores(multiclass_ds),
                              m2.predict_scores(multiclass_ds))
