"""The family registry: every record round-trips, resolves its grids and
agrees with the route tuples."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow import Dataset
from genflow.models import (
    BINARY_FAMILIES,
    FAMILIES,
    MULTICLASS_FAMILIES,
    ModelError,
    ModelSpec,
    fit_model,
    model_from_document,
)
from genflow.models.base import encode_array
from genflow.models.ova import OneVsAllModel
from genflow.selection import _resolve_spec


def grid_points(grid):
    names = list(grid)
    for values in itertools.product(*(grid[n] for n in names)):
        yield dict(zip(names, values))


def toy(n, d, n_classes, seed):
    """Every class present; features drawn from the seed."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % n_classes)
    X = rng.normal(size=(n, d)) + y[:, None]
    return Dataset(X, y, tuple(f"f{i}" for i in range(d)),
                   tuple(f"c{i}" for i in range(n_classes)), "toy")


CASES = [(name, c) for name, f in FAMILIES.items()
         for c in ((2,) if f.binary_only else (2, 3))]


class TestRecords:
    @pytest.mark.parametrize("name, n_classes", CASES)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_document_round_trip(self, name, n_classes, data):
        family = FAMILIES[name]
        point = data.draw(st.sampled_from(list(grid_points(family.thin_grid))
                                          + list(grid_points(family.grid))))
        d = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(4 * n_classes, 30))
        seed = data.draw(st.integers(0, 2**16))
        ds = toy(n, d, n_classes, seed)
        model = fit_model(_resolve_spec(name, point, d, seed), ds)
        doc = model.to_document()
        back = model_from_document(json.loads(json.dumps(doc)))
        assert back.to_document() == doc
        np.testing.assert_array_equal(back.predict_scores(ds), model.predict_scores(ds))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_every_grid_point_resolves(self, name):
        family = FAMILIES[name]
        for grid in (family.grid, family.thin_grid):
            for point in grid_points(grid):
                spec = _resolve_spec(name, point, 7, seed=0)
                assert isinstance(spec, ModelSpec) and spec.family == name

    def test_nested_tree_document_is_model_error(self):
        """A tree written as nested dicts, not as a node table."""
        doc = {"family": "boosted_tree", "hyperparameters": {"trees": 1}, "seed": 0,
               "feature_names": ["f0"], "class_names": ["a", "b"], "converged": True,
               "parameters": {
                   "base_score": (0.0).hex(),
                   "trees": [{"feature": 0, "threshold": (0.5).hex(),
                              "left": {"value": [(-0.25).hex()], "scalar": True},
                              "right": {"value": [(0.25).hex()], "scalar": True}}]}}
        with pytest.raises(ModelError, match="boosted_tree model document.*'roots'"):
            model_from_document(doc)

    def test_document_without_parameters_is_model_error(self):
        doc = fit_model(ModelSpec("logreg", {}), toy(12, 2, 2, 0)).to_document()
        del doc["parameters"]
        with pytest.raises(ModelError, match="logreg model document.*'parameters'"):
            model_from_document(doc)

    @pytest.mark.parametrize("family, n_classes", [("lssvm", 2), ("ova_svm", 3)])
    def test_signed_lssvm_document_is_model_error(self, family, n_classes):
        """An LS-SVM written in the signed form (``signs`` and ``alpha``, no
        ``coef``) fails to load rather than scoring with the wrong meaning."""
        doc = fit_model(ModelSpec(family, {"lambda": 1e-2}), toy(12, 2, n_classes, 0)
                        ).to_document()
        lssvm_docs = doc["parameters"]["members"] if family == "ova_svm" else [doc]
        for member in lssvm_docs:
            coef = member["parameters"].pop("coef")
            member["parameters"]["signs"] = encode_array(np.ones(coef["shape"]))
            member["parameters"]["alpha"] = coef
        with pytest.raises(ModelError, match="lssvm model document.*'coef'"):
            model_from_document(json.loads(json.dumps(doc)))

    def test_ova_records_share_their_base(self):
        ova = {n: f for n, f in FAMILIES.items() if f.ova_base}
        assert sorted(ova) == ["ova_boosted_tree", "ova_logreg", "ova_svm"]
        for family in ova.values():
            base = FAMILIES[family.ova_base]
            assert family.model is OneVsAllModel and not family.binary_only
            assert not base.ova_base
            assert (family.schema, family.grid, family.thin_grid, family.complexity) == (
                base.schema, base.grid, base.thin_grid, base.complexity)

    def test_route_tuples_name_registry_keys(self):
        assert set(BINARY_FAMILIES) <= set(FAMILIES)
        assert set(MULTICLASS_FAMILIES) <= set(FAMILIES)
        assert not [f for f in MULTICLASS_FAMILIES if FAMILIES[f].binary_only]


class TestOneShape:
    """A model class is its PAYLOAD, its ``fit(spec, train)`` and a scorer;
    ``TrainedModel`` is the one constructor."""

    @pytest.mark.parametrize("name", ["ova_logreg", "ova_boosted_tree", "ova_svm"])
    def test_ova_fits_through_its_record(self, name):
        ds = toy(24, 3, 3, seed=5)
        point = next(grid_points(FAMILIES[name].thin_grid))
        spec = _resolve_spec(name, point, 3, seed=2)
        direct = FAMILIES[name].model.fit(spec, ds)
        assert direct.to_document() == fit_model(spec, ds).to_document()
        assert [m.spec.seed for m in direct.members] == [2, 3, 4]

    def test_payload_count_mismatch_is_type_error(self):
        from genflow.models.linear import LogisticRegressionModel
        with pytest.raises(TypeError, match="intercept"):
            LogisticRegressionModel(ModelSpec("logreg"), ("f0",), ("a", "b"), 0.5)

    def test_payload_storage_types(self):
        ds = toy(20, 2, 2, seed=1)
        boost = fit_model(ModelSpec("boosted_tree", {"trees": 3, "leaves": 2}), ds)
        assert type(boost.base_score) is float
        assert boost.roots.dtype == np.intp and boost.threshold.dtype == float
        assert len(boost.loss_curve) == 4
        loaded = model_from_document(json.loads(json.dumps(boost.to_document())))
        assert loaded.loss_curve == [] and type(loaded.base_score) is float
        assert loaded.feature.dtype == np.intp
        logreg = fit_model(ModelSpec("logreg"), ds)
        assert type(logreg.intercept) is float and logreg.weights.dtype == float

    def test_unconverged_fit_serializes(self, monkeypatch):
        """A Newton loop that runs out of iterations reads its flag from a
        NumPy comparison; the document must still be JSON."""
        from genflow.models import linear
        monkeypatch.setattr(linear, "MAX_NEWTON_ITER", 1)
        model = fit_model(ModelSpec("logreg"), toy(20, 2, 2, seed=1))
        doc = json.loads(json.dumps(model.to_document()))
        assert doc["converged"] is False
        assert model_from_document(doc).converged is False
