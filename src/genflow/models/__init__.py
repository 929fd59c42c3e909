"""Classifier zoo with a uniform fit/score interface.

Binary families: lssvm, logreg, boosted_tree, decision_forest,
neural_net.  Multi-class families: every family that is not
``binary_only``: multinomial_logreg, neural_net, decision_forest and the
one-vs-all ova_logreg, ova_boosted_tree and ova_svm.  Every fitted model
scores a dataset into an N x C matrix whose rows sum to 1.

``FAMILIES`` holds one record per family: its model class, hyperparameter
schema, complexity rank, both sweep grids and, for the LS-SVM families, the
memory bound of a fit.  ``BINARY_FAMILIES`` and ``MULTICLASS_FAMILIES`` give
each route's default sweep and its order; ``MULTICLASS_FAMILIES`` leaves out
ova_logreg, which must be requested.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from ..dataset import Dataset
from .base import ModelError, ModelSpec, TrainedModel, document_field
from .linear import LogisticRegressionModel, MultinomialLogregModel
from .lssvm import LssvmModel, peak_bytes
from .boosting import BoostedTreeModel
from .forest import DecisionForestModel
from .neural import NeuralNetModel
from .ova import OneVsAllModel

__all__ = [
    "ModelSpec",
    "TrainedModel",
    "ModelError",
    "Family",
    "FAMILIES",
    "BINARY_FAMILIES",
    "MULTICLASS_FAMILIES",
    "fit_model",
    "model_from_document",
    "validate_spec",
]


@dataclass(frozen=True)
class Family:
    """Everything the pipeline knows about one model family."""

    model: type[TrainedModel]
    schema: dict[str, tuple]  # hyperparameter -> (validator, constraint text)
    complexity: int  # simpler families win ties at equal CV accuracy
    grid: dict[str, list]
    thin_grid: dict[str, list]  # one mid point each, for large datasets
    binary_only: bool = False
    ova_base: str | None = None  # one-vs-all over this binary family
    # Bytes a fit on n rows holds beside the rows, for a family whose fit
    # can outgrow memory (the LS-SVM system); 0 for the others.
    fit_bytes: Callable[[int], int] = lambda n_fit: 0


_POSITIVE = (lambda v: v > 0, "> 0")
_GE_ONE = (lambda v: v >= 1 and float(v).is_integer(), "integer >= 1")
_GE_TWO = (lambda v: v >= 2 and float(v).is_integer(), "integer >= 2")

# Default grids include every winning value reported for these model
# families, so the sweep can land on the published optima.  The record
# order is the order of the report's ``config.grids``.
FAMILIES: dict[str, Family] = {
    "boosted_tree": Family(
        BoostedTreeModel,
        {"leaves": _GE_TWO, "learning_rate": _POSITIVE, "trees": _GE_ONE},
        complexity=3,
        grid={"leaves": [10, 20, 40], "learning_rate": [0.04, 0.1, 0.2],
              "trees": [50, 100, 200]},
        thin_grid={"leaves": [20], "learning_rate": [0.2], "trees": [100]},
        binary_only=True,
    ),
    "lssvm": Family(
        LssvmModel,
        {"lambda": _POSITIVE, "kernel_gamma": _POSITIVE},
        complexity=1,
        # kernel_gamma_scale is multiplied by 1/d at fit time
        grid={"lambda": [1e-6, 1e-4, 1e-2], "kernel_gamma_scale": [0.1, 1.0, 10.0]},
        thin_grid={"lambda": [1e-6], "kernel_gamma_scale": [1.0]},
        binary_only=True,
        fit_bytes=peak_bytes,
    ),
    "neural_net": Family(
        NeuralNetModel,
        {"learning_rate": _POSITIVE, "hidden_nodes": _GE_ONE},
        complexity=4,
        grid={"learning_rate": [0.01, 0.04, 0.1], "hidden_nodes": [25, 100]},
        thin_grid={"learning_rate": [0.04], "hidden_nodes": [25]},
    ),
    "decision_forest": Family(
        DecisionForestModel,
        {"split_count": _GE_ONE, "depth": _GE_ONE, "ensemble_count": _GE_ONE},
        complexity=2,
        grid={"split_count": [128, 1024], "depth": [16, 64], "ensemble_count": [8, 32]},
        thin_grid={"split_count": [128], "depth": [16], "ensemble_count": [8]},
    ),
    "logreg": Family(
        LogisticRegressionModel, {"l2": _POSITIVE}, complexity=0,
        grid={"l2": [1e-6]}, thin_grid={"l2": [1e-6]}, binary_only=True,
    ),
    "multinomial_logreg": Family(
        MultinomialLogregModel, {"l2": _POSITIVE}, complexity=0,
        grid={"l2": [1e-6]}, thin_grid={"l2": [1e-6]},
    ),
}
FAMILIES.update({
    name: replace(FAMILIES[base], model=OneVsAllModel, binary_only=False, ova_base=base)
    for name, base in (("ova_logreg", "logreg"), ("ova_boosted_tree", "boosted_tree"),
                       ("ova_svm", "lssvm"))
})

BINARY_FAMILIES = ("lssvm", "logreg", "boosted_tree", "decision_forest", "neural_net")
MULTICLASS_FAMILIES = (
    "multinomial_logreg",
    "neural_net",
    "decision_forest",
    "ova_boosted_tree",
    "ova_svm",
)


def validate_spec(family: str, hyperparameters: dict) -> None:
    if family not in FAMILIES:
        raise ModelError(f"unknown model family {family!r}")
    schema = FAMILIES[family].schema
    for name, value in hyperparameters.items():
        if name not in schema:
            raise ModelError(f"{family}: unknown hyperparameter {name!r}")
        check, desc = schema[name]
        if not check(value):
            raise ModelError(f"{family}: {name}={value!r} violates constraint {desc}")


def fit_model(spec: ModelSpec, train: Dataset) -> TrainedModel:
    """Fit any family; deterministic given (spec, train)."""
    family = FAMILIES[spec.family]
    if family.binary_only and train.n_classes != 2:
        raise ModelError(f"{spec.family} requires a binary dataset (C=2), "
                         f"got C={train.n_classes}")
    return family.model.fit(spec, train)


def model_from_document(doc: dict) -> TrainedModel:
    """Inverse of ``TrainedModel.to_document`` (exact float round-trip).

    A missing or malformed field raises ``ModelError`` naming the family
    and the field.
    """
    family = document_field("model document", doc, "family", str)
    where = f"{family} model document"
    spec = ModelSpec(family, document_field(where, doc, "hyperparameters", dict),
                     seed=doc.get("seed", 0))
    return FAMILIES[family].model.from_payload(
        spec, document_field(where, doc, "feature_names", tuple),
        document_field(where, doc, "class_names", tuple),
        document_field(where, doc, "parameters"), converged=doc.get("converged", True),
    )
