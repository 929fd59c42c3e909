"""One-vs-all reduction: C binary models, predict the class whose model
gives the highest positive score."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..dataset import Dataset, DataError
from .base import ModelSpec, TrainedModel, document_field

__all__ = ["OneVsAllModel"]


class OneVsAllModel(TrainedModel):
    def __init__(self, spec, feature_names, class_names, members):
        super().__init__(spec, feature_names, class_names,
                         converged=all(m.converged for m in members))
        self.members = list(members)

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "OneVsAllModel":
        """Member c is the family's ``ova_base`` fit on class c vs the rest,
        seeded ``spec.seed + c``."""
        from . import FAMILIES, fit_model  # the registry imports this module

        base = FAMILIES[spec.family].ova_base
        counts = train.class_counts()
        if (counts == 0).any():
            empty = int(np.argmin(counts))
            raise DataError(f"one-vs-all: class {empty} has no training samples")
        members = []
        for c in range(train.n_classes):
            view = replace(
                train,
                labels=(train.labels == c).astype(int),
                class_names=("rest", train.class_names[c]),
            )
            sub_spec = ModelSpec(base, dict(spec.hyperparameters), seed=spec.seed + c)
            members.append(fit_model(sub_spec, view))
        return cls(spec, train.feature_names, train.class_names, members)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        cols = [m.score_matrix(X)[:, 1] for m in self.members]
        return np.column_stack(cols)

    def _payload(self) -> dict:
        return {"members": [m.to_document() for m in self.members]}

    @classmethod
    def from_payload(cls, spec, feature_names, class_names, payload, converged=True):
        from . import model_from_document  # the registry imports this module

        members = document_field(f"{spec.family} model document parameters",
                                 payload, "members", list)
        return cls(spec, feature_names, class_names,
                   [model_from_document(m) for m in members])
