"""Shared model-spec / trained-model machinery for the classifier zoo."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset, DataError

__all__ = [
    "ModelSpec",
    "TrainedModel",
    "ModelError",
    "encode_array",
    "decode_array",
]


class ModelError(ValueError):
    pass


# L2 ridge for the logistic families is fixed (not swept) so separable
# data still has a unique optimum.
DEFAULT_L2 = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    """A classifier family plus hyperparameters and a seed."""

    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        from . import validate_spec  # the registry imports this module

        validate_spec(self.family, self.hyperparameters)

    def param(self, name: str, default=None):
        return self.hyperparameters.get(name, default)

    def key(self) -> tuple:
        return (self.family, tuple(sorted(self.hyperparameters.items())), self.seed)


class TrainedModel:
    """Base for all fitted predictors.

    Subclasses implement ``_positive_scores`` (binary families, P(class 1)
    per row) or override ``score_matrix`` (multi-class families).
    Instances are immutable by convention after ``fit``.
    """

    is_binary = True

    def __init__(self, spec: ModelSpec, feature_names: tuple[str, ...],
                 class_names: tuple[str, ...]):
        self.spec = spec
        self.feature_names = tuple(feature_names)
        self.class_names = tuple(class_names)
        self.converged = True

    def _check_schema(self, data: Dataset) -> None:
        if data.feature_names != self.feature_names:
            raise DataError(
                f"feature schema mismatch: model trained on {self.feature_names}, "
                f"got {data.feature_names}"
            )

    def predict_scores(self, data: Dataset) -> np.ndarray:
        """N x C matrix of class scores; every row sums to 1."""
        self._check_schema(data)
        scores = self.score_matrix(data.features)
        rows = scores.sum(axis=1, keepdims=True)
        rows[rows == 0] = 1.0
        return scores / rows

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        p = np.clip(self._positive_scores(X), 0.0, 1.0)
        return np.column_stack([1.0 - p, p])

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_labels(self, data: Dataset) -> np.ndarray:
        return np.argmax(self.predict_scores(data), axis=1)

    # Serialization: the learned parameters are the constructor arguments
    # named in PAYLOAD, saved as arrays in that order.  Families whose
    # parameters are not arrays override ``_payload`` and ``from_payload``.
    PAYLOAD: tuple[str, ...] = ()

    def _payload(self) -> dict:
        return {k: encode_array(getattr(self, k)) for k in self.PAYLOAD}

    @classmethod
    def from_payload(cls, spec, feature_names, class_names, payload, converged=True):
        model = cls(spec, feature_names, class_names,
                    **{k: decode_array(payload[k]) for k in cls.PAYLOAD})
        model.converged = converged
        return model

    def to_document(self) -> dict:
        return {
            "family": self.spec.family,
            "hyperparameters": dict(self.spec.hyperparameters),
            "seed": self.spec.seed,
            "feature_names": list(self.feature_names),
            "class_names": list(self.class_names),
            "converged": self.converged,
            "parameters": self._payload(),
        }


def encode_array(a: np.ndarray) -> dict:
    """Exact float round-trip via hexadecimal float strings."""
    arr = np.asarray(a, dtype=float)
    return {"shape": list(arr.shape), "hex": [v.hex() for v in arr.ravel().tolist()]}


def decode_array(doc: dict) -> np.ndarray:
    vals = np.array([float.fromhex(h) for h in doc["hex"]], dtype=float)
    return vals.reshape(doc["shape"])
