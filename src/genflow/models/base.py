"""Shared model-spec / trained-model machinery for the classifier zoo."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset, DataError

__all__ = [
    "ModelSpec",
    "TrainedModel",
    "ModelError",
    "encode_array",
    "decode_array",
    "document_field",
    "logistic_loss",
    "physical_memory_bytes",
    "row_max",
    "second_core_free",
    "softmax_rows",
    "squash",
    "standardize",
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


class TrainedModel:
    """Base for all fitted predictors.

    A model class is its ``PAYLOAD``, the names of its learned parameters;
    a classmethod ``fit(spec, train)`` that ends in ``cls(spec,
    feature_names, class_names, *payload, converged=...)``; and a scorer,
    ``_positive_scores`` (binary families, P(class 1) per row) or
    ``score_matrix`` (multi-class families).  The constructor stores the
    payload as attributes of those names: integer arrays stay integer,
    0-d values become Python floats, anything else a float64 array.
    Instances are immutable by convention after ``fit``.
    """

    PAYLOAD: tuple[str, ...] = ()

    def __init__(self, spec: ModelSpec, feature_names: tuple[str, ...],
                 class_names: tuple[str, ...], *payload, converged=True):
        if len(payload) != len(self.PAYLOAD):
            raise TypeError(f"{type(self).__name__} takes the {len(self.PAYLOAD)} "
                            f"payload values {self.PAYLOAD}, got {len(payload)}")
        self.spec = spec
        self.feature_names = tuple(feature_names)
        self.class_names = tuple(class_names)
        self.converged = bool(converged)  # a NumPy bool is not JSON
        for name, value in zip(self.PAYLOAD, payload):
            arr = np.asarray(value)
            if arr.dtype.kind != "i":
                arr = float(arr) if arr.ndim == 0 else np.asarray(arr, dtype=float)
            setattr(self, name, arr)

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

    # Serialization: the payload attributes, saved as arrays in PAYLOAD
    # order and passed back to the constructor in that order.  Only the
    # one-vs-all model, whose parameters are whole member models, overrides
    # ``_payload`` and ``from_payload``.
    def _payload(self) -> dict:
        return {k: encode_array(getattr(self, k)) for k in self.PAYLOAD}

    @classmethod
    def from_payload(cls, spec, feature_names, class_names, payload, converged=True):
        where = f"{spec.family} model document parameters"
        return cls(spec, feature_names, class_names, *(
            document_field(where, payload, k, decode_array) for k in cls.PAYLOAD),
            converged=converged)

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


def second_core_free() -> bool:
    """Whether this process may put its own work on a second core: BLAS
    runs one thread (the variable OpenBLAS reads, ``OPENBLAS_NUM_THREADS``
    then ``OMP_NUM_THREADS``, is 1) and the process may run on at least two
    CPUs.  The LS-SVM factor's second lane and the sweeps' fold helper run
    only then.  Beside a two-thread BLAS they would oversubscribe two
    cores: a 4565-row factor took 0.774 s on two lanes against one lane's
    0.553 s (2 vCPUs, OpenBLAS 0.3.31)."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return blas == "1" and (cpus or 1) >= 2


def physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def row_max(Z: np.ndarray) -> np.ndarray:
    """Row maxima of an N x C matrix, taken one column at a time.

    NumPy's ``Z.max(axis=1)`` is slow on narrow rows.  Maximum is exact,
    so the values are equal; for C >= 9 the sign of a zero maximum may
    differ, which no softmax shifted by it can see (exp(+-0) = 1).  Its
    callers are the row-major softmax sites: :func:`softmax_rows` and the
    neural net's multi-class gradient, ``nn_grad``; the multinomial fit is
    class-major and takes ``ZT.max(axis=0)``.
    """
    m = Z[:, 0].copy()
    for c in range(1, Z.shape[1]):
        np.maximum(m, Z[:, c], out=m)
    return m


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an N x C score matrix; shifts ``Z`` in place."""
    Z -= row_max(Z)[:, None]
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def logistic_loss(z: np.ndarray, y: np.ndarray) -> float:
    """Summed logistic loss sum(log(1 + exp(z)) - y z) of margins ``z``
    against 0/1 targets ``y``, computed stably."""
    return float(np.sum(np.logaddexp(0.0, z) - y * z))


def squash(z: np.ndarray) -> np.ndarray:
    """The logistic map 1 / (1 + exp(-z)), with z clipped to [-500, 500] so
    ``exp`` cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X - mu) / sd`` per column, with ``mu`` and ``sd``; a constant
    column keeps scale 1."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    return (X - mu) / sd, mu, sd


def encode_array(a: np.ndarray) -> dict:
    """Exact round-trip: integer arrays as JSON integers, anything else as
    hexadecimal float strings."""
    arr = np.asarray(a)
    if arr.dtype.kind == "i":
        return {"shape": list(arr.shape), "int": arr.ravel().tolist()}
    arr = arr.astype(float)
    return {"shape": list(arr.shape), "hex": [v.hex() for v in arr.ravel().tolist()]}


def decode_array(doc: dict) -> np.ndarray:
    if "int" in doc:
        return np.array(doc["int"], dtype=np.intp).reshape(doc["shape"])
    vals = np.array([float.fromhex(h) for h in doc["hex"]], dtype=float)
    return vals.reshape(doc["shape"])


def document_field(where: str, doc: dict, name: str, read=lambda v: v):
    """``read(doc[name])``; a missing or malformed field is a ``ModelError``."""
    try:
        return read(doc[name])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"{where}: field {name!r} is missing or malformed "
                         f"({type(exc).__name__}: {exc})") from exc
