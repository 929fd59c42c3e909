"""Tabular dataset loading, validation, and stratified splitting.

Every other module consumes the (features, labels) representation owned
here.  Labels are always dense integer ids 0..C-1; the raw label values
seen in the input file are preserved in ``class_names``.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Dataset",
    "SplitPair",
    "DataError",
    "load_dataset",
    "stratified_split",
    "encode_sign_labels",
]


class DataError(ValueError):
    """Raised for unusable input data (bad file, bad labels, bad schema)."""


@dataclass(frozen=True)
class Dataset:
    """An N x d feature matrix with dense integer labels.

    Invariants enforced at construction: all feature values finite,
    N >= 2, d >= 1, one name per feature and every label in 0..C-1,
    where C = len(class_names).  A class may have no rows: row
    restrictions and hand-built sets can lack one.  ``load_dataset``
    names only classes that occur and requires two of them; one-vs-all
    fits reject an empty class.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if X.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"row mismatch: {X.shape[0]} feature rows vs {y.shape[0]} labels"
            )
        if X.shape[0] < 2 or X.shape[1] < 1:
            raise DataError(f"dataset too small: shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise DataError("non-finite feature values")
        if len(self.feature_names) != X.shape[1]:
            raise DataError("feature_names length mismatch")
        C = len(self.class_names)
        if y.size and (y.min() < 0 or y.max() >= C):
            raise DataError("labels out of range for class_names")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def restrict_rows(self, index: np.ndarray, source_suffix: str = "") -> "Dataset":
        """Row-subset view (copying) with labels kept as-is."""
        return replace(
            self,
            features=self.features[index],
            labels=self.labels[index],
            source_id=self.source_id + source_suffix,
        )


@dataclass(frozen=True)
class SplitPair:
    """A stratified train/test partition of one source dataset."""

    train: Dataset
    test: Dataset
    train_index: np.ndarray = field(default=None, repr=False)
    test_index: np.ndarray = field(default=None, repr=False)


def _dense_labels(raw: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Map raw label strings to dense ids, ordered by ascending raw value.

    Numeric-looking labels sort numerically so that e.g. raw labels
    {2, 4} become ids {0, 1} in that order.  Other labels, and one that
    parses to NaN, sort as text after every finite number.
    """
    uniq = sorted(set(raw), key=_label_key)
    mapping = {v: i for i, v in enumerate(uniq)}
    return np.array([mapping[v] for v in raw], dtype=int), tuple(uniq)


def _label_key(s: str) -> tuple[float, str]:
    try:
        v = float(s)
    except ValueError:
        v = math.nan
    # NaN compares false with everything, so it would leave the order to
    # set iteration, which follows the string-hash seed.
    return (math.inf if math.isnan(v) else v, s)


def _records(fh, delimiter: str, path):
    """The file's csv records; undecodable text and csv errors (such as an
    over-long field) are a DataError."""
    try:
        yield from csv.reader(fh, delimiter=delimiter)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable delimited text: {exc}") from exc


def load_dataset(path, label_column, na_policy: str = "fail",
                 delimiter: str = ",") -> Dataset:
    """Load a delimited text file (first row = header) into a Dataset.

    ``label_column`` is a header name or a 0-based column index.
    ``na_policy`` is ``fail`` (an unparsable cell or an empty label is an
    error) or ``drop_row`` (rows with either are discarded).
    """
    if na_policy not in ("fail", "drop_row"):
        raise DataError(f"unknown na_policy: {na_policy!r}")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DataError(f"delimiter must be one character, got {delimiter!r}")
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = _records(fh, delimiter, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if repeated := [h for h, k in Counter(header).items() if k > 1]:
            raise DataError(f"{path}: repeated column names {repeated}")
        if isinstance(label_column, int) or (
            isinstance(label_column, str) and label_column not in header
            and label_column.lstrip("-").isdigit()
        ):
            label_idx = int(label_column)
            if not -len(header) <= label_idx < len(header):
                raise DataError(f"label column index {label_idx} out of range")
            label_idx %= len(header)
        else:
            if label_column not in header:
                raise DataError(f"label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)

        feat_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        # Each complete row is appended to one flat buffer of C doubles, which
        # the feature matrix then wraps without a copy.
        values, raw_labels, dropped = array("d"), [], 0
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(rec)}")
            label = rec[label_idx].strip()
            vals = []
            for i, cell in enumerate(rec):
                if i == label_idx:
                    if label:
                        continue
                    problem = "empty label"  # a missing value, not a class
                else:
                    try:
                        v = float(cell)
                    except ValueError:
                        v = math.nan
                    if math.isfinite(v):
                        vals.append(v)
                        continue
                    problem = f"unparsable cell {cell!r}"
                if na_policy == "fail":
                    raise DataError(f"{path}:{lineno}: {problem} in column {header[i]!r}")
                dropped += 1
                break
            else:
                values.extend(vals)
                raw_labels.append(label)

    if len(set(raw_labels)) < 2:
        raise DataError(f"{path}: fewer than 2 distinct labels")
    labels, class_names = _dense_labels(raw_labels)
    data = Dataset(
        features=np.frombuffer(values).reshape(len(raw_labels), len(feat_names)),
        labels=labels,
        feature_names=feat_names,
        class_names=class_names,
        source_id=str(path),
    )
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with unparsable cells or empty labels")
    return data


def train_count(class_size: int, fraction: float) -> int:
    """Per-class training count: round-half-up of fraction * class_size."""
    return int(math.floor(fraction * class_size + 0.5))


def stratified_split(data: Dataset, train_fraction: float = 0.30,
                     seed: int = 0) -> SplitPair:
    """Seeded per-class shuffle; round-half-up share of each class trains.

    Warns (does not fail) when the training side is no larger than the
    feature count, which makes several model families ill-posed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0,1), got {train_fraction}")
    counts = data.class_counts()
    if counts.min() < 2:
        bad = int(np.argmin(counts))
        raise DataError(f"class {bad} has {counts[bad]} sample(s); need >= 2 per class")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(data.n_classes):
        rows = np.flatnonzero(data.labels == c)
        rows = rows[rng.permutation(rows.size)]
        k = train_count(rows.size, train_fraction)
        k = min(max(k, 1), rows.size - 1)  # keep both sides nonempty
        train_idx.append(rows[:k])
        test_idx.append(rows[k:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    if train_idx.size <= data.n_features:
        warnings.warn(
            f"training split has {train_idx.size} rows for {data.n_features} "
            "features; results may be unstable"
        )
    return SplitPair(
        train=data.restrict_rows(train_idx, "#train"),
        test=data.restrict_rows(test_idx, "#test"),
        train_index=train_idx,
        test_index=test_idx,
    )


def encode_sign_labels(data: Dataset) -> np.ndarray:
    """Binary labels {0,1} -> {-1,+1}.  Features are untouched."""
    if data.n_classes != 2:
        raise DataError(f"sign encoding needs a binary dataset, got C={data.n_classes}")
    return np.where(data.labels == 0, -1, 1).astype(int)
