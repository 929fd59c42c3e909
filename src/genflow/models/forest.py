"""Bagged random decision forest; each tree votes for a class."""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import ModelSpec
from .tree import NodeTable, TreeEnsemble, grow_random_classification_tree, tree_predict

__all__ = ["DecisionForestModel"]


class DecisionForestModel(TreeEnsemble):
    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "DecisionForestModel":
        split_count = int(spec.param("split_count", 128))
        depth = int(spec.param("depth", 16))
        n_trees = int(spec.param("ensemble_count", 8))
        rng = np.random.default_rng(spec.seed)
        X, y, C = train.features, train.labels, train.n_classes
        table, roots = NodeTable(), []
        for _ in range(n_trees):
            rows = rng.integers(0, len(y), size=len(y))  # bootstrap
            roots.append(grow_random_classification_tree(
                X[rows], y[rows], C, split_count, depth, rng, table))
        return cls(spec, train.feature_names, train.class_names, roots,
                   *table.columns().values())

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        # Hard vote per tree (the most popular class), averaged.
        winners = np.argmax(self.value, axis=1)[tree_predict(self, X)]
        votes = winners[:, :, None] == np.arange(len(self.class_names))
        return votes.sum(axis=1) / len(self.roots)
