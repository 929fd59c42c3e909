"""Gradient-boosted decision trees on logistic loss.

Each round fits a leaf-count-limited regression tree to the negative
gradient of the logistic loss at the current margin; leaf values are
Newton steps, scaled by the learning rate.  A halving guard keeps the
training loss non-increasing round over round.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import ModelSpec, TrainedModel
from .tree import (
    grow_regression_tree,
    presort,
    tree_predict,
    tree_to_doc,
    tree_from_doc,
)

__all__ = ["BoostedTreeModel"]


def _logistic_loss(margin: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(np.logaddexp(0.0, margin) - y * margin))


class BoostedTreeModel(TrainedModel):
    def __init__(self, spec, feature_names, class_names, base_score, trees,
                 loss_curve=None):
        super().__init__(spec, feature_names, class_names)
        self.base_score = float(base_score)
        self.trees = trees
        self.loss_curve = loss_curve or []

    @classmethod
    def fit(cls, spec: ModelSpec, train: Dataset) -> "BoostedTreeModel":
        leaves = int(spec.param("leaves", 20))
        lr = float(spec.param("learning_rate", 0.1))
        n_trees = int(spec.param("trees", 100))
        X = train.features
        y = train.labels.astype(float)
        p0 = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        base = float(np.log(p0 / (1 - p0)))
        margin = np.full(len(y), base)
        trees = []
        loss = _logistic_loss(margin, y)
        curve = [loss]
        order = presort(X)  # X is the same in every round
        for _ in range(n_trees):
            p = 1.0 / (1.0 + np.exp(-margin))
            g = y - p
            h = np.maximum(p * (1 - p), 1e-12)
            tree, fitted = grow_regression_tree(X, g, h, leaves, order)
            step = lr * fitted
            # Newton leaves nearly always decrease the loss; halve the
            # contribution in the rare overshoot so the curve stays monotone.
            scale = 1.0
            for _ in range(20):
                new_loss = _logistic_loss(margin + scale * step, y)
                if new_loss <= loss:
                    break
                scale *= 0.5
            else:
                scale = 0.0
                new_loss = loss
            if scale != 1.0:
                _scale_leaves(tree, scale)
                step = step * scale
            margin = margin + step
            loss = new_loss
            trees.append(tree)
            curve.append(loss)
        return cls(spec, train.feature_names, train.class_names, base, trees, curve)

    def _margins(self, X: np.ndarray) -> np.ndarray:
        lr = float(self.spec.param("learning_rate", 0.1))
        m = np.full(len(X), self.base_score)
        for t in self.trees:
            m += lr * tree_predict(t, X)
        return m

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(self._margins(X), -500, 500)))

    def _payload(self) -> dict:
        return {
            "base_score": float(self.base_score).hex(),
            "trees": [tree_to_doc(t) for t in self.trees],
        }

    @classmethod
    def from_payload(cls, spec, feature_names, class_names, payload, converged=True):
        return cls(spec, feature_names, class_names,
                   float.fromhex(payload["base_score"]),
                   [tree_from_doc(d) for d in payload["trees"]])


def _scale_leaves(node, scale):
    if "value" in node:
        node["value"] = node["value"] * scale
    else:
        _scale_leaves(node["left"], scale)
        _scale_leaves(node["right"], scale)
