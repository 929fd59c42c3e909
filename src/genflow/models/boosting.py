"""Gradient-boosted decision trees on logistic loss.

Each round fits a leaf-count-limited regression tree to the negative
gradient of the logistic loss at the current margin; leaf values are
Newton steps, scaled by the learning rate.  A halving guard keeps the
training loss non-increasing round over round.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import ModelSpec, logistic_loss as _logistic_loss, squash
from .tree import NodeTable, TreeEnsemble, grow_regression_tree, presort, tree_predict

__all__ = ["BoostedTreeModel"]


class BoostedTreeModel(TreeEnsemble):
    PAYLOAD = TreeEnsemble.PAYLOAD + ("base_score",)
    loss_curve: list[float] = []  # training loss per round; set by fit, not saved

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
        table, roots = NodeTable(), []
        loss = _logistic_loss(margin, y)
        curve = [loss]
        order = presort(X)  # X is the same in every round
        for _ in range(n_trees):
            p = 1.0 / (1.0 + np.exp(-margin))
            g = y - p
            h = np.maximum(p * (1 - p), 1e-12)
            root, fitted = grow_regression_tree(X, g, h, leaves, order, table)
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
                table.value[root:] = [v * scale for v in table.value[root:]]
                step = step * scale
            margin = margin + step
            loss = new_loss
            roots.append(root)
            curve.append(loss)
        model = cls(spec, train.feature_names, train.class_names, roots,
                    *table.columns().values(), base)
        model.loss_curve = curve
        return model

    def _margins(self, X: np.ndarray) -> np.ndarray:
        lr = float(self.spec.param("learning_rate", 0.1))
        leaf = tree_predict(self, X)
        m = np.full(len(X), self.base_score)
        for t in range(leaf.shape[1]):  # tree by tree: a summed reduction changes bits
            m += lr * self.value[leaf[:, t]]
        return m

    def _positive_scores(self, X: np.ndarray) -> np.ndarray:
        return squash(self._margins(X))
