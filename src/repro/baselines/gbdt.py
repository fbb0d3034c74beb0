"""Gradient-boosted decision trees from scratch (the XGBoost stand-in).

The OSquare baseline is "a machine learning model, XGBoost" used once
for next-location ranking and once for time regression.  This module
implements exact-split CART regression trees plus gradient boosting
with squared loss (:class:`GBDTRegressor`) and logistic loss
(:class:`GBDTBinaryClassifier`), which is behaviourally equivalent at
the paper's data scale.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np


@dataclasses.dataclass
class _Node:
    """A tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class RegressionTree:
    """CART regression tree with exact greedy splits.

    Fits first-order residuals; with ``hessians`` given, leaf values use
    the Newton step ``sum(g) / sum(h)`` (needed for logistic boosting).
    """

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 5,
                 min_gain: float = 1e-12):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self._root: Optional[_Node] = None

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, gradients: np.ndarray,
            hessians: Optional[np.ndarray] = None) -> "RegressionTree":
        features = np.asarray(features, dtype=np.float64)
        gradients = np.asarray(gradients, dtype=np.float64)
        if hessians is None:
            hessians = np.ones_like(gradients)
        if features.ndim != 2:
            raise ValueError("features must be 2-D (rows, columns)")
        if features.shape[0] != gradients.shape[0]:
            raise ValueError("features and gradients disagree on sample count")
        index = np.arange(features.shape[0])
        self._root = self._grow(features, gradients, hessians, index, depth=0)
        return self

    def _leaf_value(self, gradients: np.ndarray, hessians: np.ndarray) -> float:
        denominator = float(hessians.sum())
        if denominator <= 1e-12:
            return 0.0
        return float(gradients.sum() / denominator)

    def _grow(self, features: np.ndarray, gradients: np.ndarray,
              hessians: np.ndarray, index: np.ndarray, depth: int) -> _Node:
        node_gradients = gradients[index]
        node_hessians = hessians[index]
        leaf = _Node(value=self._leaf_value(node_gradients, node_hessians))
        if depth >= self.max_depth or index.size < 2 * self.min_samples_leaf:
            return leaf

        best_gain = self.min_gain
        best_feature, best_threshold = -1, 0.0
        total_g = node_gradients.sum()
        total_h = node_hessians.sum()
        parent_score = total_g ** 2 / max(total_h, 1e-12)

        for feature in range(features.shape[1]):
            order = np.argsort(features[index, feature], kind="stable")
            sorted_values = features[index[order], feature]
            sorted_g = node_gradients[order]
            sorted_h = node_hessians[order]
            cum_g = np.cumsum(sorted_g)
            cum_h = np.cumsum(sorted_h)
            # Candidate split after position i (left gets 0..i).
            for i in range(self.min_samples_leaf - 1,
                           index.size - self.min_samples_leaf):
                if sorted_values[i] == sorted_values[i + 1]:
                    continue
                left_g, left_h = cum_g[i], cum_h[i]
                right_g, right_h = total_g - left_g, total_h - left_h
                gain = (left_g ** 2 / max(left_h, 1e-12)
                        + right_g ** 2 / max(right_h, 1e-12)
                        - parent_score)
                if gain > best_gain:
                    best_gain = gain
                    best_feature = feature
                    best_threshold = 0.5 * (sorted_values[i] + sorted_values[i + 1])

        if best_feature < 0:
            return leaf
        goes_left = features[index, best_feature] <= best_threshold
        left_index = index[goes_left]
        right_index = index[~goes_left]
        return _Node(
            feature=best_feature,
            threshold=best_threshold,
            value=leaf.value,
            left=self._grow(features, gradients, hessians, left_index, depth + 1),
            right=self._grow(features, gradients, hessians, right_index, depth + 1),
        )

    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        features = np.asarray(features, dtype=np.float64)
        return np.array([self._lookup(row) for row in features])

    def _lookup(self, row: np.ndarray) -> float:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value


class GBDTRegressor:
    """Gradient boosting with squared loss."""

    def __init__(self, n_estimators: int = 50, learning_rate: float = 0.1,
                 max_depth: int = 4, min_samples_leaf: int = 5):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._trees: List[RegressionTree] = []
        self._base: float = 0.0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GBDTRegressor":
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        self._base = float(targets.mean())
        prediction = np.full(targets.shape, self._base)
        self._trees = []
        for _ in range(self.n_estimators):
            residual = targets - prediction
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(features, residual)
            update = tree.predict(features)
            prediction += self.learning_rate * update
            self._trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        prediction = np.full(features.shape[0], self._base)
        for tree in self._trees:
            prediction += self.learning_rate * tree.predict(features)
        return prediction


class GBDTBinaryClassifier:
    """Gradient boosting with logistic loss and Newton leaf values."""

    def __init__(self, n_estimators: int = 50, learning_rate: float = 0.1,
                 max_depth: int = 4, min_samples_leaf: int = 5):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._trees: List[RegressionTree] = []
        self._base: float = 0.0

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GBDTBinaryClassifier":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        positive_rate = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
        self._base = float(np.log(positive_rate / (1.0 - positive_rate)))
        raw = np.full(labels.shape, self._base)
        self._trees = []
        for _ in range(self.n_estimators):
            probability = 1.0 / (1.0 + np.exp(-raw))
            gradient = labels - probability
            hessian = probability * (1.0 - probability)
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(features, gradient, hessian)
            raw += self.learning_rate * tree.predict(features)
            self._trees.append(tree)
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        raw = np.full(features.shape[0], self._base)
        for tree in self._trees:
            raw += self.learning_rate * tree.predict(features)
        return raw

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.decision_function(features)))
