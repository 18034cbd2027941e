"""CART decision trees (regression and classification).

Greedy binary splitting on variance reduction (regression) or Gini
impurity (classification). Split search is vectorized per feature:
candidate thresholds are midpoints between consecutive sorted unique
values, and the impurity of every candidate split is evaluated with
cumulative sums rather than Python loops over rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import generator_from_seed


class NotFittedError(RuntimeError):
    """Raised when predict is called before fit."""


@dataclass
class _Node:
    """A tree node; leaves carry a value, internal nodes a split."""

    value: float | np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _BaseTree:
    """CART growth shared by both trees.

    Subclasses provide ``_leaf_value(y)`` and ``_impurity_gain(y_sorted)
    -> (gains, parent_impurity)``, where ``gains[i]`` is the weighted
    impurity decrease of splitting a pre-sorted label array between
    positions ``i`` and ``i + 1``.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        # Seeded by default: an unseeded tree (None meant OS entropy)
        # made every fixture trained with `max_features` unreplayable.
        random_state: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: _Node | None = None
        self.n_features_: int | None = None

    # -- fitting ---------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = X.shape[1]
        rng = generator_from_seed(self.random_state)
        self._root = self._grow(X, y, depth=0, rng=rng)
        return self

    def _n_candidate_features(self) -> int:
        assert self.n_features_ is not None
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, self.n_features_))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> _Node:
        node = _Node(value=self._leaf_value(y))
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or self._is_pure(y)
        ):
            return node
        n_candidates = self._n_candidate_features()
        features = (
            np.arange(self.n_features_)
            if n_candidates == self.n_features_
            else rng.choice(self.n_features_, size=n_candidates, replace=False)
        )
        best_gain = 1e-12
        best_feature = -1
        best_threshold = 0.0
        for f in features:
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            ys = y[order]
            gains, _ = self._impurity_gain(ys)
            # Valid split positions: feature value changes AND both children
            # satisfy min_samples_leaf.
            pos = np.arange(1, len(xs))
            valid = (xs[1:] != xs[:-1]) & (pos >= self.min_samples_leaf) & (
                len(xs) - pos >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            masked = np.where(valid, gains, -np.inf)
            i = int(np.argmax(masked))
            if masked[i] > best_gain:
                best_gain = float(masked[i])
                best_feature = int(f)
                best_threshold = float((xs[i] + xs[i + 1]) / 2.0)
        if best_feature < 0:
            return node
        mask = X[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.all(y == y[0])) if len(y) else True

    # -- prediction ---------------------------------------------------------------------
    def _predict_node(self, x: np.ndarray) -> float | np.ndarray:
        node = self._root
        assert node is not None
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
            assert node is not None
        return node.value


class DecisionTreeRegressor(_BaseTree):
    """CART regression tree (variance-reduction splits, mean leaves)."""

    def _leaf_value(self, y: np.ndarray) -> float:
        return float(np.mean(y)) if len(y) else 0.0

    def _impurity_gain(self, y_sorted: np.ndarray) -> tuple[np.ndarray, float]:
        y = y_sorted.astype(np.float64)
        n = len(y)
        total = y.sum()
        total_sq = (y**2).sum()
        parent = total_sq / n - (total / n) ** 2
        csum = np.cumsum(y)[:-1]
        csum_sq = np.cumsum(y**2)[:-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        var_left = csum_sq / n_left - (csum / n_left) ** 2
        var_right = (total_sq - csum_sq) / n_right - ((total - csum) / n_right) ** 2
        weighted = (n_left * var_left + n_right * var_right) / n
        return parent - weighted, parent

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise NotFittedError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.array([self._predict_node(x) for x in X])


class DecisionTreeClassifier(_BaseTree):
    """CART classification tree (Gini splits, majority-class leaves).

    Classes must be integer labels ``0..K-1``; ``fit`` infers K.
    """

    def fit(self, X: np.ndarray, y: np.ndarray):
        y = np.asarray(y, dtype=np.int64)
        if len(y) and y.min() < 0:
            raise ValueError("class labels must be non-negative integers")
        self.n_classes_ = int(y.max()) + 1 if len(y) else 0
        return super().fit(X, y)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        return counts / counts.sum()

    def _impurity_gain(self, y_sorted: np.ndarray) -> tuple[np.ndarray, float]:
        n = len(y_sorted)
        onehot = np.zeros((n, self.n_classes_))
        onehot[np.arange(n), y_sorted] = 1.0
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        left_counts = cum[:-1]
        right_counts = total - left_counts
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
        parent = 1.0 - ((total / n) ** 2).sum()
        weighted = (n_left * gini_left + n_right * gini_right) / n
        return parent - weighted, parent

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise NotFittedError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.vstack([self._predict_node(x) for x in X])
