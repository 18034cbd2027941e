"""Bagged random forests over the CART trees."""

from __future__ import annotations

import numpy as np

from repro.ml.sklearn_like.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NotFittedError,
)
from repro.sim.rng import generator_from_seed


class _BaseForest:
    """Bagging shared by both forests; subclasses provide ``_make_tree(seed)``."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        # int-only: None (OS entropy) is rejected at the sim/rng
        # chokepoint — forests must be replayable bit-for-bit.
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.estimators_: list = []
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got {X.shape}")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        self.n_features_ = X.shape[1]
        rng = generator_from_seed(self.random_state)
        self.estimators_ = []
        n = len(X)
        for i in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)  # bootstrap sample
            tree = self._make_tree(seed=int(rng.integers(0, 2**31)))
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)
        return self

    def _check_fitted(self) -> None:
        if not self.estimators_:
            raise NotFittedError("forest is not fitted")


class RandomForestRegressor(_BaseForest):
    """Bagged regression forest (mean of tree predictions)."""

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        preds = np.stack([tree.predict(X) for tree in self.estimators_])
        return preds.mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Across-tree standard deviation (a cheap uncertainty estimate,
        used by the materials pipeline's uncertainty-quantification step)."""
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        preds = np.stack([tree.predict(X) for tree in self.estimators_])
        return preds.std(axis=0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R^2 coefficient of determination."""
        y = np.asarray(y, dtype=np.float64)
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


class RandomForestClassifier(_BaseForest):
    """Bagged classification forest (probability averaging)."""

    def fit(self, X: np.ndarray, y: np.ndarray):
        y = np.asarray(y, dtype=np.int64)
        self.n_classes_ = int(y.max()) + 1 if len(y) else 0
        return super().fit(X, y)

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        probas = [tree.predict_proba(X) for tree in self.estimators_]
        width = max(p.shape[1] for p in probas)
        padded = [
            np.pad(p, ((0, 0), (0, width - p.shape[1]))) if p.shape[1] < width else p
            for p in probas
        ]
        return np.mean(padded, axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))
