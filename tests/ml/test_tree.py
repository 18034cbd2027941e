"""Unit tests for CART decision trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.sklearn_like.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NotFittedError,
)


def node_count(tree):
    """Nodes in a fitted tree."""

    def walk(node):
        return 0 if node is None else 1 + walk(node.left) + walk(node.right)

    return walk(tree._root)


def depth(tree):
    """Splits on the longest root-to-leaf path of a fitted tree."""

    def walk(node):
        if node is None or node.is_leaf:
            return 0
        return 1 + max(walk(node.left), walk(node.right))

    return walk(tree._root)


class TestRegressor:
    def test_fits_a_step_function_exactly(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert np.allclose(tree.predict(x), y)

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 7.0)
        tree = DecisionTreeRegressor().fit(x, y)
        assert node_count(tree) == 1
        assert np.allclose(tree.predict(x), 7.0)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert depth(tree) <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = DecisionTreeRegressor(min_samples_leaf=10, max_depth=20).fit(x, y)

        def leaf_sizes(node, xs, ys):
            if node.is_leaf:
                return [len(ys)]
            mask = xs[:, node.feature] <= node.threshold
            return leaf_sizes(node.left, xs[mask], ys[mask]) + leaf_sizes(
                node.right, xs[~mask], ys[~mask]
            )

        assert min(leaf_sizes(tree._root, x, y)) >= 10

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_single_row_predict(self):
        x = np.array([[0.0], [1.0]])
        tree = DecisionTreeRegressor().fit(x, np.array([1.0, 2.0]))
        assert tree.predict(np.array([0.2]))[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros(3), np.zeros(3))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_predictions_within_target_range_property(self, rows):
        """Leaf means can never leave [min(y), max(y)]."""
        x = np.array([[a] for a, _ in rows])
        y = np.array([b for _, b in rows])
        tree = DecisionTreeRegressor(max_depth=6).fit(x, y)
        preds = tree.predict(x)
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9


class TestClassifier:
    def test_learns_a_threshold(self):
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert np.array_equal(np.argmax(tree.predict_proba(x), axis=1), y)

    def test_predict_proba_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 3))
        y = rng.integers(0, 3, size=100)
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        proba = tree.predict_proba(x)
        assert proba.shape == (100, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((2, 1)), np.array([-1, 0]))

    def test_pure_node_stops_early(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        y = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier(max_depth=10).fit(x, y)
        assert node_count(tree) == 1
