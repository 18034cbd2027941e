"""Unit tests for weight/estimator serialization."""

import numpy as np

from repro.ml.layers import Dense, ReLU, Softmax
from repro.ml.network import Sequential
from repro.ml.serialization import load_estimator, save_estimator, save_weights
from repro.ml.sklearn_like import RandomForestRegressor


def make_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng), Softmax()])


class TestWeights:

    def test_blob_is_real_bytes(self):
        blob = save_weights(make_model())
        assert isinstance(blob, bytes)
        assert len(blob) > 100


class TestEstimators:
    def test_forest_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        y = x[:, 0] * 2
        forest = RandomForestRegressor(n_estimators=4, max_depth=5).fit(x, y)
        restored = load_estimator(save_estimator(forest))
        assert np.allclose(forest.predict(x), restored.predict(x))
