"""Unit tests for the Sequential model (inference)."""

import numpy as np

from repro.ml.layers import Dense, ReLU, Softmax
from repro.ml.network import Sequential


def make_classifier(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [Dense(2, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng), Softmax()],
        name="toy",
    )


class TestInference:
    def test_predict_shape(self):
        model = make_classifier()
        assert model.predict(np.zeros((5, 2))).shape == (5, 2)

    def test_predict_probabilities(self):
        probs = make_classifier().predict(np.random.default_rng(0).normal(size=(4, 2)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(5).normal(size=(3, 2))
        assert np.array_equal(make_classifier(7).predict(x), make_classifier(7).predict(x))


class TestIntrospection:

    def test_params_keys(self):
        keys = set(make_classifier().params())
        assert "layer0.W" in keys and "layer2.b" in keys
