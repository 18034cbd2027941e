"""Unit tests for the evaluation model zoo."""

import numpy as np
import pytest

from repro.core.zoo import ZOO_NAMES, build_zoo, sample_input


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=60, n_estimators=5)


class TestZooContents:
    def test_all_six_servables(self, zoo):
        assert set(zoo.servables) == set(ZOO_NAMES)
        for name in ZOO_NAMES:
            assert zoo[name].name == name

    def test_noop_returns_hello_world(self, zoo):
        assert zoo["noop"].run() == "hello world"

    def test_inception_top5(self, zoo):
        out = zoo["inception"].run(*sample_input("inception"))
        assert len(out) == 5
        probs = [o["probability"] for o in out]
        assert probs == sorted(probs, reverse=True)

    def test_cifar10_probabilities(self, zoo):
        out = zoo["cifar10"].run(*sample_input("cifar10"))
        assert out.shape == (1, 10)
        assert np.allclose(out.sum(), 1.0)

    def test_matminer_chain_composes(self, zoo):
        """util -> featurize -> model works as a manual chain."""
        fractions = zoo["matminer_util"].run("SiO2")
        assert fractions == {"O": pytest.approx(2 / 3), "Si": pytest.approx(1 / 3)}
        features = zoo["matminer_featurize"].run(fractions)
        prediction = zoo["matminer_model"].run(features)
        assert isinstance(prediction, float)
        assert -6 < prediction < 2

    def test_forest_is_trained(self, zoo):
        from repro.matsci.oqmd import generate_oqmd_dataset

        entries = generate_oqmd_dataset(60, seed=42)
        x = zoo.featurizer.featurize_many([e.composition for e in entries])
        y = np.array([e.formation_energy for e in entries])
        assert zoo.forest.score(x, y) > 0.5

    def test_metadata_model_types(self, zoo):
        assert zoo["inception"].metadata.model_type == "keras"
        assert zoo["matminer_model"].metadata.model_type == "sklearn"
        assert zoo["noop"].metadata.model_type == "python_function"

    def test_components_present_for_ml_models(self, zoo):
        assert "weights.npz" in zoo["inception"].components
        assert "weights.npz" in zoo["cifar10"].components
        assert "estimator.pkl" in zoo["matminer_model"].components


class TestSampleInputs:
    def test_every_servable_has_an_input(self, zoo):
        for name in ZOO_NAMES:
            args = sample_input(name)
            result = zoo[name].run(*args)
            assert result is not None

    def test_inputs_deterministic(self):
        a = sample_input("inception")
        b = sample_input("inception")
        assert np.array_equal(a[0], b[0])

    def test_unknown_servable(self):
        with pytest.raises(KeyError):
            sample_input("ghost")

    def test_zoo_deterministic_by_seed(self):
        a = build_zoo(seed=3, oqmd_entries=40, n_estimators=3)
        b = build_zoo(seed=3, oqmd_entries=40, n_estimators=3)
        x = sample_input("cifar10")
        assert np.array_equal(a["cifar10"].run(*x), b["cifar10"].run(*x))
