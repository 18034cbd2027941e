"""Unit tests for the synthetic OQMD dataset generator."""

import numpy as np
import pytest

from repro.matsci.featurize import MagpieFeaturizer
from repro.matsci.oqmd import generate_oqmd_dataset, train_test_split
from repro.ml.sklearn_like import RandomForestRegressor


class TestGeneration:
    def test_requested_size(self):
        assert len(generate_oqmd_dataset(50)) == 50

    def test_deterministic_by_seed(self):
        a = generate_oqmd_dataset(30, seed=1)
        b = generate_oqmd_dataset(30, seed=1)
        assert [e.formula for e in a] == [e.formula for e in b]
        assert [e.formation_energy for e in a] == [e.formation_energy for e in b]

    def test_seeds_differ(self):
        a = generate_oqmd_dataset(30, seed=1)
        b = generate_oqmd_dataset(30, seed=2)
        assert [e.formula for e in a] != [e.formula for e in b]

    def test_formulas_unique(self):
        entries = generate_oqmd_dataset(100)
        formulas = [e.formula for e in entries]
        assert len(formulas) == len(set(formulas))

    def test_energies_physical_range(self):
        entries = generate_oqmd_dataset(200)
        energies = np.array([e.formation_energy for e in entries])
        # Formation energies of real compounds live in roughly [-5, +1].
        assert energies.min() > -6.0
        assert energies.max() < 2.0

    def test_stability_flag_consistent(self):
        for entry in generate_oqmd_dataset(50):
            assert entry.stable == (entry.formation_energy < -0.5)

    def test_compositions_have_anion(self):
        from repro.matsci.oqmd import ANIONS

        for entry in generate_oqmd_dataset(40):
            assert any(a in entry.composition.as_dict() for a in ANIONS)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_oqmd_dataset(0)


class TestLearnability:
    def test_forest_learns_formation_energy(self):
        """The headline requirement: the target is learnable from Ward
        features, so the served matminer model predicts something real."""
        entries = generate_oqmd_dataset(300, seed=42)
        train, test = train_test_split(entries, test_fraction=0.25, seed=0)
        featurizer = MagpieFeaturizer()
        x_train = featurizer.featurize_many([e.composition for e in train])
        y_train = np.array([e.formation_energy for e in train])
        x_test = featurizer.featurize_many([e.composition for e in test])
        y_test = np.array([e.formation_energy for e in test])
        forest = RandomForestRegressor(n_estimators=20, max_depth=12, random_state=0)
        forest.fit(x_train, y_train)
        assert forest.score(x_test, y_test) > 0.5


class TestSplit:
    def test_split_partitions(self):
        entries = generate_oqmd_dataset(100)
        train, test = train_test_split(entries, test_fraction=0.2, seed=3)
        assert len(train) + len(test) == 100
        assert len(test) == 20
        assert set(e.formula for e in train).isdisjoint(e.formula for e in test)

    def test_split_deterministic(self):
        entries = generate_oqmd_dataset(50)
        t1 = train_test_split(entries, seed=1)[1]
        t2 = train_test_split(entries, seed=1)[1]
        assert [e.formula for e in t1] == [e.formula for e in t2]

    def test_invalid_fraction(self):
        entries = generate_oqmd_dataset(10)
        with pytest.raises(ValueError):
            train_test_split(entries, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(entries, test_fraction=1.0)
