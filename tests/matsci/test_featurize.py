"""Unit tests for the Ward/Magpie-style featurizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matsci.composition import Composition
from repro.matsci.elements import ELEMENTS, element
from repro.matsci.featurize import FEATURE_NAMES, MagpieFeaturizer


@pytest.fixture
def featurizer():
    return MagpieFeaturizer()


class TestVectorStructure:
    def test_length_matches_names(self, featurizer):
        vec = featurizer.featurize("NaCl")
        assert vec.shape == (len(FEATURE_NAMES),)

    def test_accepts_composition_or_string(self, featurizer):
        a = featurizer.featurize("NaCl")
        b = featurizer.featurize(Composition.parse("NaCl"))
        assert np.array_equal(a, b)

    def test_featurize_many_shape(self, featurizer):
        mat = featurizer.featurize_many(["NaCl", "SiO2", "Fe2O3"])
        assert mat.shape == (3, len(FEATURE_NAMES))

    def test_featurize_many_empty(self, featurizer):
        assert featurizer.featurize_many([]).shape == (0, len(FEATURE_NAMES))


class TestStoichiometric:
    def test_n_components(self, featurizer):
        idx = FEATURE_NAMES.index("NComponents")
        assert featurizer.featurize("NaCl")[idx] == 2
        assert featurizer.featurize("Ba(NO3)2")[idx] == 3

    def test_norms_for_equal_fractions(self, featurizer):
        """For a 50/50 binary, the p-norm is (2 * 0.5^p)^(1/p)."""
        vec = featurizer.featurize("NaCl")
        for p, name in ((2, "Norm2"), (3, "Norm3"), (5, "Norm5")):
            expected = (2 * 0.5**p) ** (1.0 / p)
            assert vec[FEATURE_NAMES.index(name)] == pytest.approx(expected)

    def test_norm_decreasing_in_p(self, featurizer):
        vec = featurizer.featurize("SiO2")
        n2 = vec[FEATURE_NAMES.index("Norm2")]
        n3 = vec[FEATURE_NAMES.index("Norm3")]
        n5 = vec[FEATURE_NAMES.index("Norm5")]
        assert n2 >= n3 >= n5

    def test_single_element_norms_are_one(self, featurizer):
        vec = featurizer.featurize("Fe")
        for name in ("Norm2", "Norm3", "Norm5"):
            assert vec[FEATURE_NAMES.index(name)] == pytest.approx(1.0)


class TestPropertyStatistics:
    def test_mean_is_fraction_weighted(self, featurizer):
        vec = featurizer.featurize("SiO2")
        expected = element("Si").mass / 3 + element("O").mass * 2 / 3
        assert vec[FEATURE_NAMES.index("AtomicWeight_mean")] == pytest.approx(expected)

    def test_range_min_max(self, featurizer):
        vec = featurizer.featurize("NaCl")
        z_na, z_cl = element("Na").z, element("Cl").z
        assert vec[FEATURE_NAMES.index("Number_min")] == z_na
        assert vec[FEATURE_NAMES.index("Number_max")] == z_cl
        assert vec[FEATURE_NAMES.index("Number_range")] == z_cl - z_na

    def test_mode_is_most_abundant(self, featurizer):
        vec = featurizer.featurize("SiO2")  # O dominates
        assert vec[FEATURE_NAMES.index("Number_mode")] == element("O").z

    def test_single_element_devs_zero(self, featurizer):
        vec = featurizer.featurize("Cu")
        for prop in ("Number", "AtomicWeight", "Electronegativity"):
            assert vec[FEATURE_NAMES.index(f"{prop}_avg_dev")] == pytest.approx(0.0)
            assert vec[FEATURE_NAMES.index(f"{prop}_range")] == pytest.approx(0.0)

    def test_ionic_character_bounds(self, featurizer):
        idx = FEATURE_NAMES.index("MaxIonicChar")
        for formula in ("NaCl", "SiO2", "Fe", "Ba(NO3)2"):
            assert 0.0 <= featurizer.featurize(formula)[idx] <= 1.0


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(sorted(ELEMENTS)),
            st.integers(min_value=1, max_value=6),
            min_size=1,
            max_size=4,
        )
    )
    def test_features_always_finite_property(self, amounts, ):
        featurizer = MagpieFeaturizer()
        comp = Composition.from_dict({k: float(v) for k, v in amounts.items()})
        vec = featurizer.featurize(comp)
        assert np.isfinite(vec).all()

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(ELEMENTS)), st.sampled_from(sorted(ELEMENTS)))
    def test_order_invariance_property(self, a, b):
        """AB and BA (same amounts) featurize identically."""
        if a == b:
            return
        featurizer = MagpieFeaturizer()
        x = featurizer.featurize(Composition.from_dict({a: 1.0, b: 2.0}))
        y = featurizer.featurize(Composition.from_dict({b: 2.0, a: 1.0}))
        assert np.allclose(x, y)

    def test_scale_invariance(self, featurizer):
        """Fe2O4 and FeO2 have identical fractions, identical features."""
        assert np.allclose(
            featurizer.featurize("Fe2O4"), featurizer.featurize("FeO2")
        )
