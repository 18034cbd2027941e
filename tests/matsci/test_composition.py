"""Unit tests for chemical-formula parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matsci.composition import Composition, CompositionError
from repro.matsci.elements import ELEMENTS


class TestParsing:
    def test_simple_binary(self):
        assert Composition.parse("NaCl").as_dict() == {"Na": 1.0, "Cl": 1.0}

    def test_subscripts(self):
        assert Composition.parse("SiO2").as_dict() == {"Si": 1.0, "O": 2.0}
        assert Composition.parse("Fe2O3").as_dict() == {"Fe": 2.0, "O": 3.0}

    def test_fractional_subscripts(self):
        comp = Composition.parse("Fe0.5Ni0.5")
        assert comp.as_dict() == {"Fe": 0.5, "Ni": 0.5}

    def test_parentheses(self):
        assert Composition.parse("Ba(NO3)2").as_dict() == {
            "Ba": 1.0,
            "N": 2.0,
            "O": 6.0,
        }

    def test_nested_parentheses(self):
        comp = Composition.parse("Ca(Al(OH)4)2")
        assert comp.as_dict() == {"Ca": 1.0, "Al": 2.0, "O": 8.0, "H": 8.0}

    def test_repeated_element_accumulates(self):
        assert Composition.parse("CHOOH").as_dict() == {"C": 1.0, "H": 2.0, "O": 2.0}

    def test_two_letter_symbols(self):
        comp = Composition.parse("HeNe")
        assert comp.as_dict() == {"He": 1.0, "Ne": 1.0}

    def test_whitespace_tolerated(self):
        assert Composition.parse(" Na Cl ").as_dict() == {"Na": 1.0, "Cl": 1.0}


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["", "  ", "Xx", "Na)Cl", "(NaCl", "NaCl)", "2NaCl", "Na-Cl", "J2O"],
    )
    def test_invalid_formulas(self, bad):
        with pytest.raises(CompositionError):
            Composition.parse(bad)

    def test_from_dict_validation(self):
        with pytest.raises(CompositionError):
            Composition.from_dict({"Zz": 1.0})
        with pytest.raises(CompositionError):
            Composition.from_dict({"Na": 0.0})


class TestAccessors:
    def test_fractions_normalized(self):
        fracs = Composition.parse("SiO2").fractions()
        assert fracs["Si"] == pytest.approx(1 / 3)
        assert fracs["O"] == pytest.approx(2 / 3)
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_n_elements_and_total_atoms(self):
        comp = Composition.parse("Fe2O3")
        assert comp.n_elements == 2
        assert comp.total_atoms == 5.0

    def test_reduced_formula(self):
        assert Composition.parse("Fe2O4").reduced_formula() == "Fe1O2".replace("1", "")
        assert Composition.parse("Na2Cl2").reduced_formula() == "Cl1Na1".replace("1", "")


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(ELEMENTS)),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[0],
        )
    )
    def test_parse_roundtrip_property(self, parts):
        """Build a formula string from parts; parsing recovers the amounts."""
        formula = "".join(f"{sym}{amt}" for sym, amt in parts)
        comp = Composition.parse(formula)
        assert comp.as_dict() == {sym: float(amt) for sym, amt in parts}

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(sorted(ELEMENTS)),
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    def test_fractions_sum_to_one_property(self, amounts):
        comp = Composition.from_dict(amounts)
        assert sum(comp.fractions().values()) == pytest.approx(1.0)
