"""Unit tests for chemical-formula parsing."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.zoo import build_zoo
from repro.matsci.composition import Composition, CompositionError
from repro.matsci.elements import ELEMENTS
from tests.matsci.composition_oracle import oracle


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

    def test_inner_tab_cannot_tokenize(self):
        # ``parse`` strips the ends and drops spaces; a tab inside stays.
        with pytest.raises(CompositionError) as info:
            Composition.parse("Fe\t2O3")
        assert str(info.value) == "cannot tokenize at position 2 in 'Fe\\t2O3'"

    @pytest.mark.parametrize(
        ("formula", "message"),
        [
            ("O0", "zero subscript for 'O' in 'O0'"),
            ("O0O2", "zero subscript for 'O' in 'O0O2'"),
            ("(O0)2O", "zero subscript for 'O' in '(O0)2O'"),
            ("Fe2O0.0", "zero subscript for 'O' in 'Fe2O0.0'"),
            ("(OH)0Na", "zero subscript after ')' in '(OH)0Na'"),
            ("Na(OH)0.0(OH)2", "zero subscript after ')' in 'Na(OH)0.0(OH)2'"),
        ],
    )
    def test_zero_subscript_refused_at_its_token(self, formula, message):
        # Refused where it is written, not only when a total comes to zero:
        # a later mention of the element cannot make it good.
        with pytest.raises(CompositionError) as info:
            Composition.parse(formula)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        ("formula", "message"),
        [
            ("Fe\u0663", "unexpected character '\u0663' in 'Fe\u0663'"),
            ("O2.\u0665", "unexpected character '.' in 'O2.\u0665'"),
        ],
    )
    def test_subscripts_are_ascii_digits(self, formula, message):
        # Element symbols are ASCII letters; subscripts are ASCII digits
        # too, so an Arabic-Indic three is not a 3.
        with pytest.raises(CompositionError) as info:
            Composition.parse(formula)
        assert str(info.value) == message

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


# A formula grammar wide enough to reach every branch of the parser:
# well-formed formulas (nested groups with multipliers, integer and
# decimal subscripts, repeated elements), and noisy ones that add
# unknown symbols, zero and Unicode-digit subscripts and stray characters.
_KNOWN = st.sampled_from(["H", "O", "C", "Fe", "Na", "Cl"])
_COUNTS = st.sampled_from(["", "", "2", "3", "12", "0.5", "0.1", "0.7", "2.25"])
_BAD_COUNTS = st.sampled_from(["0", "0.0", "00", "1.", "\u0663", "2.\u0665"])
_STRAYS = st.sampled_from(
    ["-", "\u00b2", "\t", "\n", " ", "(", ")", "7", "1.5", ".", "Xx", "J"]
)


def _formulas(atoms, counts):
    pieces = st.recursive(
        atoms,
        lambda inner: st.builds(
            lambda body, count: "(" + "".join(body) + ")" + count,
            st.lists(inner, max_size=3),
            counts,
        ),
        max_leaves=8,
    )
    return st.lists(pieces, max_size=6).map("".join)


_CLEAN = _formulas(st.builds(str.__add__, _KNOWN, _COUNTS), _COUNTS)
_NOISY = _formulas(
    st.builds(str.__add__, _KNOWN, _COUNTS | _BAD_COUNTS) | _STRAYS, _COUNTS | _BAD_COUNTS
)
_FORMULAS = _CLEAN | _NOISY | st.sampled_from(["", " ", "  ", "\t", " \n "])


def _outcome(fn, formula):
    """``fn(formula)`` as comparable data: ``(symbol, float.hex)`` pairs in
    key order, or the exception's type and message."""
    try:
        result = fn(formula)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    items = result.amounts if hasattr(result, "amounts") else result.items()
    return [(sym, amt.hex()) for sym, amt in items]


@pytest.fixture(scope="module")
def matminer_util():
    return build_zoo(oqmd_entries=50, n_estimators=4)["matminer_util"]


class TestAgainstOracle:
    """The one-pass parser against the token-at-a-time scan it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(_FORMULAS)
    @example("Ba(NO3)2")
    @example("Ca(Al(OH)4)2")
    @example("(H2O)0.5Fe\u06632")
    @example("O0O2")
    @example("(O0)2O")
    @example("Fe\u0663")
    @example("Fe\t2O3")
    def test_parse_matches_oracle(self, formula):
        assert _outcome(Composition.parse, formula) == _outcome(oracle, formula)

    @settings(max_examples=400, deadline=None)
    @given(_FORMULAS)
    def test_handler_matches_oracle_fractions(self, matminer_util, formula):
        expected = _outcome(lambda f: oracle(f).fractions(), formula)
        assert _outcome(matminer_util.run, formula) == expected
