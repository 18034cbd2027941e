"""Chemical-formula parsing (the pymatgen stand-in).

``Composition.parse("Ba(NO3)2")`` -> ``{Ba: 1, N: 2, O: 6}``. Supports
nested parentheses, fractional subscripts (``Fe0.5Ni0.5``), and repeated
element mentions (amounts accumulate). This is the matminer_util
servable's implementation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd

from repro.matsci.elements import ELEMENTS, Element, element


class CompositionError(ValueError):
    """Raised for unparsable or chemically-invalid formulas."""


#: Every character starts one of these tokens, so ``findall`` covers the
#: formula. An element or ``)`` carries its subscript; a stray number or
#: inner whitespace ends the parse, so it captures the rest of the text.
#: ``re.ASCII``: a subscript is ASCII digits, as a symbol is ASCII
#: letters; any other digit is an unexpected character.
_TOKEN_RE = re.compile(
    r"([A-Z][a-z]?)(\d+(?:\.\d+)?)?"
    r"|(\()"
    r"|(\))(\d+(?:\.\d+)?)?"
    r"|(\d.*)"
    r"|(\s.*)"
    r"|(\S)",
    re.ASCII | re.DOTALL,
)


@dataclass(frozen=True)
class Composition:
    """An element -> amount mapping with convenience chemistry accessors."""

    amounts: tuple[tuple[str, float], ...] = field(default=())

    # -- construction ------------------------------------------------------------
    @classmethod
    def parse(cls, formula: str) -> "Composition":
        """Parse a chemical formula string."""
        return cls(amounts=_parse_sorted(formula))

    @classmethod
    def from_dict(cls, mapping: dict[str, float]) -> "Composition":
        """Build from an element -> amount mapping of known, positive amounts."""
        for sym, amt in mapping.items():
            if sym not in ELEMENTS:
                raise CompositionError(f"unknown element {sym!r}")
            if amt <= 0:
                raise CompositionError(f"non-positive amount for {sym!r}: {amt}")
        return cls(amounts=tuple(sorted((s, float(a)) for s, a in mapping.items())))

    # -- accessors ----------------------------------------------------------------
    def as_dict(self) -> dict[str, float]:
        """The amounts as a dict, keys in symbol order."""
        return dict(self.amounts)

    @property
    def elements(self) -> list[Element]:
        """The :class:`Element` of each symbol, in symbol order."""
        return [element(sym) for sym, _ in self.amounts]

    @property
    def n_elements(self) -> int:
        """How many distinct elements the formula holds."""
        return len(self.amounts)

    @property
    def total_atoms(self) -> float:
        """The sum of the amounts (atoms per formula unit)."""
        return sum(amt for _, amt in self.amounts)

    def fractions(self) -> dict[str, float]:
        """Normalized atomic fractions (sum to 1)."""
        return _fractions(self.amounts)

    def reduced_formula(self) -> str:
        """Canonical formula with integer-reduced subscripts where possible."""
        amounts = dict(self.amounts)
        if all(float(a).is_integer() for a in amounts.values()):
            g = max(gcd(*(int(a) for a in amounts.values())), 1)
            amounts = {s: a / g for s, a in amounts.items()}
        parts = []
        for sym in sorted(amounts):
            amt = amounts[sym]
            if amt == 1:
                parts.append(sym)
            elif float(amt).is_integer():
                parts.append(f"{sym}{int(amt)}")
            else:
                parts.append(f"{sym}{amt:g}")
        return "".join(parts)


def formula_fractions(formula: str) -> dict[str, float]:
    """``Composition.parse(formula).fractions()`` without the Composition."""
    return _fractions(_parse_sorted(formula))


def _fractions(items: tuple[tuple[str, float], ...]) -> dict[str, float]:
    """Normalise sorted ``(symbol, amount)`` pairs to atomic fractions."""
    total = sum(amt for _, amt in items)
    return {sym: amt / total for sym, amt in items}


def _parse_sorted(formula: str) -> tuple[tuple[str, float], ...]:
    """A formula's ``(symbol, amount)`` pairs, sorted, from one left-to-right pass."""
    if not formula or not formula.strip():
        raise CompositionError("empty formula")
    text = formula.strip().replace(" ", "")
    amounts: dict[str, float] = {}
    stack = [amounts]
    top = amounts  # the innermost open group; ``)`` folds it into its parent
    for sym, count, open_, close, factor, number, space, junk in _TOKEN_RE.findall(text):
        if sym:
            if sym not in ELEMENTS:
                raise CompositionError(f"unknown element {sym!r} in {text!r}")
            amount = float(count) if count else 1.0
            if not amount:
                raise CompositionError(f"zero subscript for {sym!r} in {text!r}")
            top[sym] = top.get(sym, 0.0) + amount
        elif open_:
            top = {}
            stack.append(top)
        elif close:
            if len(stack) == 1:
                raise CompositionError(f"unbalanced ')' in {text!r}")
            group = stack.pop()
            top = stack[-1]
            scale = float(factor) if factor else 1.0
            if not scale:
                raise CompositionError(f"zero subscript after ')' in {text!r}")
            for member, amt in group.items():
                top[member] = top.get(member, 0.0) + amt * scale
        elif number:
            at = len(text) - len(number)
            raise CompositionError(f"unexpected number at position {at} in {text!r}")
        elif space:
            at = len(text) - len(space)
            raise CompositionError(f"cannot tokenize at position {at} in {text!r}")
        else:
            raise CompositionError(f"unexpected character {junk!r} in {text!r}")
    if len(stack) != 1:
        raise CompositionError(f"unbalanced '(' in {text!r}")
    for sym, amt in amounts.items():
        if amt <= 0:
            raise CompositionError(f"non-positive amount for {sym!r} in {text!r}")
    if not amounts:
        raise CompositionError(f"no elements found in {formula!r}")
    return tuple(sorted(amounts.items()))
