"""Chemical-formula parsing (the pymatgen stand-in).

``Composition.parse("Ba(NO3)2")`` -> ``{Ba: 1, N: 2, O: 6}``. Supports
nested parentheses, fractional subscripts (``Fe0.5Ni0.5``), and repeated
element mentions (amounts accumulate). This is the matminer_util
servable's implementation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.matsci.elements import ELEMENTS, Element, element


class CompositionError(ValueError):
    """Raised for unparsable or chemically-invalid formulas."""


_TOKEN_RE = re.compile(
    r"(?P<element>[A-Z][a-z]?)"
    r"|(?P<open>\()"
    r"|(?P<close>\))"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<junk>\S)"
)


@dataclass(frozen=True)
class Composition:
    """An element -> amount mapping with convenience chemistry accessors."""

    amounts: tuple[tuple[str, float], ...] = field(default=())

    # -- construction ------------------------------------------------------------
    @classmethod
    def parse(cls, formula: str) -> "Composition":
        """Parse a chemical formula string."""
        if not formula or not formula.strip():
            raise CompositionError("empty formula")
        text = formula.strip().replace(" ", "")
        amounts = _parse_group(text)
        if not amounts:
            raise CompositionError(f"no elements found in {formula!r}")
        ordered = tuple(sorted(amounts.items()))
        return cls(amounts=ordered)

    @classmethod
    def from_dict(cls, mapping: dict[str, float]) -> "Composition":
        for sym, amt in mapping.items():
            if sym not in ELEMENTS:
                raise CompositionError(f"unknown element {sym!r}")
            if amt <= 0:
                raise CompositionError(f"non-positive amount for {sym!r}: {amt}")
        return cls(amounts=tuple(sorted((s, float(a)) for s, a in mapping.items())))

    # -- accessors ----------------------------------------------------------------
    def as_dict(self) -> dict[str, float]:
        return dict(self.amounts)

    @property
    def elements(self) -> list[Element]:
        return [element(sym) for sym, _ in self.amounts]

    @property
    def n_elements(self) -> int:
        return len(self.amounts)

    @property
    def total_atoms(self) -> float:
        return sum(amt for _, amt in self.amounts)

    def fractions(self) -> dict[str, float]:
        """Normalized atomic fractions (sum to 1)."""
        total = self.total_atoms
        return {sym: amt / total for sym, amt in self.amounts}

    def reduced_formula(self) -> str:
        """Canonical formula with integer-reduced subscripts where possible."""
        from math import gcd

        amounts = dict(self.amounts)
        if all(float(a).is_integer() for a in amounts.values()):
            ints = [int(a) for a in amounts.values()]
            g = 0
            for v in ints:
                g = gcd(g, v)
            g = max(g, 1)
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


def _parse_group(text: str) -> dict[str, float]:
    """Recursive-descent parse of a formula body into raw amounts."""
    pos = 0
    amounts: dict[str, float] = {}

    def merge(target: dict[str, float], source: dict[str, float], factor: float) -> None:
        for sym, amt in source.items():
            target[sym] = target.get(sym, 0.0) + amt * factor

    stack: list[dict[str, float]] = [amounts]
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # pragma: no cover - regex matches any non-space char
            raise CompositionError(f"cannot tokenize at position {pos} in {text!r}")
        pos = m.end()
        if m.lastgroup == "element":
            sym = m.group("element")
            if sym not in ELEMENTS:
                raise CompositionError(f"unknown element {sym!r} in {text!r}")
            count, pos = _read_number(text, pos)
            stack[-1][sym] = stack[-1].get(sym, 0.0) + count
        elif m.lastgroup == "open":
            stack.append({})
        elif m.lastgroup == "close":
            if len(stack) == 1:
                raise CompositionError(f"unbalanced ')' in {text!r}")
            group = stack.pop()
            count, pos = _read_number(text, pos)
            merge(stack[-1], group, count)
        elif m.lastgroup == "number":
            raise CompositionError(f"unexpected number at position {m.start()} in {text!r}")
        else:
            raise CompositionError(f"unexpected character {m.group()!r} in {text!r}")
    if len(stack) != 1:
        raise CompositionError(f"unbalanced '(' in {text!r}")
    for sym, amt in amounts.items():
        if amt <= 0:
            raise CompositionError(f"non-positive amount for {sym!r} in {text!r}")
    return amounts


def _read_number(text: str, pos: int) -> tuple[float, int]:
    """Read an optional subscript at ``pos``; defaults to 1."""
    m = re.match(r"\d+(?:\.\d+)?", text[pos:])
    if m is None:
        return 1.0, pos
    return float(m.group()), pos + m.end()
