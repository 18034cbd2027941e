"""Reference formula parser: the token-at-a-time scan ``Composition.parse`` replaced.

``repro.matsci.composition`` parses a formula in one ``findall`` pass
whose element and ``)`` tokens carry their own subscripts. The parser
below is the one it replaced, kept here (not in ``src/``) as an oracle:
it matches one token at a time and reads each subscript with a second
``re.match`` on the rest of the text. The differential tests in
``test_composition.py`` require the two to agree on every formula, down
to the bits of each amount, the order of the keys and the text of every
``CompositionError``.

Since the rewrite both parsers refuse a zero subscript at its token
(after an element or after ``)``) and read only ASCII digits as a
subscript; the oracle carries the same two rules, so it still pins
everything else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.matsci.composition import CompositionError
from repro.matsci.elements import ELEMENTS

_TOKEN_RE = re.compile(
    r"(?P<element>[A-Z][a-z]?)"
    r"|(?P<open>\()"
    r"|(?P<close>\))"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<junk>\S)",
    re.ASCII,
)


@dataclass(frozen=True)
class OracleComposition:
    """Sorted ``(symbol, amount)`` pairs, as ``Composition`` holds them."""

    amounts: tuple[tuple[str, float], ...]

    def fractions(self) -> dict[str, float]:
        """Normalized atomic fractions (sum to 1)."""
        total = sum(amt for _, amt in self.amounts)
        return {sym: amt / total for sym, amt in self.amounts}


def oracle(formula: str) -> OracleComposition:
    """What ``Composition.parse(formula)`` returned before the rewrite,
    with the zero-subscript and ASCII-digit rules added since."""
    if not formula or not formula.strip():
        raise CompositionError("empty formula")
    text = formula.strip().replace(" ", "")
    amounts = _parse_group(text)
    if not amounts:
        raise CompositionError(f"no elements found in {formula!r}")
    return OracleComposition(amounts=tuple(sorted(amounts.items())))


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
        if m is None:
            raise CompositionError(f"cannot tokenize at position {pos} in {text!r}")
        pos = m.end()
        if m.lastgroup == "element":
            sym = m.group("element")
            if sym not in ELEMENTS:
                raise CompositionError(f"unknown element {sym!r} in {text!r}")
            count, pos = _read_number(text, pos)
            if count == 0:
                raise CompositionError(f"zero subscript for {sym!r} in {text!r}")
            stack[-1][sym] = stack[-1].get(sym, 0.0) + count
        elif m.lastgroup == "open":
            stack.append({})
        elif m.lastgroup == "close":
            if len(stack) == 1:
                raise CompositionError(f"unbalanced ')' in {text!r}")
            group = stack.pop()
            count, pos = _read_number(text, pos)
            if count == 0:
                raise CompositionError(f"zero subscript after ')' in {text!r}")
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
    m = re.match(r"\d+(?:\.\d+)?", text[pos:], re.ASCII)
    if m is None:
        return 1.0, pos
    return float(m.group()), pos + m.end()
