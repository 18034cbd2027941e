"""Text analysis for the search index."""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[a-z0-9_+\-]+")

#: Words too common to index (tiny stopword list; enough for metadata text).
STOPWORDS = frozenset(
    "a an and are as at be by for from has in is it of on or that the this to with".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split ``text`` into index tokens, dropping stopwords.

    Hyphens/underscores are kept inside tokens so identifiers like
    ``cifar-10`` and ``matminer_model`` survive intact, then the pieces are
    also emitted separately so partial queries match.
    """
    if not text:
        return []
    lowered = text.lower()
    tokens: list[str] = []
    for tok in _TOKEN_RE.findall(lowered):
        if tok in STOPWORDS:
            continue
        tokens.append(tok)
        if "-" in tok or "_" in tok:
            tokens.extend(p for p in re.split(r"[-_]", tok) if p and p not in STOPWORDS)
    return tokens
