"""Query AST, query-string parser, facets, and search execution.

The query model mirrors what DLHub's discovery interface needs from Globus
Search: free-text terms (ranked by TF-IDF), prefix/partial matching, exact
field matches, numeric ranges, and boolean combinators; results can be
aggregated into facets (e.g. count of models per ``dlhub.model_type``).

Query-string syntax (parsed by :func:`parse_query`):

* bare words — free-text terms, combined with AND;
* ``word*`` — prefix (partial) match;
* ``field:value`` — exact keyword/token match on a dotted field;
* ``field:[lo TO hi]`` — inclusive numeric range (``*`` for open end);
* ``NOT expr``, ``expr OR expr`` — boolean operators (AND binds tighter).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Any

from repro.search.index import Document, SearchIndex, ViewerContext
from repro.search.tokenizer import tokenize


class QueryError(ValueError):
    """Raised for malformed query strings."""


# ---------------------------------------------------------------------------
# Query AST
# ---------------------------------------------------------------------------


class Query:
    """Base query node; subclasses implement ``match_ids(index)``."""

    def score_tokens(self) -> list[str]:
        """Tokens contributing to TF-IDF relevance (free-text terms only)."""
        return []


@dataclass
class MatchAll(Query):
    """Matches every document."""

    def match_ids(self, index: SearchIndex) -> set[str]:
        return set(index.all_doc_ids())


@dataclass
class Term(Query):
    """Free-text token match (analyzed)."""

    text: str

    def match_ids(self, index: SearchIndex) -> set[str]:
        tokens = tokenize(self.text)
        if not tokens:
            return set()
        result: set[str] | None = None
        for tok in tokens:
            hits = index.docs_with_token(tok)
            result = hits if result is None else (result & hits)
        return result or set()

    def score_tokens(self) -> list[str]:
        return tokenize(self.text)


@dataclass
class Prefix(Query):
    """Partial match: any token starting with ``prefix``."""

    prefix: str

    def match_ids(self, index: SearchIndex) -> set[str]:
        return index.docs_with_prefix(self.prefix.lower())


@dataclass
class FieldMatch(Query):
    """Exact or analyzed match on a dotted field path."""

    field: str
    value: Any

    def match_ids(self, index: SearchIndex) -> set[str]:
        hits: set[str] = set()
        # Analyzed text match on the field.
        if isinstance(self.value, str):
            tokens = tokenize(self.value)
            per_token: set[str] | None = None
            for tok in tokens:
                h = index.docs_with_field_token(self.field, tok)
                per_token = h if per_token is None else (per_token & h)
            if per_token:
                hits.update(per_token)
        # Exact keyword comparison (also covers numerics/bools).
        for doc_id in index.all_doc_ids():
            doc = index._docs[doc_id]
            stored = doc.keyword_fields.get(self.field)
            if stored == self.value:
                hits.add(doc_id)
            elif isinstance(stored, list) and self.value in stored:
                hits.add(doc_id)
        return hits


@dataclass
class RangeQuery(Query):
    """Inclusive numeric range on a field; ``None`` bounds are open."""

    field: str
    low: float | None = None
    high: float | None = None

    def match_ids(self, index: SearchIndex) -> set[str]:
        hits: set[str] = set()
        for doc_id in index.all_doc_ids():
            value = index._docs[doc_id].numeric_fields.get(self.field)
            if value is None:
                continue
            if self.low is not None and value < self.low:
                continue
            if self.high is not None and value > self.high:
                continue
            hits.add(doc_id)
        return hits


@dataclass
class And(Query):
    clauses: list[Query]

    def match_ids(self, index: SearchIndex) -> set[str]:
        if not self.clauses:
            return set()
        result: set[str] | None = None
        for clause in self.clauses:
            hits = clause.match_ids(index)
            result = hits if result is None else (result & hits)
            if not result:
                return set()
        return result or set()

    def score_tokens(self) -> list[str]:
        return [t for c in self.clauses for t in c.score_tokens()]


@dataclass
class Or(Query):
    clauses: list[Query]

    def match_ids(self, index: SearchIndex) -> set[str]:
        result: set[str] = set()
        for clause in self.clauses:
            result |= clause.match_ids(index)
        return result

    def score_tokens(self) -> list[str]:
        return [t for c in self.clauses for t in c.score_tokens()]


@dataclass
class Not(Query):
    clause: Query

    def match_ids(self, index: SearchIndex) -> set[str]:
        return set(index.all_doc_ids()) - self.clause.match_ids(index)


# ---------------------------------------------------------------------------
# Facets
# ---------------------------------------------------------------------------


@dataclass
class FacetRequest:
    """Request bucket counts of ``field`` values over the result set."""

    field: str
    size: int = 10


@dataclass
class FacetResult:
    field: str
    buckets: list[tuple[Any, int]]  # (value, count), descending count


def compute_facets(
    docs: list[Document], requests: list[FacetRequest]
) -> list[FacetResult]:
    results = []
    for req in requests:
        counts: dict[Any, int] = {}
        for doc in docs:
            value = doc.keyword_fields.get(req.field)
            if value is None:
                continue
            values = value if isinstance(value, list) else [value]
            for v in values:
                key = v if isinstance(v, (str, int, float, bool)) else str(v)
                counts[key] = counts.get(key, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        results.append(FacetResult(field=req.field, buckets=ordered[: req.size]))
    return results


# ---------------------------------------------------------------------------
# Search execution
# ---------------------------------------------------------------------------


@dataclass
class SearchHit:
    doc_id: str
    score: float
    source: dict[str, Any]


@dataclass
class SearchResult:
    hits: list[SearchHit]
    total: int
    facets: list[FacetResult] = dc_field(default_factory=list)

    def ids(self) -> list[str]:
        return [h.doc_id for h in self.hits]


def execute(
    index: SearchIndex,
    query: Query,
    viewer: ViewerContext | None = None,
    limit: int = 50,
    facet_requests: list[FacetRequest] | None = None,
) -> SearchResult:
    """Run ``query`` against ``index`` with ACL filtering and ranking."""
    viewer = viewer or ViewerContext.anonymous()
    ids = query.match_ids(index)
    visible = [
        index._docs[i] for i in ids if index._docs[i].visibility.allows(viewer)
    ]
    tokens = query.score_tokens()
    scored = [
        SearchHit(
            doc_id=d.doc_id,
            score=index.tfidf(tokens, d.doc_id) if tokens else 1.0,
            source=d.source,
        )
        for d in visible
    ]
    scored.sort(key=lambda h: (-h.score, h.doc_id))
    facets = compute_facets(visible, facet_requests or [])
    return SearchResult(hits=scored[:limit], total=len(scored), facets=facets)


# ---------------------------------------------------------------------------
# Query-string parser
# ---------------------------------------------------------------------------

_RANGE_RE = re.compile(
    r"^(?P<field>[\w.]+):\[(?P<lo>\*|-?\d+(?:\.\d+)?)\s+TO\s+(?P<hi>\*|-?\d+(?:\.\d+)?)\]$"
)
_FIELD_RE = re.compile(r"^(?P<field>[\w.]+):(?P<value>.+)$")


def _parse_atom(token: str) -> Query:
    m = _RANGE_RE.match(token)
    if m:
        lo = None if m.group("lo") == "*" else float(m.group("lo"))
        hi = None if m.group("hi") == "*" else float(m.group("hi"))
        return RangeQuery(m.group("field"), lo, hi)
    m = _FIELD_RE.match(token)
    if m and not token.endswith(":"):
        value: Any = m.group("value")
        stripped = value.strip('"')
        if re.fullmatch(r"-?\d+", stripped):
            value = int(stripped)
        elif re.fullmatch(r"-?\d+\.\d+", stripped):
            value = float(stripped)
        elif stripped.lower() in ("true", "false"):
            value = stripped.lower() == "true"
        else:
            value = stripped
        return FieldMatch(m.group("field"), value)
    if token.endswith("*") and len(token) > 1:
        return Prefix(token[:-1])
    return Term(token)


def _split_tokens(text: str) -> list[str]:
    """Split on whitespace but keep ``[lo TO hi]`` ranges and quotes intact."""
    tokens: list[str] = []
    buf: list[str] = []
    depth = 0
    in_quote = False
    for ch in text:
        if ch == '"':
            in_quote = not in_quote
            buf.append(ch)
        elif ch == "[":
            depth += 1
            buf.append(ch)
        elif ch == "]":
            depth = max(depth - 1, 0)
            buf.append(ch)
        elif ch.isspace() and depth == 0 and not in_quote:
            if buf:
                tokens.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if in_quote:
        raise QueryError(f"unbalanced quote in query: {text!r}")
    if buf:
        tokens.append("".join(buf))
    return tokens


def parse_query(text: str) -> Query:
    """Parse a query string into a :class:`Query` (see module docstring)."""
    text = text.strip()
    if not text or text == "*":
        return MatchAll()
    tokens = _split_tokens(text)

    # Split on OR at the top level; AND groups between them.
    or_groups: list[list[str]] = [[]]
    for tok in tokens:
        if tok.upper() == "OR":
            if not or_groups[-1]:
                raise QueryError("OR with empty left-hand side")
            or_groups.append([])
        elif tok.upper() == "AND":
            continue  # AND is implicit
        else:
            or_groups[-1].append(tok)
    if not or_groups[-1]:
        raise QueryError("OR with empty right-hand side")

    def build_group(group: list[str]) -> Query:
        clauses: list[Query] = []
        negate_next = False
        for tok in group:
            if tok.upper() == "NOT":
                negate_next = True
                continue
            atom = _parse_atom(tok)
            clauses.append(Not(atom) if negate_next else atom)
            negate_next = False
        if negate_next:
            raise QueryError("dangling NOT at end of query")
        if not clauses:
            raise QueryError("empty query group")
        return clauses[0] if len(clauses) == 1 else And(clauses)

    groups = [build_group(g) for g in or_groups]
    return groups[0] if len(groups) == 1 else Or(groups)
