"""Globus-Search-like indexed discovery substrate.

DLHub registers model metadata in a Globus Search index and supports
"free text queries, partial matching, range queries, faceted search, and
more" with fine-grained access control (SS IV-A, "Model discovery"). This
package provides an inverted-index search engine with exactly those
capabilities:

* :mod:`repro.search.tokenizer` — text analysis (lowercasing, token
  splitting),
* :mod:`repro.search.index` — documents, inverted index, TF-IDF ranking,
  per-document visibility ACLs,
* :mod:`repro.search.query` — a composable query AST (term, phrase,
  prefix, field match, numeric range, boolean combinators) plus a tiny
  query-string parser and faceted aggregation.
"""

from repro.search.tokenizer import tokenize
from repro.search.index import SearchIndex, Document, Visibility
from repro.search.query import (
    Query,
    Term,
    Prefix,
    FieldMatch,
    RangeQuery,
    And,
    Or,
    Not,
    MatchAll,
    parse_query,
    FacetRequest,
    FacetResult,
)

__all__ = [
    "tokenize",
    "SearchIndex",
    "Document",
    "Visibility",
    "Query",
    "Term",
    "Prefix",
    "FieldMatch",
    "RangeQuery",
    "And",
    "Or",
    "Not",
    "MatchAll",
    "parse_query",
    "FacetRequest",
    "FacetResult",
]
