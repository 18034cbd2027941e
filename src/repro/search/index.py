"""Inverted-index document store with TF-IDF ranking and ACLs.

Documents are flat-ish dicts; nested dicts are flattened into dotted field
paths (``dlhub.model_type``). String fields are tokenized into the full-text
index and kept as exact keywords; numeric fields support range queries.

Visibility: each document carries a :class:`Visibility` policy — public,
or restricted to a set of principal ids / group names. Queries are always
evaluated against a viewer context, mirroring Globus Search's
access-controlled discovery that the CANDLE use case relies on.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.search.tokenizer import tokenize


class IndexError_(KeyError):
    """Raised for unknown document ids."""


@dataclass(frozen=True)
class Visibility:
    """Who may see a document.

    ``public=True`` means everyone. Otherwise the viewer must match one of
    ``principals`` (identity ids) or belong to one of ``groups`` (checked
    through the caller-supplied membership function).
    """

    public: bool = True
    principals: frozenset[str] = frozenset()
    groups: frozenset[str] = frozenset()

    @classmethod
    def restricted(
        cls, principals: Iterable[str] = (), groups: Iterable[str] = ()
    ) -> "Visibility":
        return cls(public=False, principals=frozenset(principals), groups=frozenset(groups))

    def allows(self, viewer: "ViewerContext") -> bool:
        if self.public:
            return True
        if viewer.is_admin:
            return True
        if viewer.principal_id and viewer.principal_id in self.principals:
            return True
        return bool(self.groups & viewer.groups)


@dataclass(frozen=True)
class ViewerContext:
    """The identity evaluating a query (anonymous by default)."""

    principal_id: str | None = None
    groups: frozenset[str] = frozenset()
    is_admin: bool = False

    @classmethod
    def anonymous(cls) -> "ViewerContext":
        return cls()


@dataclass
class Document:
    """A stored document plus its analyzed form."""

    doc_id: str
    source: dict[str, Any]
    visibility: Visibility = field(default_factory=Visibility)
    #: dotted-field -> list of tokens (text fields only)
    text_fields: dict[str, list[str]] = field(default_factory=dict)
    #: dotted-field -> raw value (exact/keyword match)
    keyword_fields: dict[str, Any] = field(default_factory=dict)
    #: dotted-field -> float (range queries)
    numeric_fields: dict[str, float] = field(default_factory=dict)
    #: all tokens across text fields (free-text search)
    all_tokens: Counter = field(default_factory=Counter)


def flatten(source: dict[str, Any], prefix: str = "") -> dict[str, Any]:
    """Flatten nested dicts into dotted paths; lists are kept as values."""
    out: dict[str, Any] = {}
    for key, value in source.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten(value, path))
        else:
            out[path] = value
    return out


class SearchIndex:
    """An inverted index over documents with ranking and facets."""

    def __init__(self, name: str = "index") -> None:
        self.name = name
        self._docs: dict[str, Document] = {}
        # token -> {doc_id: term_frequency}
        self._postings: dict[str, dict[str, int]] = defaultdict(dict)
        # (field, token) -> {doc_id}
        self._field_postings: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.generation = 0

    # -- ingestion ---------------------------------------------------------------
    def ingest(
        self,
        doc_id: str,
        source: dict[str, Any],
        visibility: Visibility | None = None,
    ) -> Document:
        """Index (or re-index) a document."""
        if doc_id in self._docs:
            self.delete(doc_id)
        doc = Document(doc_id=doc_id, source=source, visibility=visibility or Visibility())
        for path, value in flatten(source).items():
            self._analyze_field(doc, path, value)
        for token, tf in doc.all_tokens.items():
            self._postings[token][doc_id] = tf
        for fieldname, tokens in doc.text_fields.items():
            for token in tokens:
                self._field_postings[(fieldname, token)].add(doc_id)
        self._docs[doc_id] = doc
        self.generation += 1
        return doc

    def _analyze_field(self, doc: Document, path: str, value: Any) -> None:
        if isinstance(value, bool):
            doc.keyword_fields[path] = value
        elif isinstance(value, (int, float)):
            doc.numeric_fields[path] = float(value)
            doc.keyword_fields[path] = value
        elif isinstance(value, str):
            tokens = tokenize(value)
            doc.text_fields[path] = tokens
            doc.keyword_fields[path] = value
            doc.all_tokens.update(tokens)
        elif isinstance(value, (list, tuple)):
            gathered: list[str] = []
            for item in value:
                if isinstance(item, str):
                    gathered.extend(tokenize(item))
                elif isinstance(item, (int, float)) and not isinstance(item, bool):
                    gathered.append(str(item))
            doc.text_fields[path] = gathered
            doc.keyword_fields[path] = list(value)
            doc.all_tokens.update(gathered)
        elif value is None:
            doc.keyword_fields[path] = None
        else:
            doc.keyword_fields[path] = str(value)

    def delete(self, doc_id: str) -> None:
        doc = self._docs.pop(doc_id, None)
        if doc is None:
            raise IndexError_(doc_id)
        for token in doc.all_tokens:
            postings = self._postings.get(token)
            if postings is not None:
                postings.pop(doc_id, None)
                if not postings:
                    del self._postings[token]
        for fieldname, tokens in doc.text_fields.items():
            for token in tokens:
                bucket = self._field_postings.get((fieldname, token))
                if bucket is not None:
                    bucket.discard(doc_id)
                    if not bucket:
                        del self._field_postings[(fieldname, token)]
        self.generation += 1

    # -- access -------------------------------------------------------------------
    def get(self, doc_id: str, viewer: ViewerContext | None = None) -> Document:
        doc = self._docs.get(doc_id)
        if doc is None:
            raise IndexError_(doc_id)
        if viewer is not None and not doc.visibility.allows(viewer):
            raise IndexError_(doc_id)  # hidden docs are indistinguishable from absent
        return doc

    def __len__(self) -> int:
        return len(self._docs)

    def all_doc_ids(self) -> list[str]:
        return list(self._docs)

    # -- low-level matching primitives (used by the query AST) --------------------
    def docs_with_token(self, token: str) -> set[str]:
        return set(self._postings.get(token, ()))

    def docs_with_field_token(self, fieldname: str, token: str) -> set[str]:
        return set(self._field_postings.get((fieldname, token), ()))

    def docs_with_prefix(self, prefix: str) -> set[str]:
        """Partial matching: all docs containing a token starting with prefix."""
        hits: set[str] = set()
        for token, postings in self._postings.items():
            if token.startswith(prefix):
                hits.update(postings)
        return hits

    def term_frequency(self, token: str, doc_id: str) -> int:
        return self._postings.get(token, {}).get(doc_id, 0)

    def document_frequency(self, token: str) -> int:
        return len(self._postings.get(token, ()))

    # -- scoring --------------------------------------------------------------------
    def tfidf(self, tokens: list[str], doc_id: str) -> float:
        """TF-IDF relevance of ``doc_id`` for a bag of query tokens."""
        n_docs = max(len(self._docs), 1)
        score = 0.0
        for token in tokens:
            tf = self.term_frequency(token, doc_id)
            if tf == 0:
                continue
            df = self.document_frequency(token)
            idf = math.log((1 + n_docs) / (1 + df)) + 1.0
            score += (1 + math.log(tf)) * idf
        return score
