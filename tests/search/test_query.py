"""Unit tests for the query AST, parser, facets, and execution."""

import pytest

from repro.search.index import SearchIndex, ViewerContext, Visibility
from repro.search.query import (
    And,
    FacetRequest,
    FieldMatch,
    MatchAll,
    Not,
    Or,
    Prefix,
    QueryError,
    RangeQuery,
    Term,
    execute,
    parse_query,
)


@pytest.fixture
def index():
    idx = SearchIndex()
    idx.ingest(
        "keras1",
        {
            "datacite": {"title": "CIFAR-10 image classifier"},
            "dlhub": {"model_type": "keras", "domain": "vision", "version": 3},
        },
    )
    idx.ingest(
        "keras2",
        {
            "datacite": {"title": "Inception image classifier"},
            "dlhub": {"model_type": "keras", "domain": "vision", "version": 1},
        },
    )
    idx.ingest(
        "forest",
        {
            "datacite": {"title": "Formation enthalpy predictor"},
            "dlhub": {"model_type": "sklearn", "domain": "materials", "version": 2},
        },
    )
    return idx


class TestAST:
    def test_term(self, index):
        assert Term("classifier").match_ids(index) == {"keras1", "keras2"}

    def test_multiword_term_is_and(self, index):
        assert Term("image classifier").match_ids(index) == {"keras1", "keras2"}

    def test_prefix(self, index):
        assert Prefix("incep").match_ids(index) == {"keras2"}

    def test_field_match_text(self, index):
        assert FieldMatch("dlhub.model_type", "keras").match_ids(index) == {
            "keras1",
            "keras2",
        }

    def test_field_match_numeric(self, index):
        assert FieldMatch("dlhub.version", 2).match_ids(index) == {"forest"}

    def test_range_query(self, index):
        assert RangeQuery("dlhub.version", 2, None).match_ids(index) == {
            "keras1",
            "forest",
        }
        assert RangeQuery("dlhub.version", None, 1).match_ids(index) == {"keras2"}
        assert RangeQuery("dlhub.version", 1, 3).match_ids(index) == {
            "keras1",
            "keras2",
            "forest",
        }

    def test_boolean_combinators(self, index):
        q = And([Term("classifier"), FieldMatch("dlhub.domain", "vision")])
        assert q.match_ids(index) == {"keras1", "keras2"}
        q = Or([FieldMatch("dlhub.domain", "materials"), Prefix("cifar")])
        assert q.match_ids(index) == {"forest", "keras1"}
        q = Not(Term("classifier"))
        assert q.match_ids(index) == {"forest"}

    def test_match_all(self, index):
        assert MatchAll().match_ids(index) == {"keras1", "keras2", "forest"}


class TestParser:
    def test_bare_words_and(self, index):
        q = parse_query("image classifier")
        assert q.match_ids(index) == {"keras1", "keras2"}

    def test_field_syntax(self, index):
        q = parse_query("dlhub.model_type:sklearn")
        assert q.match_ids(index) == {"forest"}

    def test_prefix_syntax(self, index):
        assert parse_query("cifar*").match_ids(index) == {"keras1"}

    def test_range_syntax(self, index):
        q = parse_query("dlhub.version:[2 TO *]")
        assert q.match_ids(index) == {"keras1", "forest"}

    def test_or_and_not(self, index):
        q = parse_query("enthalpy OR inception")
        assert q.match_ids(index) == {"forest", "keras2"}
        q = parse_query("classifier NOT inception")
        assert q.match_ids(index) == {"keras1"}

    def test_quoted_value(self, index):
        q = parse_query('dlhub.domain:"materials"')
        assert q.match_ids(index) == {"forest"}

    def test_star_matches_all(self, index):
        assert parse_query("*").match_ids(index) == {"keras1", "keras2", "forest"}

    def test_numeric_field_value_parsed(self, index):
        q = parse_query("dlhub.version:3")
        assert q.match_ids(index) == {"keras1"}

    def test_malformed_queries(self):
        with pytest.raises(QueryError):
            parse_query("OR foo")
        with pytest.raises(QueryError):
            parse_query("foo OR")
        with pytest.raises(QueryError):
            parse_query("foo NOT")
        with pytest.raises(QueryError):
            parse_query('bad "quote')


class TestExecution:
    def test_ranked_results(self, index):
        result = execute(index, parse_query("image classifier"))
        assert result.total == 2
        assert set(result.ids()) == {"keras1", "keras2"}
        assert result.hits[0].score >= result.hits[1].score

    def test_limit(self, index):
        result = execute(index, MatchAll(), limit=2)
        assert len(result.hits) == 2
        assert result.total == 3

    def test_acl_filtering_in_execute(self):
        idx = SearchIndex()
        idx.ingest("pub", {"t": "model"})
        idx.ingest("priv", {"t": "model"}, Visibility.restricted(principals=["vip"]))
        anon = execute(idx, Term("model"))
        assert anon.ids() == ["pub"]
        vip = execute(idx, Term("model"), ViewerContext(principal_id="vip"))
        assert set(vip.ids()) == {"pub", "priv"}

    def test_facets(self, index):
        result = execute(
            index,
            MatchAll(),
            facet_requests=[FacetRequest("dlhub.model_type")],
        )
        facet = result.facets[0]
        assert dict(facet.buckets) == {"keras": 2, "sklearn": 1}
        assert facet.buckets[0] == ("keras", 2)  # descending count

    def test_facet_size_cap(self, index):
        result = execute(
            index, MatchAll(), facet_requests=[FacetRequest("dlhub.domain", size=1)]
        )
        assert len(result.facets[0].buckets) == 1
