"""Unit tests for the inverted index and ACL-filtered access."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.search.index import (
    IndexError_,
    SearchIndex,
    ViewerContext,
    Visibility,
    flatten,
)


@pytest.fixture
def index():
    idx = SearchIndex()
    idx.ingest(
        "m1",
        {
            "datacite": {"title": "CIFAR-10 classifier"},
            "dlhub": {"model_type": "keras", "version": 2},
        },
    )
    idx.ingest(
        "m2",
        {
            "datacite": {"title": "Formation enthalpy forest"},
            "dlhub": {"model_type": "sklearn", "version": 1},
        },
    )
    return idx


class TestFlatten:
    def test_nested_paths(self):
        flat = flatten({"a": {"b": {"c": 1}}, "d": "x"})
        assert flat == {"a.b.c": 1, "d": "x"}

    def test_lists_kept_as_values(self):
        assert flatten({"tags": ["a", "b"]}) == {"tags": ["a", "b"]}


class TestIngestDelete:
    def test_ingest_and_get(self, index):
        doc = index.get("m1")
        assert doc.source["dlhub"]["model_type"] == "keras"
        assert len(index) == 2

    def test_token_postings(self, index):
        assert index.docs_with_token("classifier") == {"m1"}
        assert index.docs_with_token("keras") == {"m1"}

    def test_field_postings(self, index):
        assert index.docs_with_field_token("dlhub.model_type", "sklearn") == {"m2"}

    def test_numeric_fields(self, index):
        assert index.get("m1").numeric_fields["dlhub.version"] == 2.0

    def test_reingest_replaces(self, index):
        index.ingest("m1", {"datacite": {"title": "renamed model"}})
        assert index.docs_with_token("cifar") == set()
        assert index.docs_with_token("renamed") == {"m1"}
        assert len(index) == 2

    def test_delete_removes_postings(self, index):
        index.delete("m1")
        assert "m1" not in index.all_doc_ids()
        assert index.docs_with_token("classifier") == set()

    def test_delete_unknown_raises(self, index):
        with pytest.raises(IndexError_):
            index.delete("ghost")

    def test_prefix_matching(self, index):
        assert index.docs_with_prefix("classif") == {"m1"}
        assert index.docs_with_prefix("f") >= {"m2"}

    def test_generation_bumps(self, index):
        before = index.generation
        index.ingest("m3", {"x": "y"})
        assert index.generation == before + 1


class TestACL:
    def test_public_visible_to_anonymous(self, index):
        assert index.get("m1", ViewerContext.anonymous())

    def test_restricted_hidden_from_anonymous(self):
        idx = SearchIndex()
        idx.ingest("secret", {"title": "x"}, Visibility.restricted(principals=["p1"]))
        with pytest.raises(IndexError_):
            idx.get("secret", ViewerContext.anonymous())

    def test_principal_access(self):
        idx = SearchIndex()
        idx.ingest("doc", {"t": "x"}, Visibility.restricted(principals=["p1"]))
        assert idx.get("doc", ViewerContext(principal_id="p1"))
        with pytest.raises(IndexError_):
            idx.get("doc", ViewerContext(principal_id="p2"))

    def test_group_access(self):
        idx = SearchIndex()
        idx.ingest("doc", {"t": "x"}, Visibility.restricted(groups=["team"]))
        assert idx.get("doc", ViewerContext(principal_id="p9", groups=frozenset(["team"])))

    def test_admin_sees_everything(self):
        idx = SearchIndex()
        idx.ingest("doc", {"t": "x"}, Visibility.restricted(principals=["p1"]))
        assert idx.get("doc", ViewerContext(is_admin=True))


class TestScoring:
    def test_tfidf_prefers_matching_doc(self, index):
        score_m1 = index.tfidf(["classifier"], "m1")
        score_m2 = index.tfidf(["classifier"], "m2")
        assert score_m1 > score_m2 == 0.0

    def test_rare_terms_weigh_more(self):
        idx = SearchIndex()
        for i in range(10):
            idx.ingest(f"d{i}", {"text": "common model"})
        idx.ingest("rare", {"text": "common unicorn model"})
        assert idx.tfidf(["unicorn"], "rare") > idx.tfidf(["common"], "rare")

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma"]), max_size=5))
    def test_scores_nonnegative_property(self, tokens):
        idx = SearchIndex()
        idx.ingest("d", {"text": "alpha beta"})
        assert idx.tfidf(tokens, "d") >= 0.0
