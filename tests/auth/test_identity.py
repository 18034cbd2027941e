"""Unit tests for identities, providers, linking, and groups."""

import pytest

from repro.auth.identity import IdentityError, IdentityStore


@pytest.fixture
def store():
    s = IdentityStore()
    s.add_provider("globus", "globusid.org")
    s.add_provider("orcid", "orcid.org")
    return s


class TestProviders:
    def test_register_and_authenticate(self, store):
        ident = store.register_identity("globus", "kyle")
        assert store.providers["globus"].authenticate("kyle") is ident
        assert ident.qualified_name == "kyle@globusid.org"

    def test_duplicate_provider_rejected(self, store):
        with pytest.raises(IdentityError):
            store.add_provider("globus")

    def test_duplicate_username_rejected(self, store):
        store.register_identity("globus", "kyle")
        with pytest.raises(IdentityError):
            store.register_identity("globus", "kyle")

    def test_unknown_provider(self, store):
        with pytest.raises(IdentityError):
            store.register_identity("facebook", "kyle")

    def test_unknown_user_authentication(self, store):
        with pytest.raises(IdentityError):
            store.providers["globus"].authenticate("ghost")

    def test_default_email(self, store):
        ident = store.register_identity("globus", "ryan")
        assert ident.email == "ryan@globusid.org"

    def test_lookup_by_id(self, store):
        ident = store.register_identity("globus", "a")
        assert store.get(ident.identity_id) is ident
        with pytest.raises(IdentityError):
            store.get("no-such-id")


class TestLinking:
    def test_link_two_identities(self, store):
        a = store.register_identity("globus", "kyle")
        b = store.register_identity("orcid", "0000-0001")
        store.link(a, b)
        assert store.same_principal(a, b)
        linked = store.linked_identities(a)
        assert {i.username for i in linked} == {"kyle", "0000-0001"}

    def test_linking_is_transitive(self, store):
        store.add_provider("google")
        a = store.register_identity("globus", "u1")
        b = store.register_identity("orcid", "u2")
        c = store.register_identity("google", "u3")
        store.link(a, b)
        store.link(b, c)
        assert store.same_principal(a, c)
        assert len(store.linked_identities(a)) == 3

    def test_unlinked_are_distinct(self, store):
        a = store.register_identity("globus", "u1")
        b = store.register_identity("orcid", "u2")
        assert not store.same_principal(a, b)

    def test_self_link_is_noop(self, store):
        a = store.register_identity("globus", "u1")
        store.link(a, a)
        assert store.linked_identities(a) == [a]

    def test_profile_merges_linked(self, store):
        a = store.register_identity("globus", "kyle", email="k@anl.gov")
        b = store.register_identity("orcid", "0000-0001", email="k@orcid.org")
        store.link(a, b)
        profile = store.profile(a)
        assert set(profile["emails"]) == {"k@anl.gov", "k@orcid.org"}
        assert len(profile["identities"]) == 2


class TestGroups:
    def test_membership(self, store):
        group = store.create_group("candle-testers")
        member = store.register_identity("globus", "tester")
        outsider = store.register_identity("globus", "outsider")
        group.add(member)
        assert store.in_group(member, "candle-testers")
        assert not store.in_group(outsider, "candle-testers")

    def test_linked_identity_inherits_membership(self, store):
        """Group checks consider ALL of a principal's linked identities."""
        group = store.create_group("g")
        campus = store.register_identity("globus", "campus-id")
        orcid = store.register_identity("orcid", "0000-0002")
        store.link(campus, orcid)
        group.add(campus)
        assert store.in_group(orcid, "g")

    def test_unknown_group_is_false(self, store):
        member = store.register_identity("globus", "m")
        assert not store.in_group(member, "nonexistent")

    def test_duplicate_group_rejected(self, store):
        store.create_group("g")
        with pytest.raises(IdentityError):
            store.create_group("g")
