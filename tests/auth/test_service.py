"""Unit tests for the Auth service: login, authorization, dependent tokens."""

import pytest

from repro.auth.service import AuthorizationError, AuthService
from repro.sim.clock import VirtualClock


@pytest.fixture
def auth():
    service = AuthService(VirtualClock())
    service.identities.add_provider("globus", "globusid.org")
    service.identities.add_provider("orcid", "orcid.org")
    service.register_resource_server("dlhub", ["all"])
    service.register_resource_server("search", ["query", "ingest"])
    service.identities.register_identity("globus", "kyle")
    return service


class TestLogin:
    def test_login_grants_all_scopes_by_default(self, auth):
        tok = auth.login("globus", "kyle")
        assert tok.has_scope("dlhub:all")
        assert tok.has_scope("search:query")

    def test_login_with_requested_scopes(self, auth):
        tok = auth.login("globus", "kyle", requested_scopes=["search:query"])
        assert tok.has_scope("search:query")
        assert not tok.has_scope("dlhub:all")

    def test_unknown_scope_rejected(self, auth):
        with pytest.raises(AuthorizationError):
            auth.login("globus", "kyle", requested_scopes=["nope:scope"])

    def test_unknown_provider_rejected(self, auth):
        with pytest.raises(AuthorizationError):
            auth.login("github", "kyle")

    def test_unknown_user_rejected(self, auth):
        from repro.auth.identity import IdentityError

        with pytest.raises(IdentityError):
            auth.login("globus", "ghost")

    def test_multiple_identity_providers(self, auth):
        """Users can authenticate with any of hundreds of providers."""
        auth.identities.register_identity("orcid", "0000-0003")
        tok = auth.login("orcid", "0000-0003")
        assert tok.identity.provider == "orcid.org"


class TestAuthorize:
    def test_valid_token_returns_identity(self, auth):
        tok = auth.login("globus", "kyle")
        ident = auth.authorize(tok.token, "dlhub:all")
        assert ident.username == "kyle"

    def test_bad_token_rejected(self, auth):
        with pytest.raises(AuthorizationError):
            auth.authorize("junk", "dlhub:all")

    def test_insufficient_scope_rejected(self, auth):
        tok = auth.login("globus", "kyle", requested_scopes=["search:query"])
        with pytest.raises(AuthorizationError):
            auth.authorize(tok.token, "dlhub:all")

    def test_expired_token_rejected(self, auth):
        tok = auth.tokens.issue(
            auth.identities.providers["globus"].authenticate("kyle"),
            ["dlhub:all"],
            lifetime_s=10.0,
        )
        auth.clock.advance(11.0)
        with pytest.raises(AuthorizationError):
            auth.authorize(tok.token, "dlhub:all")


class TestDependentTokens:
    def test_dependent_token_exchange(self, auth):
        """The MS exchanges a user token for downstream (Search) access."""
        user_tok = auth.login("globus", "kyle")
        dep = auth.dependent_token(user_tok.token, "search:ingest")
        assert dep.identity.username == "kyle"
        assert dep.has_scope("search:ingest")
        assert not dep.has_scope("dlhub:all")  # least privilege

    def test_dependent_token_short_lived(self, auth):
        user_tok = auth.login("globus", "kyle")
        dep = auth.dependent_token(user_tok.token, "search:query")
        assert dep.expires_at - dep.issued_at == pytest.approx(3600.0)

    def test_dependent_from_bad_token(self, auth):
        with pytest.raises(AuthorizationError):
            auth.dependent_token("junk", "search:query")


def test_duplicate_resource_server():
    service = AuthService(VirtualClock())
    service.register_resource_server("x", ["a"])
    with pytest.raises(ValueError):
        service.register_resource_server("x", ["a"])
