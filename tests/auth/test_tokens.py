"""Unit tests for access tokens: scopes, expiry, revocation."""

import pytest

from repro.auth.identity import IdentityStore
from repro.auth.tokens import Scope, TokenError, TokenStore
from repro.sim.clock import VirtualClock


@pytest.fixture
def env():
    clock = VirtualClock()
    store = IdentityStore()
    store.add_provider("globus")
    ident = store.register_identity("globus", "user")
    return clock, TokenStore(clock), ident


class TestIssueIntrospect:
    def test_issue_and_introspect(self, env):
        clock, tokens, ident = env
        tok = tokens.issue(ident, ["dlhub:all"])
        found = tokens.introspect(tok.token)
        assert found.identity is ident
        assert found.has_scope("dlhub:all")

    def test_unknown_token(self, env):
        _, tokens, _ = env
        with pytest.raises(TokenError):
            tokens.introspect("bogus")

    def test_scope_enforcement(self, env):
        _, tokens, ident = env
        tok = tokens.issue(ident, ["search:query"])
        with pytest.raises(TokenError):
            tokens.require_scope(tok.token, "dlhub:all")
        assert tokens.require_scope(tok.token, "search:query")

    def test_scope_object_accepted(self, env):
        _, tokens, ident = env
        tok = tokens.issue(ident, [Scope("dlhub:all")])
        assert tok.has_scope(Scope("dlhub:all"))

    def test_tokens_are_unique(self, env):
        _, tokens, ident = env
        a = tokens.issue(ident, ["s:a"])
        b = tokens.issue(ident, ["s:a"])
        assert a.token != b.token


class TestExpiry:
    def test_expired_token_rejected(self, env):
        clock, tokens, ident = env
        tok = tokens.issue(ident, ["s:a"], lifetime_s=100.0)
        clock.advance(101.0)
        with pytest.raises(TokenError):
            tokens.introspect(tok.token)

    def test_valid_until_expiry(self, env):
        clock, tokens, ident = env
        tok = tokens.issue(ident, ["s:a"], lifetime_s=100.0)
        clock.advance(99.9)
        assert tokens.introspect(tok.token)

    def test_zero_lifetime_rejected(self, env):
        _, tokens, ident = env
        with pytest.raises(ValueError):
            tokens.issue(ident, ["s:a"], lifetime_s=0.0)


class TestRevocationRefresh:
    def test_revoked_token_rejected(self, env):
        _, tokens, ident = env
        tok = tokens.issue(ident, ["s:a"])
        tokens.revoke(tok.token)
        with pytest.raises(TokenError):
            tokens.introspect(tok.token)

    def test_revoke_unknown(self, env):
        _, tokens, _ = env
        with pytest.raises(TokenError):
            tokens.revoke("missing")


def test_invalid_scope_name():
    with pytest.raises(ValueError):
        Scope("has space")
    with pytest.raises(ValueError):
        Scope("")
