"""OAuth2-style access tokens with scopes and expiry.

Tokens are opaque strings bound to an identity and a set of scopes; the
:class:`TokenStore` issues, introspects and revokes them against
the experiment's virtual clock.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.auth.identity import Identity
from repro.sim.clock import VirtualClock


class TokenError(PermissionError):
    """Raised for invalid, expired, or insufficiently-scoped tokens."""


@dataclass(frozen=True)
class Scope:
    """A permission scope, e.g. ``dlhub:serve`` or ``search:query``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or " " in self.name:
            raise ValueError(f"invalid scope name {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass
class AccessToken:
    """A bearer token bound to an identity and scopes."""

    token: str
    identity: Identity
    scopes: frozenset[str]
    issued_at: float
    expires_at: float
    revoked: bool = field(default=False)

    def has_scope(self, scope: str | Scope) -> bool:
        return str(scope) in self.scopes


class TokenStore:
    """Issues and validates access tokens."""

    #: Default token lifetime, matching Globus Auth's short-term tokens.
    DEFAULT_LIFETIME_S = 48 * 3600.0

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._tokens: dict[str, AccessToken] = {}

    def issue(
        self,
        identity: Identity,
        scopes: list[str | Scope] | set[str],
        lifetime_s: float | None = None,
    ) -> AccessToken:
        lifetime = lifetime_s if lifetime_s is not None else self.DEFAULT_LIFETIME_S
        if lifetime <= 0:
            raise ValueError("token lifetime must be > 0")
        now = self.clock.now()
        token = AccessToken(
            token=secrets.token_hex(16),
            identity=identity,
            scopes=frozenset(str(s) for s in scopes),
            issued_at=now,
            expires_at=now + lifetime,
        )
        self._tokens[token.token] = token
        return token

    def introspect(self, token_str: str) -> AccessToken:
        """Validate a token string; raises :class:`TokenError` if not active."""
        tok = self._tokens.get(token_str)
        if tok is None:
            raise TokenError("unknown token")
        if tok.revoked:
            raise TokenError("token revoked")
        if self.clock.now() >= tok.expires_at:
            raise TokenError("token expired")
        return tok

    def require_scope(self, token_str: str, scope: str | Scope) -> AccessToken:
        """Introspect and additionally require ``scope``."""
        tok = self.introspect(token_str)
        if not tok.has_scope(scope):
            raise TokenError(f"token lacks required scope {scope}")
        return tok

    def revoke(self, token_str: str) -> None:
        tok = self._tokens.get(token_str)
        if tok is None:
            raise TokenError("unknown token")
        tok.revoked = True
