"""The Auth service: resource servers, login flows, dependent tokens.

The DLHub Management Service registers as a *resource server* with its own
scope (SS IV-D). Users authenticate with an identity provider; the service
validates the identity, then obtains short-term tokens that let it act on
the user's behalf (dependent tokens for Search, Transfer, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.auth.identity import Identity, IdentityStore
from repro.auth.tokens import AccessToken, Scope, TokenError, TokenStore
from repro.sim.clock import VirtualClock


class AuthorizationError(PermissionError):
    """Raised when an authenticated principal lacks permission."""


@dataclass
class ResourceServer:
    """A registered API (e.g. the DLHub Management Service)."""

    name: str
    scopes: list[Scope] = field(default_factory=list)


class AuthService:
    """Brokered authentication and authorization (Globus-Auth-like)."""

    def __init__(self, clock: VirtualClock, identities: IdentityStore | None = None) -> None:
        self.clock = clock
        self.identities = identities or IdentityStore()
        self.tokens = TokenStore(clock)
        self.resource_servers: dict[str, ResourceServer] = {}

    # -- registration -------------------------------------------------------------
    def register_resource_server(self, name: str, scope_suffixes: list[str]) -> ResourceServer:
        if name in self.resource_servers:
            raise ValueError(f"resource server {name!r} already registered")
        rs = ResourceServer(name=name, scopes=[Scope(f"{name}:{s}") for s in scope_suffixes])
        self.resource_servers[name] = rs
        return rs

    # -- login flow ---------------------------------------------------------------
    def login(
        self,
        provider_name: str,
        username: str,
        requested_scopes: list[str] | None = None,
    ) -> AccessToken:
        """Authenticate ``username`` with ``provider_name`` and issue a token.

        If ``requested_scopes`` is None, all registered resource-server
        scopes are granted (the common SDK flow).
        """
        provider = self.identities.providers.get(provider_name)
        if provider is None:
            raise AuthorizationError(f"unknown identity provider {provider_name!r}")
        identity = provider.authenticate(username)
        if requested_scopes is None:
            requested_scopes = [
                str(s) for rs in self.resource_servers.values() for s in rs.scopes
            ]
        else:
            self._validate_scopes(requested_scopes)
        return self.tokens.issue(identity, requested_scopes)

    def _validate_scopes(self, scopes: list[str]) -> None:
        known = {str(s) for rs in self.resource_servers.values() for s in rs.scopes}
        unknown = [s for s in scopes if s not in known]
        if unknown:
            raise AuthorizationError(f"unknown scopes requested: {unknown}")

    # -- request authorization ------------------------------------------------------
    def authorize(self, token_str: str, scope: str | Scope) -> Identity:
        """Validate a bearer token and required scope; return the identity."""
        try:
            tok = self.tokens.require_scope(token_str, scope)
        except TokenError as exc:
            raise AuthorizationError(str(exc)) from exc
        return tok.identity

    def dependent_token(self, token_str: str, downstream_scope: str | Scope) -> AccessToken:
        """Exchange a valid token for a short-term downstream token.

        This is how the Management Service gets Search/Transfer access on
        the user's behalf without ever seeing their credentials.
        """
        try:
            tok = self.tokens.introspect(token_str)
        except TokenError as exc:
            raise AuthorizationError(str(exc)) from exc
        return self.tokens.issue(tok.identity, [str(downstream_scope)], lifetime_s=3600.0)

    def principal_groups(self, identity: Identity) -> frozenset[str]:
        """All groups any of the principal's linked identities belongs to.

        Shared by the Management Service's visibility checks and the
        serving gateway's group-based tenant resolution.
        """
        return frozenset(
            name
            for name in self.identities.groups
            if self.identities.in_group(identity, name)
        )
