"""Identities, identity providers, linking, and groups.

Globus Auth brokers authentication across hundreds of identity providers
(campus, ORCID, Google) and supports *linked identities* — the same person
holding several provider identities treated as one principal. DLHub uses
profile information from linked identities to pre-complete publication
metadata (SS IV-D).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field


class IdentityError(ValueError):
    """Raised for unknown identities or invalid identity operations."""


def _stable_id(prefix: str, *parts: str) -> str:
    """Deterministic opaque id from a natural key.

    Random ids (``uuid4``) made identity-keyed behaviour unreplayable:
    :meth:`IdentityStore.linked_identities` sorts by id, so even the
    "primary" identity a profile merge picked varied run to run. The
    natural key (provider domain + username / group name) is unique by
    construction — registration rejects duplicates — so a digest of it
    is just as opaque and collision-free, and identical across runs.
    """
    digest = hashlib.sha256(":".join(parts).encode()).hexdigest()
    return f"{prefix}-{digest[:16]}"


@dataclass(frozen=True)
class Identity:
    """A single identity issued by one provider."""

    identity_id: str
    username: str
    provider: str
    display_name: str = ""
    email: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.username}@{self.provider}"


@dataclass
class IdentityProvider:
    """An identity provider (campus, ORCID, Google, ...)."""

    name: str
    domain: str
    identities: dict[str, Identity] = field(default_factory=dict)

    def register(self, username: str, display_name: str = "", email: str = "") -> Identity:
        if username in self.identities:
            raise IdentityError(f"{username!r} already registered with {self.name}")
        ident = Identity(
            identity_id=_stable_id("id", self.domain, username),
            username=username,
            provider=self.domain,
            display_name=display_name or username,
            email=email or f"{username}@{self.domain}",
        )
        self.identities[username] = ident
        return ident

    def authenticate(self, username: str) -> Identity:
        """Simulated credential check: the user must exist with the provider."""
        try:
            return self.identities[username]
        except KeyError:
            raise IdentityError(f"unknown user {username!r} at {self.name}") from None


@dataclass
class Group:
    """A named group of identities used for access control."""

    name: str
    group_id: str = ""
    member_ids: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.group_id:
            self.group_id = _stable_id("group", self.name)

    def add(self, identity: Identity) -> None:
        self.member_ids.add(identity.identity_id)


class IdentityStore:
    """Registry of providers, identity linking, and groups."""

    def __init__(self) -> None:
        self.providers: dict[str, IdentityProvider] = {}
        self.groups: dict[str, Group] = {}
        self._links: dict[str, set[str]] = {}  # identity_id -> linked set (shared)
        self._by_id: dict[str, Identity] = {}
        self._link_counter = itertools.count()

    # -- providers ---------------------------------------------------------------
    def add_provider(self, name: str, domain: str | None = None) -> IdentityProvider:
        if name in self.providers:
            raise IdentityError(f"provider {name!r} already exists")
        provider = IdentityProvider(name=name, domain=domain or f"{name.lower()}.org")
        self.providers[name] = provider
        return provider

    def register_identity(
        self, provider_name: str, username: str, display_name: str = "", email: str = ""
    ) -> Identity:
        try:
            provider = self.providers[provider_name]
        except KeyError:
            raise IdentityError(f"unknown provider {provider_name!r}") from None
        ident = provider.register(username, display_name, email)
        self._by_id[ident.identity_id] = ident
        self._links[ident.identity_id] = {ident.identity_id}
        return ident

    def get(self, identity_id: str) -> Identity:
        try:
            return self._by_id[identity_id]
        except KeyError:
            raise IdentityError(f"unknown identity id {identity_id!r}") from None

    # -- linking -----------------------------------------------------------------
    def link(self, a: Identity, b: Identity) -> None:
        """Link two identities into one principal (transitive union)."""
        set_a = self._links[a.identity_id]
        set_b = self._links[b.identity_id]
        if set_a is set_b:
            return
        merged = set_a | set_b
        for iid in merged:
            self._links[iid] = merged

    def linked_identities(self, identity: Identity) -> list[Identity]:
        """All identities belonging to the same principal, including itself."""
        return [self._by_id[iid] for iid in sorted(self._links[identity.identity_id])]

    def same_principal(self, a: Identity, b: Identity) -> bool:
        return self._links[a.identity_id] is self._links[b.identity_id] or (
            b.identity_id in self._links[a.identity_id]
        )

    # -- groups ------------------------------------------------------------------
    def create_group(self, name: str) -> Group:
        if name in self.groups:
            raise IdentityError(f"group {name!r} already exists")
        group = Group(name=name)
        self.groups[name] = group
        return group

    def in_group(self, identity: Identity, group_name: str) -> bool:
        """Whether any linked identity of the principal is in the group."""
        group = self.groups.get(group_name)
        if group is None:
            return False
        return any(iid in group.member_ids for iid in self._links[identity.identity_id])

    def profile(self, identity: Identity) -> dict:
        """Merged profile across linked identities (metadata pre-completion)."""
        linked = self.linked_identities(identity)
        primary = linked[0]
        return {
            "display_name": identity.display_name or primary.display_name,
            "emails": sorted({i.email for i in linked if i.email}),
            "identities": [i.qualified_name for i in linked],
            "providers": sorted({i.provider for i in linked}),
        }
