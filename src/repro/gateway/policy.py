"""Declarative tenant policies for the serving gateway.

The paper's service is shared by many scientists publishing and invoking
servables through one Management Service, but DLHub proper has no tenant
concept past authentication. This module adds one: a
:class:`TenantPolicy` declares how much of the shared serving fleet a
tenant may consume (token-bucket rate limit, weighted fair share, lane
cap), and a :class:`TenantPolicyTable` resolves an authenticated
:class:`~repro.auth.identity.Identity` to its tenant — by explicit
identity binding, by auth-service group membership, or by falling back
to a default policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.auth.identity import Identity
from repro.sim.clock import VirtualClock


class PolicyError(ValueError):
    """Raised on invalid tenant-policy declarations or bindings."""


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's declarative slice of the shared serving fleet.

    Parameters
    ----------
    name:
        Tenant name; keys scheduler lanes, metrics, and task tags.
    weight:
        Weighted-fair share of dispatch slots. A weight-2 tenant gets
        twice the dispatch bandwidth of a weight-1 tenant while both are
        backlogged; an idle tenant's share is redistributed (the
        scheduler is work-conserving).
    rate_limit_rps:
        Token-bucket refill rate in admitted requests/second (virtual
        time). ``None`` means unlimited.
    burst:
        Bucket depth; defaults to ``max(1, rate_limit_rps)`` so a tenant
        can always burst about one second of its sustained rate.
    max_queued:
        Cap on the tenant's gateway lane depth; arrivals beyond it are
        *shed* (typed outcome, not an error) — the backpressure valve
        that bounds gateway memory under overload. ``None`` = unbounded.
    """

    name: str
    weight: float = 1.0
    rate_limit_rps: float | None = None
    burst: float | None = None
    max_queued: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("tenant name must be non-empty")
        if self.weight <= 0:
            raise PolicyError("weight must be > 0")
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise PolicyError("rate_limit_rps must be > 0 (or None)")
        if self.burst is not None and self.burst < 1:
            raise PolicyError("burst must be >= 1 (or None)")
        if self.max_queued is not None and self.max_queued < 1:
            raise PolicyError("max_queued must be >= 1 (or None)")

    @property
    def effective_burst(self) -> float:
        """Bucket depth actually used when rate limiting is on."""
        if self.burst is not None:
            return self.burst
        return max(1.0, self.rate_limit_rps or 1.0)


class TokenBucket:
    """Virtual-time token bucket (the gateway's rate-limit primitive)."""

    def __init__(self, clock: VirtualClock, rate_rps: float, burst: float) -> None:
        if rate_rps <= 0:
            raise PolicyError("rate_rps must be > 0")
        if burst < 1:
            raise PolicyError("burst must be >= 1")
        self.clock = clock
        self.rate_rps = rate_rps
        self.burst = burst
        self._tokens = float(burst)
        self._refilled_at = clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        elapsed = max(now - self._refilled_at, 0.0)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate_rps)
        self._refilled_at = now

    @property
    def tokens(self) -> float:
        """The balance refilled to now; below 0 while a debt is paid off."""
        self._refill()
        return self._tokens

    def try_take(self, n: float = 1.0, allow_debt: bool = False) -> bool:
        """Take ``n`` tokens if available; False (no debt) otherwise.

        With ``allow_debt=True``, a charge larger than the bucket's
        capacity is allowed when the bucket is *full*: the balance goes
        negative and must refill past zero before the next take
        succeeds. This keeps atomic multi-token charges (pipeline
        chains admitted whole, cost = steps) payable at the sustained
        rate even when the chain is longer than the burst — without it
        such a chain would be denied forever, a regression from
        admitting its steps one token at a time.
        """
        self._refill()
        if self._tokens + 1e-12 < n:
            if not (allow_debt and n > self.burst and self._tokens + 1e-12 >= self.burst):
                return False
        self._tokens -= n
        return True


class TenantPolicyTable:
    """Identity -> tenant resolution with declarative bindings.

    Identities map to tenants three ways, in precedence order:

    1. explicit identity bindings (:meth:`bind_identity`),
    2. auth-service group bindings (:meth:`bind_group`) — any of the
       principal's groups bound to a tenant claims it (ties broken by
       group name for determinism),
    3. the default policy (:meth:`set_default`), when one is declared.

    An identity that resolves to no tenant is not admitted; the gateway
    reports a typed ``REJECTED_UNKNOWN_TENANT`` outcome rather than
    silently serving unmetered traffic.
    """

    def __init__(self) -> None:
        self._policies: dict[str, TenantPolicy] = {}
        self._by_identity: dict[str, str] = {}
        self._by_group: dict[str, str] = {}
        self._default: str | None = None

    # -- declaration --------------------------------------------------------------
    def register(self, policy: TenantPolicy) -> TenantPolicy:
        """Declare a tenant, once: a taken name raises :class:`PolicyError`."""
        if policy.name in self._policies:
            raise PolicyError(f"tenant {policy.name!r} already registered")
        self._policies[policy.name] = policy
        return policy

    def policy(self, tenant_name: str) -> TenantPolicy:
        """The tenant's policy; an unknown name raises :class:`PolicyError`."""
        policy = self._policies.get(tenant_name)
        if policy is None:
            raise PolicyError(f"unknown tenant {tenant_name!r}")
        return policy

    def tenants(self) -> list[str]:
        """Every registered tenant's name, sorted."""
        return sorted(self._policies)

    def bind_identity(self, identity: Identity | str, tenant_name: str) -> None:
        """Pin one identity to a tenant (strongest binding)."""
        self.policy(tenant_name)  # an unknown name raises
        identity_id = (
            identity.identity_id if isinstance(identity, Identity) else identity
        )
        self._by_identity[identity_id] = tenant_name

    def bind_group(self, group_name: str, tenant_name: str) -> None:
        """Map an auth-service group to a tenant (e.g. a project team)."""
        self.policy(tenant_name)  # an unknown name raises
        self._by_group[group_name] = tenant_name

    def set_default(self, tenant_name: str) -> None:
        """Tenant for identities with no explicit or group binding."""
        self.policy(tenant_name)  # an unknown name raises
        self._default = tenant_name

    # -- resolution ---------------------------------------------------------------
    def reads_groups(self, identity: Identity) -> bool:
        """Whether :meth:`resolve` would read ``identity``'s groups: it has
        no binding of its own and some group is bound to a tenant. A
        caller whose group lookup costs something asks first."""
        return bool(self._by_group) and identity.identity_id not in self._by_identity

    def resolve(
        self, identity: Identity, groups: frozenset[str] = frozenset()
    ) -> TenantPolicy | None:
        """The policy governing ``identity``, or None if unresolvable."""
        tenant = self._by_identity.get(identity.identity_id)
        if tenant is None:
            bound = sorted(g for g in groups if g in self._by_group)
            if bound:
                tenant = self._by_group[bound[0]]
        if tenant is None:
            tenant = self._default
        return self._policies[tenant] if tenant is not None else None
