"""Admission control: decide each request's fate at the gateway door.

Every arrival — a single request, a pre-split batch or a pipeline
chain, three shapes of the one group :meth:`AdmissionController.admit`
decides all or nothing — is resolved against its tenant's
:class:`~repro.gateway.policy.TenantPolicy` and receives a *typed*
:class:`AdmissionDecision` — admitted into a scheduler lane, rejected
(bad token, unknown tenant, rate limit, in-flight cap, servable quota),
or shed (lane full under overload). Decisions are never exceptions at
this layer: the gateway's open-loop serve path records them per tenant
and keeps going, while the Management Service's synchronous path
converts non-admitted decisions into a raised
:class:`~repro.gateway.gateway.AdmissionRejected`.

The controller also owns the in-flight ledger: a tenant's admitted
requests count against ``max_in_flight`` (and any per-servable quota)
until the gateway observes their completion and calls :meth:`release`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.metrics import TenantUsageCollector
from repro.gateway.policy import TenantPolicy, TokenBucket
from repro.sim.clock import VirtualClock


class AdmissionOutcome(Enum):
    """Typed fate of one arrival at the gateway."""

    ADMITTED = "admitted"
    #: The bearer token failed authentication/authorization.
    REJECTED_AUTH = "rejected_auth"
    #: The identity resolved to no registered tenant.
    REJECTED_UNKNOWN_TENANT = "rejected_unknown_tenant"
    #: The tenant's token bucket is empty.
    REJECTED_RATE_LIMIT = "rejected_rate_limit"
    #: The tenant is at its global in-flight cap.
    REJECTED_MAX_IN_FLIGHT = "rejected_max_in_flight"
    #: The tenant is at its per-servable in-flight quota.
    REJECTED_SERVABLE_QUOTA = "rejected_servable_quota"
    #: The tenant's gateway lane is full (overload backpressure).
    SHED_LANE_FULL = "shed_lane_full"


#: Outcomes that drop the request (everything except ADMITTED).
REJECTION_OUTCOMES = tuple(
    o for o in AdmissionOutcome if o is not AdmissionOutcome.ADMITTED
)


@dataclass(frozen=True)
class AdmissionDecision:
    """What admission control decided for one arrival."""

    outcome: AdmissionOutcome
    tenant: str | None
    servable: str
    detail: str = ""

    @property
    def admitted(self) -> bool:
        return self.outcome is AdmissionOutcome.ADMITTED


class AdmissionController:
    """Per-tenant token buckets plus the in-flight ledger.

    One instance guards one gateway. Buckets are created lazily per
    tenant from its policy; in-flight counts are tracked globally and
    per ``(tenant, servable)`` so both ``max_in_flight`` and
    ``servable_quotas`` can bind independently.
    """

    def __init__(
        self, clock: VirtualClock, metrics: TenantUsageCollector | None = None
    ) -> None:
        self.clock = clock
        self.metrics = metrics or TenantUsageCollector()
        self._buckets: dict[str, TokenBucket] = {}
        self._override_buckets: dict[str, TokenBucket] = {}
        self._in_flight: dict[str, int] = {}
        self._in_flight_by_servable: dict[tuple[str, str], int] = {}

    # -- introspection ------------------------------------------------------------
    def in_flight(self, tenant: str, servable: str | None = None) -> int:
        if servable is not None:
            return self._in_flight_by_servable.get((tenant, servable), 0)
        return self._in_flight.get(tenant, 0)

    def bucket(self, policy: TenantPolicy) -> TokenBucket | None:
        """The tenant's *effective* token bucket.

        A temporary rate override (load-shed, see
        :meth:`set_rate_override`) replaces the policy bucket outright;
        otherwise the policy bucket is created lazily — or ``None``
        when the tenant is unlimited.
        """
        override = self._override_buckets.get(policy.name)
        if override is not None:
            return override
        if policy.rate_limit_rps is None:
            return None
        bucket = self._buckets.get(policy.name)
        if bucket is None:
            bucket = TokenBucket(
                self.clock, policy.rate_limit_rps, policy.effective_burst
            )
            self._buckets[policy.name] = bucket
        return bucket

    # -- temporary rate overrides (reactive load shed) ------------------------
    def set_rate_override(
        self, tenant: str, rate_rps: float, burst: float | None = None
    ) -> None:
        """Impose a temporary admission rate cap on one tenant.

        The override bucket *replaces* the tenant's policy bucket (and
        rate-limits an otherwise unlimited tenant) until
        :meth:`clear_rate_override` — how a reactive SLO policy sheds
        an overload-shaped burn at the door. ``burst`` defaults to a
        *quarter*-second of the capped rate (at least one token): the
        override exists because the tenant is already overrunning, so
        granting it a full second of banked tokens on imposition would
        let the very traffic being shed ride through on burst.
        """
        if rate_rps <= 0:
            raise ValueError("override rate_rps must be > 0")
        self._override_buckets[tenant] = TokenBucket(
            self.clock,
            rate_rps,
            max(1.0, rate_rps * 0.25 if burst is None else burst),
        )

    def clear_rate_override(self, tenant: str) -> bool:
        """Lift a tenant's rate override; returns whether one was set.

        The policy bucket (if any) was refilling untouched meanwhile,
        so admission reverts to exactly the declared policy.
        """
        return self._override_buckets.pop(tenant, None) is not None

    def rate_override(self, tenant: str) -> float | None:
        """The tenant's active override rate, or ``None``."""
        bucket = self._override_buckets.get(tenant)
        return None if bucket is None else bucket.rate_rps

    # -- the decision -------------------------------------------------------------
    def admit(
        self,
        policy: TenantPolicy,
        servables: tuple[str, ...] | list[str],
        lane_depth: int,
        sequential: bool = False,
    ) -> AdmissionDecision:
        """Decide a *group* of requests all or nothing.

        ``servables`` names one servable per request: one name for an
        arrival, ``n`` of the same for a pre-split batch, a pipeline's
        steps for a chain. The whole group is checked before anything
        is charged, so a denial never strands half a batch in a lane or
        lets a rate-limited tenant burn steps ``1..k-1`` of a chain
        only to be denied at step ``k``. Check order: shed on lane
        overflow first (overload backpressure), then the free in-flight
        caps — ``max_in_flight`` must absorb every request, per-servable
        quotas each servable's multiplicity in the group — and the token
        bucket last, one token per request, so a group denied by a cap
        or a full lane burns no rate-limit token.

        ``sequential`` marks a chain, whose steps run one at a time.
        It changes two things: only one step occupies the tenant's lane
        at once, so the group costs one lane slot instead of one per
        request; and the group may overdraw a *full* bucket (it goes
        into debt and refills at the sustained rate — see
        :meth:`TokenBucket.try_take`), so a chain longer than the
        tenant's burst is slow but never permanently denied — a batch
        larger than the burst still is, atomically. On admission the
        caller settles each request's charge through :meth:`release`
        (an aborted chain's unexecuted steps included).
        """
        if isinstance(servables, str):
            raise TypeError("servables is a sequence of names, not one str")
        n = len(servables)
        if n < 1:
            raise ValueError("admit requires at least one servable")
        tenant = policy.name
        first = servables[0]
        lane_cost = 1 if sequential else n
        if policy.max_queued is not None and lane_depth + lane_cost > policy.max_queued:
            return self._deny(
                AdmissionOutcome.SHED_LANE_FULL,
                tenant,
                first,
                f"lane holds {lane_depth} + {lane_cost} > "
                f"max_queued={policy.max_queued}",
            )
        if (
            policy.max_in_flight is not None
            and self.in_flight(tenant) + n > policy.max_in_flight
        ):
            return self._deny(
                AdmissionOutcome.REJECTED_MAX_IN_FLIGHT,
                tenant,
                first,
                f"{self.in_flight(tenant)} + {n} in flight > "
                f"{policy.max_in_flight}",
            )
        # Each distinct servable once, in first-occurrence order.
        for name in dict.fromkeys(servables) if policy.servable_quotas else ():
            quota, count = policy.servable_quota(name), servables.count(name)
            if quota is not None and self.in_flight(tenant, name) + count > quota:
                return self._deny(
                    AdmissionOutcome.REJECTED_SERVABLE_QUOTA,
                    tenant,
                    name,
                    f"{self.in_flight(tenant, name)} + {count} in flight on "
                    f"{name!r} > quota {quota}",
                )
        bucket = self.bucket(policy)
        if bucket is not None and not bucket.try_take(n, allow_debt=sequential):
            return self._deny(
                AdmissionOutcome.REJECTED_RATE_LIMIT,
                tenant,
                first,
                f"bucket lacks {n} token(s) at {bucket.rate_rps:g} rps",
            )
        self._in_flight[tenant] = self.in_flight(tenant) + n
        for name in servables:
            key = (tenant, name)
            self._in_flight_by_servable[key] = (
                self._in_flight_by_servable.get(key, 0) + 1
            )
            self.metrics.record_admitted(tenant, name)
        return AdmissionDecision(AdmissionOutcome.ADMITTED, tenant, first)

    def _deny(
        self,
        outcome: AdmissionOutcome,
        tenant: str,
        servable_name: str,
        detail: str,
    ) -> AdmissionDecision:
        self.metrics.record_denied(tenant, outcome.value)
        return AdmissionDecision(outcome, tenant, servable_name, detail)

    def restore_charge(self, tenant: str, servable_name: str) -> None:
        """Re-impose one recovered request's in-flight charge.

        Crash recovery only: the request was admitted (and its metrics
        recorded) by a previous process incarnation, so no checks run
        and nothing is re-counted — the ledger just regains the charge
        the old process held, to be released by the normal settlement
        path.
        """
        self._in_flight[tenant] = self.in_flight(tenant) + 1
        key = (tenant, servable_name)
        self._in_flight_by_servable[key] = (
            self._in_flight_by_servable.get(key, 0) + 1
        )

    def release(self, tenant: str, servable_name: str) -> None:
        """Settle one admitted request's in-flight charge.

        Both counts are checked before either moves, so a refused
        release leaves the ledger balanced.
        """
        if self.in_flight(tenant) < 1:
            raise ValueError(f"tenant {tenant!r} has nothing in flight")
        key = (tenant, servable_name)
        if self._in_flight_by_servable.get(key, 0) < 1:
            raise ValueError(
                f"tenant {tenant!r} has nothing in flight on {servable_name!r}"
            )
        self._in_flight[tenant] -= 1
        self._in_flight_by_servable[key] -= 1
