"""Admission control: decide each request's fate at the gateway door.

Every arrival is resolved against its tenant's
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
        self, policy: TenantPolicy, servable_name: str, lane_depth: int
    ) -> AdmissionDecision:
        """Decide one arrival; charges the ledger only when admitted.

        Same check order as :meth:`admit_many` and :meth:`admit_chain`:
        shed on lane overflow first (overload backpressure), then the
        free in-flight caps, and the token bucket last — so a request
        denied by a cap or a full lane burns no rate-limit token.
        """
        tenant = policy.name
        if policy.max_queued is not None and lane_depth >= policy.max_queued:
            return self._deny(
                AdmissionOutcome.SHED_LANE_FULL,
                tenant,
                servable_name,
                f"lane holds {lane_depth} >= max_queued={policy.max_queued}",
            )
        if (
            policy.max_in_flight is not None
            and self.in_flight(tenant) >= policy.max_in_flight
        ):
            return self._deny(
                AdmissionOutcome.REJECTED_MAX_IN_FLIGHT,
                tenant,
                servable_name,
                f"{self.in_flight(tenant)} in flight >= {policy.max_in_flight}",
            )
        quota = policy.servable_quota(servable_name)
        if quota is not None and self.in_flight(tenant, servable_name) >= quota:
            return self._deny(
                AdmissionOutcome.REJECTED_SERVABLE_QUOTA,
                tenant,
                servable_name,
                f"{self.in_flight(tenant, servable_name)} in flight on "
                f"{servable_name!r} >= quota {quota}",
            )
        bucket = self.bucket(policy)
        if bucket is not None and not bucket.try_take():
            return self._deny(
                AdmissionOutcome.REJECTED_RATE_LIMIT,
                tenant,
                servable_name,
                f"bucket empty at {bucket.rate_rps:g} rps",
            )
        self._in_flight[tenant] = self.in_flight(tenant) + 1
        key = (tenant, servable_name)
        self._in_flight_by_servable[key] = self._in_flight_by_servable.get(key, 0) + 1
        self.metrics.record_admitted(tenant, servable_name)
        return AdmissionDecision(AdmissionOutcome.ADMITTED, tenant, servable_name)

    def admit_many(
        self, policy: TenantPolicy, servable_name: str, lane_depth: int, n: int
    ) -> AdmissionDecision:
        """All-or-nothing admission for ``n`` items of one servable.

        The synchronous batch path needs atomicity: checking the whole
        batch against the lane cap, in-flight caps, and bucket before
        charging anything means a denial never strands half a batch in
        a lane holding ledger charges it cannot settle. The bucket is
        charged last (after the free checks), so a batch denied by an
        in-flight cap burns no rate-limit tokens.
        """
        if n < 1:
            raise ValueError("admit_many requires n >= 1")
        tenant = policy.name
        if policy.max_queued is not None and lane_depth + n > policy.max_queued:
            return self._deny(
                AdmissionOutcome.SHED_LANE_FULL,
                tenant,
                servable_name,
                f"lane holds {lane_depth} + batch {n} > "
                f"max_queued={policy.max_queued}",
            )
        if (
            policy.max_in_flight is not None
            and self.in_flight(tenant) + n > policy.max_in_flight
        ):
            return self._deny(
                AdmissionOutcome.REJECTED_MAX_IN_FLIGHT,
                tenant,
                servable_name,
                f"{self.in_flight(tenant)} + batch {n} in flight > "
                f"{policy.max_in_flight}",
            )
        quota = policy.servable_quota(servable_name)
        if quota is not None and self.in_flight(tenant, servable_name) + n > quota:
            return self._deny(
                AdmissionOutcome.REJECTED_SERVABLE_QUOTA,
                tenant,
                servable_name,
                f"{self.in_flight(tenant, servable_name)} + batch {n} on "
                f"{servable_name!r} > quota {quota}",
            )
        bucket = self.bucket(policy)
        if bucket is not None and not bucket.try_take(n):
            return self._deny(
                AdmissionOutcome.REJECTED_RATE_LIMIT,
                tenant,
                servable_name,
                f"bucket lacks {n} tokens at {bucket.rate_rps:g} rps",
            )
        self._in_flight[tenant] = self.in_flight(tenant) + n
        key = (tenant, servable_name)
        self._in_flight_by_servable[key] = self._in_flight_by_servable.get(key, 0) + n
        for _ in range(n):
            self.metrics.record_admitted(tenant, servable_name)
        return AdmissionDecision(AdmissionOutcome.ADMITTED, tenant, servable_name)

    def admit_chain(
        self, policy: TenantPolicy, servable_names: list[str], lane_depth: int
    ) -> AdmissionDecision:
        """All-or-nothing admission for a pipeline chain.

        A chain executes its steps sequentially, so admitting each step
        separately lets a rate-limited tenant burn steps ``1..k-1``
        only to be denied at step ``k``. Here the whole chain is
        checked — and its ledger charges taken — up front: the token
        bucket pays one token per step, ``max_in_flight`` must absorb
        every step, and per-servable quotas are checked with each
        servable's multiplicity in the chain. On denial nothing is
        charged — the free checks run first and the bucket is charged
        last, so a chain denied by an in-flight cap burns no tokens. A
        chain longer than the tenant's burst is payable whenever the
        bucket is full (it goes into debt and refills at the sustained
        rate — see :meth:`TokenBucket.try_take`), so whole-chain
        admission never turns a slow-but-working pipeline into a
        permanent denial. On admission the caller must settle each
        step's charge (steps release as they complete; an aborted
        chain's unexecuted steps are refunded via :meth:`release`).

        Only one step occupies the tenant's gateway lane at a time, so
        the ``max_queued`` shed check stays per-request.
        """
        if not servable_names:
            raise ValueError("admit_chain requires at least one step")
        tenant = policy.name
        n = len(servable_names)
        label = f"chain {servable_names}"
        if policy.max_queued is not None and lane_depth >= policy.max_queued:
            return self._deny(
                AdmissionOutcome.SHED_LANE_FULL,
                tenant,
                servable_names[0],
                f"lane holds {lane_depth} >= max_queued={policy.max_queued}",
            )
        if (
            policy.max_in_flight is not None
            and self.in_flight(tenant) + n > policy.max_in_flight
        ):
            return self._deny(
                AdmissionOutcome.REJECTED_MAX_IN_FLIGHT,
                tenant,
                servable_names[0],
                f"{self.in_flight(tenant)} + {label} in flight > "
                f"{policy.max_in_flight}",
            )
        multiplicity: dict[str, int] = {}
        for name in servable_names:
            multiplicity[name] = multiplicity.get(name, 0) + 1
        for name, count in multiplicity.items():
            quota = policy.servable_quota(name)
            if quota is not None and self.in_flight(tenant, name) + count > quota:
                return self._deny(
                    AdmissionOutcome.REJECTED_SERVABLE_QUOTA,
                    tenant,
                    name,
                    f"{self.in_flight(tenant, name)} + {count} chain step(s) "
                    f"on {name!r} > quota {quota}",
                )
        bucket = self.bucket(policy)
        if bucket is not None and not bucket.try_take(n, allow_debt=True):
            return self._deny(
                AdmissionOutcome.REJECTED_RATE_LIMIT,
                tenant,
                servable_names[0],
                f"bucket lacks {n} tokens for {label} at "
                f"{bucket.rate_rps:g} rps",
            )
        self._in_flight[tenant] = self.in_flight(tenant) + n
        for name in servable_names:
            key = (tenant, name)
            self._in_flight_by_servable[key] = (
                self._in_flight_by_servable.get(key, 0) + 1
            )
            self.metrics.record_admitted(tenant, name)
        return AdmissionDecision(AdmissionOutcome.ADMITTED, tenant, servable_names[0])

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
        """Settle one admitted request's in-flight charge."""
        if self.in_flight(tenant) < 1:
            raise ValueError(f"tenant {tenant!r} has nothing in flight")
        self._in_flight[tenant] -= 1
        key = (tenant, servable_name)
        if self._in_flight_by_servable.get(key, 0) < 1:
            raise ValueError(
                f"tenant {tenant!r} has nothing in flight on {servable_name!r}"
            )
        self._in_flight_by_servable[key] -= 1
