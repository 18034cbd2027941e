"""Admission control: decide each request's fate at the gateway door.

Every arrival — a single request, a pre-split batch or a pipeline
chain, three shapes of the one group :meth:`AdmissionController.admit`
decides all or nothing — is resolved against its tenant's
:class:`~repro.gateway.policy.TenantPolicy` and receives a *typed*
:class:`AdmissionDecision` — admitted into a scheduler lane, rejected
(bad token, unknown tenant, rate limit), or shed (lane full under
overload). Decisions are never exceptions at this layer: the gateway's
open-loop serve path records them per tenant and keeps going, while the
Management Service's synchronous path converts non-admitted decisions
into a raised :class:`~repro.gateway.gateway.AdmissionRejected`.

The controller holds no count of open requests: a tenant is bounded by
its lane cap (``max_queued``) and, past the lane, by its weighted share
of the gateway's dispatch slots, both of which the gateway's scheduler
counts. What admission keeps is the token buckets, the temporary rate
overrides and the shared admitted decisions.
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
        """Whether the request was let in (every other outcome drops it)."""
        return self.outcome is AdmissionOutcome.ADMITTED


class AdmissionController:
    """Per-tenant token buckets and their temporary overrides.

    One instance guards one gateway. Buckets are created lazily per
    tenant from its policy.
    """

    def __init__(
        self, clock: VirtualClock, metrics: TenantUsageCollector | None = None
    ) -> None:
        self.clock = clock
        self.metrics = metrics or TenantUsageCollector()
        self._buckets: dict[str, TokenBucket] = {}
        self._override_buckets: dict[str, TokenBucket] = {}
        #: ``(tenant, servable)`` -> the one admitted decision for it:
        #: an admission is the same immutable value every time.
        self._admitted: dict[tuple[str, str], AdmissionDecision] = {}

    # -- introspection ------------------------------------------------------------
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
        overflow first (overload backpressure), then the token bucket,
        one token per request, so a group shed by a full lane burns no
        rate-limit token.

        ``sequential`` marks a chain, whose steps run one at a time.
        It changes two things: only one step occupies the tenant's lane
        at once, so the group costs one lane slot instead of one per
        request; and the group may overdraw a *full* bucket (it goes
        into debt and refills at the sustained rate — see
        :meth:`TokenBucket.try_take`), so a chain longer than the
        tenant's burst is slow but never permanently denied — a batch
        larger than the burst still is, atomically. Tokens are never
        refunded, not even for an aborted chain's unexecuted steps.
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
        bucket = self.bucket(policy)
        if bucket is not None and not bucket.try_take(n, allow_debt=sequential):
            return self._deny(
                AdmissionOutcome.REJECTED_RATE_LIMIT,
                tenant,
                first,
                f"bucket lacks {n} token(s) at {bucket.rate_rps:g} rps",
            )
        for name in servables:
            self.metrics.record_admitted(tenant, name)
        return self.granted(tenant, first)

    def granted(self, tenant: str, servable_name: str) -> AdmissionDecision:
        """The admitted decision for ``tenant`` on ``servable_name``: one
        immutable value, shared by every admission it describes."""
        key = (tenant, servable_name)
        decision = self._admitted.get(key)
        if decision is None:
            decision = self._admitted[key] = AdmissionDecision(
                AdmissionOutcome.ADMITTED, tenant, servable_name
            )
        return decision

    def _deny(
        self,
        outcome: AdmissionOutcome,
        tenant: str,
        servable_name: str,
        detail: str,
    ) -> AdmissionDecision:
        self.metrics.record_denied(tenant, outcome.value)
        return AdmissionDecision(outcome, tenant, servable_name, detail)

    def release(self, tenant: str, servable_name: str, count: int = 1) -> None:
        """Does nothing: admission keeps no count that a settle moves,
        and nothing in the serving stack calls it.

        The stub stays only because the end-to-end benchmark's tracer
        wraps this name; ROADMAP's benchmark-only queue drops it from
        the tracer's layer table and then deletes the stub.
        """
