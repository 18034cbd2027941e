"""The multi-tenant serving gateway: the single entry to the data plane.

``client -> gateway -> WFQ lanes -> ServingRuntime -> fleet``

The gateway sits between callers (the Management Service, the SDK
client, open-loop benchmark drivers) and the
:class:`~repro.core.runtime.ServingRuntime`:

1. **authentication** — direct submissions present a bearer token,
   validated against the existing Auth service (``dlhub:all`` scope);
   Management-Service-fronted requests arrive pre-authorized and carry
   their identity id;
2. **tenant resolution** — the identity maps to a
   :class:`~repro.gateway.policy.TenantPolicy` via the declarative
   :class:`~repro.gateway.policy.TenantPolicyTable`;
3. **admission control** — the token-bucket rate limit and the lane
   cap produce a typed
   :class:`~repro.gateway.admission.AdmissionDecision` (reject/shed,
   never an untyped drop), with per-tenant metrics;
4. **weighted fair scheduling** — admitted requests wait in per-tenant
   lanes and are metered onto the runtime's per-servable queue topics
   in WFQ order, bounded by the live slot budget of outstanding
   requests, so a hot tenant's backlog cannot monopolize dispatch;
5. **end-to-end tenant tagging** — every admitted
   :class:`~repro.core.tasks.TaskRequest` carries its tenant through
   coalescing into micro-batches, and per-tenant arrival rates are
   surfaced to the fleet controller so scale-up respects tenant weight.

There is one door: a single arrival (``offer``), a pre-split batch
(``invoke_sync_many``) and a pipeline chain (``admit_chain``, then
``invoke_sync_admitted`` per step) are three shapes of one group
admission (``_admit``), and every admitted request is tagged, handed to
the journal, head-sampled and put in its lane by the same ``_enter`` —
or, when every lane is empty and the budget has room above the reserve,
released on the spot, as the pump would release it first. Each
door call then pumps and closes through ``_close_door``: the journal
writes the admissions of the requests their lanes kept (a released
request's ``put`` carried its own), and every admitted request passes
the ``post_admission`` injection point before the call returns.

The gateway registers itself as the runtime's *ingress* (see
:meth:`ServingRuntime.attach_ingress`): it keeps its next arrival and
its drain deadline as timers on the runtime's heap, and the serve loop
calls it when one is due, when requests settle, or when the fleet
changed — which is when lanes drain, dispatch slots free, and
per-tenant latency is recorded.
"""

from __future__ import annotations

import math

from repro.auth.identity import Identity, IdentityError
from repro.auth.service import AuthorizationError, AuthService
from repro.core.management import DLHUB_SCOPE
from repro.core.metrics import TenantUsageCollector
from repro.core.record import RequestRecord
from repro.core.runtime import PHASE_INGRESS, ServingRuntime
from repro.core.tasks import TaskRequest, TaskResult, TaskStatus
from repro.gateway.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionOutcome,
)
from repro.gateway.policy import TenantPolicy, TenantPolicyTable
from repro.gateway.scheduler import WeightedFairScheduler
from repro.messaging.queue import servable_topic

_EPS = 1e-12
#: How long (virtual time) the gateway tolerates being *over-committed*
#: — ``outstanding`` above a freshly shrunk live budget — before it
#: starts reclaiming released-but-unclaimed requests from the runtime's
#: queue back into its fair lanes (newest-released first, via
#: :meth:`~repro.messaging.queue.TaskQueue.withdraw_newest`). Without
#: the deadline a hard fleet downsize would close the release pump until
#: settles caught up, leaving the downsized fleet's queue over-stuffed
#: and WFQ fairness suspended for arbitrarily long. Already-claimed work
#: is never clawed back.
DRAIN_DEADLINE_S = 2.0

#: Pseudo-tenant labels for denials that happen before tenant resolution.
UNAUTHENTICATED = "(unauthenticated)"
UNKNOWN_TENANT = "(unknown-tenant)"


class GatewayError(RuntimeError):
    """Raised on invalid gateway configuration or usage."""


class AdmissionRejected(GatewayError):
    """Raised on the synchronous path when admission denies a request."""

    def __init__(self, decision: AdmissionDecision) -> None:
        super().__init__(
            f"{decision.outcome.value} for tenant {decision.tenant!r} on "
            f"{decision.servable!r}: {decision.detail}"
        )
        self.decision = decision


class ServingGateway:
    """Admission-controlled, weighted-fair front door to the runtime.

    At most ``max_dispatch_slots`` admitted requests are outstanding in
    the runtime (on queue topics or being served) at once — what makes
    fair queuing bite: lanes drain only as slots free, so dispatch
    order follows WFQ tags rather than raw arrival order. The budget is
    not a parameter: it is ``max_batch_size × warm routable workers``
    (the fleet's in-flight capacity) plus ``slot_reserve``, an eighth
    of that and at least 1, re-derived on every fleet change (worker
    add/remove, liveness flips, warm-up) — so a controller scaling the
    fleet grows admission headroom with it. Work conservation lets a
    lone backlogged tenant overflow its weighted share, but never into
    the reserve: another tenant's first request is released at arrival
    instead of waiting for a settle. A budget that shrinks below what is
    outstanding is tolerated for :data:`DRAIN_DEADLINE_S`; then unclaimed
    releases are reclaimed into the lanes.

    Parameters
    ----------
    auth:
        The Auth service used to validate direct (token-bearing)
        submissions and resolve group-based tenant bindings.
    runtime:
        The data plane. The gateway attaches itself as the runtime's
        ingress on construction.
    policies:
        The declarative tenant table.
    """

    def __init__(
        self,
        auth: AuthService,
        runtime: ServingRuntime,
        policies: TenantPolicyTable,
        metrics: TenantUsageCollector | None = None,
        tracer=None,
        slo_monitor=None,
        journal=None,
    ) -> None:
        self.auth = auth
        self.runtime = runtime
        self.policies = policies
        self._over_budget_since: float | None = None
        #: The gateway's two wake-up sources on the runtime's timer
        #: heap: the next scheduled arrival of a :meth:`serve` call, and
        #: the drain deadline while over-committed. Each is moved where
        #: its due time changes, so the serve loop never has to ask.
        self._arrival_timer = runtime.timers.timer(PHASE_INGRESS, name="offers")
        self._drain_timer = runtime.timers.timer(PHASE_INGRESS, name="drain")
        #: ``runtime.fleet_epoch()`` the live budget was last derived at.
        self._budget_epoch = -1
        #: Requests pulled back from the runtime queue into lanes after
        #: a budget shrink outlasted the drain deadline. A reclaimed
        #: request's record keeps its original enqueue time, so its
        #: re-release keeps the true enqueue age.
        self.requests_reclaimed = 0
        self._derive_budget()
        #: Tracer contributing the gateway-side spans (``admission``,
        #: ``lane_wait``) to the request span tree. Defaults to the
        #: runtime's tracer so one attach point covers the whole path.
        self.tracer = tracer if tracer is not None else runtime.tracer
        #: Optional :class:`~repro.core.telemetry.SLOBurnMonitor` fed a
        #: sample per settlement; a fleet controller sharing it drains
        #: breaches into ``slo_burn`` events.
        self.slo_monitor = slo_monitor
        #: Optional write-ahead journal (duck-typed, see
        #: :class:`repro.durability.journal.Journal`): admissions and
        #: settlements are recorded so a crash-restart can rebuild the
        #: open-request table and tenant lanes. ``None`` (the default)
        #: keeps the legacy non-durable behaviour bit-for-bit.
        self.journal = journal
        #: Optional fault injector (chaos tests); trips named injection
        #: points on the admission path.
        self.chaos = None
        self.metrics = metrics or TenantUsageCollector()
        self.admission = AdmissionController(runtime.clock, self.metrics)
        self.scheduler = WeightedFairScheduler()
        #: task uuid -> the record of every admitted request not yet
        #: settled, in a lane or in the runtime.
        self._open: dict[str, RequestRecord] = {}
        self._schedule: list[tuple[float, str, TaskRequest]] = []
        self._sched_i = 0
        self._serve_log: list[RequestRecord] = []
        self._serving = False
        runtime.attach_ingress(self)
        runtime.queue.subscribe_dead_letter(self._on_dead_letter)

    # -- live slot budget -----------------------------------------------------------
    def _derive_budget(self) -> None:
        """Re-derive the slot budget and reserve from live fleet capacity.

        ``max_batch_size * warm_routable_workers`` keeps every worker
        that can actually serve pipelined; the reserve (an eighth of
        that, at least 1) rides on top. A worker still paying a
        provisioning/placement cold start (``runtime.is_warming``) is
        excluded until it warms — its slots arrive when it can use them
        — while a worker merely busy with a micro-batch stays counted,
        however heavy the batch. A fleet with zero countable workers
        keeps a one-worker budget so admitted work can park in the
        runtime's queue while the controller heals the fleet.
        """
        self._budget_epoch = self.runtime.fleet_epoch(self.runtime.clock.now())
        workers = sum(
            1
            for w in self.runtime.alive_workers()
            if not self.runtime.is_warming(w)
        )
        in_flight_capacity = self.runtime.max_batch_size * max(1, workers)
        self.slot_reserve = max(1, in_flight_capacity // 8)
        self.max_dispatch_slots = in_flight_capacity + self.slot_reserve

    def on_fleet_change(self) -> None:
        """Runtime hook: the worker fleet changed (add/remove/liveness).

        Re-derive the budget and pump immediately — capacity added
        mid-run starts admitting queued lane work right away. A
        shrink never cancels claimed work; the pump stays closed while
        ``outstanding`` exceeds the new budget, but only up to
        :data:`DRAIN_DEADLINE_S` — past that, still-unclaimed releases are
        reclaimed into lanes (:meth:`_check_overcommit`).
        """
        self._derive_budget()
        self._check_overcommit(self.runtime.clock.now())
        self._pump()

    # -- over-commit drain deadline --------------------------------------------------
    def _check_overcommit(self, now: float) -> None:
        """Arm, fire, or clear the over-commit drain deadline.

        Over-committed means the live budget shrank below the requests
        already released into the runtime. Settles fix that organically;
        the deadline bounds how long fairness may stay suspended when
        they don't (a hard downsize over a deep queue). On firing,
        :meth:`_reclaim_overcommit` claws unclaimed releases back into
        WFQ lanes and the timer re-arms for whatever excess remains
        (e.g. requests already claimed into in-flight micro-batches).
        """
        if self.outstanding <= self.max_dispatch_slots:
            self._arm_drain(None)
        elif self._over_budget_since is None:
            self._arm_drain(now)
        elif now - self._over_budget_since + _EPS >= DRAIN_DEADLINE_S:
            self._reclaim_overcommit()
            self._arm_drain(
                now if self.outstanding > self.max_dispatch_slots else None
            )

    def _arm_drain(self, since: float | None) -> None:
        """Record when the gateway became over-committed (``None``: it no
        longer is) and move the drain-deadline timer with it, so the
        serve loop wakes for :meth:`_check_overcommit` to fire on time."""
        self._over_budget_since = since
        if since is None:
            self._drain_timer.cancel()
        else:
            self.runtime.timers.reschedule(
                self._drain_timer, since + DRAIN_DEADLINE_S
            )

    def _reclaim_overcommit(self) -> None:
        """Pull released-but-unclaimed requests back into their lanes.

        Withdraws newest-released first (oldest releases are nearest
        the coalescing head and may dispatch any moment), one request
        per tenant lane per sweep — round-robin, so no tenant's queue
        positions are sacrificed wholesale while another's survive —
        until ``outstanding`` fits the budget or nothing ready remains.
        Reclaimed requests keep their admission (they *are* still in
        the system) and their original enqueue timestamp, and re-enter
        their tenant's lane to be re-released in WFQ order when
        capacity returns.
        """
        excess = self.outstanding - self.max_dispatch_slots
        outstanding = self.scheduler.outstanding_by_tenant
        lanes = [
            (servable, tenant)
            for servable in sorted(self.runtime.placement())
            for tenant in sorted(outstanding)
        ]
        progressed = True
        while excess > 0 and progressed:
            progressed = False
            for servable, tenant in lanes:
                if excess <= 0:
                    break
                if outstanding[tenant] <= 0:
                    continue
                topic = servable_topic(servable, lane=f"tenant-{tenant}")
                # Dig past messages that are not ours (submitted straight
                # to the runtime with a hand-set tenant tag): holding
                # them aside while scanning deeper keeps them from
                # shielding the gateway's own releases beneath them.
                record = None
                held = []
                while True:
                    withdrawn = self.runtime.queue.withdraw_newest(topic, 1)
                    if not withdrawn:
                        break
                    record = self._open.get(withdrawn[0].body.task_uuid)
                    if record is not None:
                        # Recovery may have left a replayed plain message
                        # in place of the record: the record keeps its age.
                        record.enqueued_at = withdrawn[0].enqueued_at
                        break
                    held.append(withdrawn[0])
                # Restore foreign messages in reverse withdrawal order,
                # reconstructing their original tail order exactly.
                for foreign in reversed(held):
                    self.runtime.queue.restore(foreign)
                if record is None:
                    continue
                record.body.dispatch_tag = None
                if record.sampled is not None:
                    # A traced request's trace gets a reclaim mark and a
                    # second lane stay, up to its re-release.
                    if record.reclaims is None:
                        record.reclaims = []
                    record.reclaims.append(self.runtime.clock.now())
                # Front of the lane, original WFQ charge: the reclaimed
                # request is the tenant's oldest in-system work and must
                # re-release before younger lane-mates, not behind them.
                self.scheduler.reclaim(tenant, record)
                excess -= 1
                self.requests_reclaimed += 1
                progressed = True

    # -- auth / tenant resolution -------------------------------------------------
    def authenticate(self, token: str) -> Identity:
        """Validate a bearer token (``dlhub:all`` scope), as the MS does."""
        return self.auth.authorize(token, DLHUB_SCOPE)

    def resolve_tenant(self, identity: Identity) -> TenantPolicy | None:
        """Map an identity to its tenant policy (None when unbound). The
        principal's groups are looked up only when a group binding could
        decide: the identity has no binding of its own."""
        policies = self.policies
        if policies.reads_groups(identity):
            return policies.resolve(identity, self.auth.principal_groups(identity))
        return policies.resolve(identity)

    # -- admission + lanes ---------------------------------------------------------
    def offer(
        self,
        request: TaskRequest,
        identity: Identity | None = None,
        token: str | None = None,
        arrived_at: float | None = None,
    ) -> RequestRecord:
        """Admit one single-item request into its tenant's lane.

        Exactly one of ``identity`` (pre-authorized, the MS path) or
        ``token`` (authenticated here) must identify the caller. The
        returned :class:`~repro.core.record.RequestRecord` carries the
        typed decision; denials are records too, not exceptions (the
        open-loop path records them and keeps serving).
        """
        now = self.runtime.clock.now()
        arrived = now if arrived_at is None else arrived_at
        servable = request.servable_name
        if request.is_batch:
            raise GatewayError(
                "the gateway meters single-item requests; split batches "
                "before offering (ManagementService.run_batch does)"
            )
        # Unplaced servables are a deployment bug, not a tenant's fault.
        self.runtime.check_placed(servable)
        if token is not None:
            try:
                identity = self.authenticate(token)
            except AuthorizationError as exc:
                self.metrics.record_denied(
                    UNAUTHENTICATED, AdmissionOutcome.REJECTED_AUTH.value
                )
                return self._deny(
                    request,
                    AdmissionDecision(
                        AdmissionOutcome.REJECTED_AUTH, None, servable, str(exc)
                    ),
                    arrived,
                    now,
                )
        if identity is None:
            raise GatewayError("offer() needs an identity or a token")
        if request.task_uuid in self._open:  # _refuse_open, inlined on the hot door
            raise GatewayError(f"request {request.task_uuid!r} is already admitted")
        policy, decision = self._admit(identity, (servable,))
        if not decision.admitted:
            return self._deny(request, decision, arrived, now)
        record = self._enter(request, policy, identity, decision, arrived)
        self._close_door(1)
        return record

    def _admit(
        self, identity: Identity, servables: tuple[str, ...] | list[str], sequential: bool = False
    ) -> tuple[TenantPolicy | None, AdmissionDecision]:
        """Resolve the caller's tenant and decide a group of requests.

        The one admission call of the gateway: ``servables`` is one
        name for an arrival, ``n`` of the same for a pre-split batch, a
        pipeline's steps (``sequential``) for a chain — see
        :meth:`AdmissionController.admit`. An identity that resolves to
        no tenant policy gets a counted, typed denial and no policy.
        """
        policy = self.resolve_tenant(identity)
        if policy is None:
            self.metrics.record_denied(
                UNKNOWN_TENANT, AdmissionOutcome.REJECTED_UNKNOWN_TENANT.value
            )
            return None, AdmissionDecision(
                AdmissionOutcome.REJECTED_UNKNOWN_TENANT,
                None,
                servables[0],
                f"identity {identity.qualified_name} maps to no tenant",
            )
        return policy, self.admission.admit(
            policy, servables, self.scheduler.depth(policy.name), sequential
        )

    def _refuse_open(self, uuids: tuple[str, ...]) -> None:
        """Raise :class:`GatewayError` if a door call names an open
        request, or one request twice: entering it again would overwrite
        its open result and journal a second admission. Checked before
        admission, so a refused call charges nothing."""
        if len(set(uuids)) < len(uuids) or not self._open.keys().isdisjoint(uuids):
            raise GatewayError(f"a request of {uuids} is already admitted")

    def _enter(
        self,
        request: TaskRequest,
        policy: TenantPolicy,
        identity: Identity | None,
        decision: AdmissionDecision,
        arrived: float,
    ) -> RequestRecord:
        """The one way an admitted request gets in: tagged with its
        tenant, its admission handed to the journal, then its record
        made, head-sampled and either released at once or put in its
        lane. It is released when every lane is empty and the budget
        has room above the reserve — what the pump would do first
        (:meth:`WeightedFairScheduler.enqueue_or_release`).
        The caller then calls :meth:`_close_door`, which pumps and makes
        the admission durable before the call returns. ``identity`` is
        ``None`` for a chain step, which the Management Service stamped
        before the chain was admitted."""
        request.tenant = policy.name
        if identity is not None:
            request.identity_id = request.identity_id or identity.identity_id
        self._journal_admit(request, policy, arrived)
        record = RequestRecord(request, decision, arrived)
        if self.tracer is not None:
            record.sampled = self.tracer.begin(policy.name)
            record.decided_at = self.runtime.clock.now()
        entry = self.scheduler.enqueue_or_release(
            policy.name, policy.weight, record, self.max_dispatch_slots, self.slot_reserve
        )
        self._open[request.task_uuid] = record
        if entry is not None:
            self._release(record, entry[0])
        return record

    def _close_door(self, admitted: int) -> None:
        """End a door call that admitted ``admitted`` requests: pump, then
        the journal writes an ``admit`` for each request its lane still
        holds, then each admitted request passes the ``post_admission``
        injection point. A crash there restores a released request in
        queue and a lane-held one to its lane."""
        self._pump()
        if self.journal is not None:
            self.journal.flush_admits()
        if self.chaos is not None:
            for _ in range(admitted):
                self.chaos.trip("post_admission")

    def _journal_admit(self, request: TaskRequest, policy, arrived: float) -> None:
        """Hand one admission grant to the journal, which holds it until
        the request's ``put`` carries it (released by this door call) or
        :meth:`_close_door` writes it on its own (kept in its lane).
        The request's body is encoded here and nowhere else: its queue
        ``put`` records only add the ``dispatch_tag`` stamped at
        release."""
        if self.journal is None:
            return
        self.journal.hold_admit(
            request.task_uuid,
            [policy.name, request.servable_name, arrived, policy.weight,
             self.journal.encode_body(request)],
        )

    def _deny(
        self, request: TaskRequest, decision: AdmissionDecision, arrived: float, now: float
    ) -> RequestRecord:
        """The record of a request denied at ``now``. Denials never reach
        the runtime, so a traced one settles here, as an error: tail-keep
        retention keeps every denial visible even under heavy
        head-sampling."""
        record = RequestRecord(request, decision, arrived)
        if self.tracer is not None:
            record.decided_at = now
            self.tracer.settle_request(record, now, error=True)
        return record

    def _pump(self) -> None:
        """Drain lanes into the runtime while the scheduler releases work.

        The fair-share decision — which tenant, and whether anything may
        go under the live budget at all — is the scheduler's
        (:meth:`WeightedFairScheduler.pop_next`); the pump hands each
        released request's record to the runtime.
        """
        while (
            entry := self.scheduler.pop_next(self.max_dispatch_slots, self.slot_reserve)
        ) is not None:
            self._release(entry[3], entry[0])

    def _release(self, record: RequestRecord, finish_tag: float) -> None:
        """Hand a request the scheduler released to the runtime — from
        its lane (the pump) or at admission (the door)."""
        if record.reclaims is not None:
            record.reclaims.append(self.runtime.clock.now())
        # Carry the WFQ virtual-finish tag into the runtime: when
        # several coalescing windows are due at once, dispatch
        # arbitration follows these tags instead of oldest-head
        # order, so fairness no longer depends on sizing the slot
        # budget tightly against the fleet's in-flight capacity.
        record.body.dispatch_tag = finish_tag
        self.runtime.submit(record)

    # -- ingress protocol (driven by ServingRuntime.serve) --------------------------
    def on_tick(self, now: float) -> None:
        """Serve-loop hook, called when something of the gateway's is
        due — an arrival, the drain deadline, a settlement just handed
        to :meth:`on_settled`, or a fleet change: bring the budget up to
        date, admit the arrivals due at ``now`` and release lane work.
        Each step sits behind an O(1) test of whether it has anything
        to do. Last, it writes the journal's snapshot if one is due:
        here no door call is open and no admission is held, so the live
        queue is exactly what the journal's records describe."""
        if self._budget_epoch != self.runtime.fleet_epoch(now):
            # The fleet changed since the budget was derived: a worker
            # joined, left, flipped liveness or finished warming up.
            self._derive_budget()
        if (
            self._over_budget_since is not None
            or self.outstanding > self.max_dispatch_slots
        ):
            self._check_overcommit(now)
        schedule = self._schedule
        first = self._sched_i
        while (
            self._sched_i < len(schedule)
            and schedule[self._sched_i][0] <= now + _EPS
        ):
            arrived, token, request = schedule[self._sched_i]
            self._sched_i += 1
            self._serve_log.append(
                self.offer(request, token=token, arrived_at=arrived)
            )
        if self._sched_i != first and self._sched_i < len(schedule):
            self.runtime.timers.reschedule(
                self._arrival_timer, schedule[self._sched_i][0]
            )
        self._pump()
        if self.journal is not None and self.journal.snapshot_due:
            self.journal.snapshot_now(self.runtime.queue)

    def on_settled(self, settled: list[list[RequestRecord]]) -> None:
        """Runtime hook: record completions and free their dispatch slots.

        ``settled`` is the micro-batches that just settled, each the
        list of its members' completed records. A batch is one lane's —
        one tenant on one servable — so its dispatch slots are freed
        once, with a count; latency and SLO samples are per request.

        Deliver, then settle, per call: every gateway-owned record in
        ``settled`` is complete before the one ``settle`` record naming
        them all is journaled. A crash after that record (the snapshot
        the next :meth:`on_tick` writes) must not lose a result the
        journal already calls settled. A crash that loses the record
        instead re-runs the requests (at-least-once delivery; callers
        dedupe by ``task_uuid``).
        """
        self._settle_batches(settled)
        self._pump()

    def _on_dead_letter(self, message) -> None:
        """Queue hook: an admitted request whose message dead-lettered
        will never settle through the runtime, so it settles here,
        failed at ``now``, through the same accounting as any batch.
        Freed slots are pumped at the next :meth:`on_tick` (the runtime
        wakes the ingress for it): a dead-letter listener must not
        touch the queue."""
        record = self._open.get(message.body.task_uuid)
        if record is None:
            return  # not ours, or already settled
        record.fail(f"dead-lettered after {message.deliveries} deliveries", 0.0)
        record.completed_at = self.runtime.clock.now()
        self._settle_batches([[record]])

    def _settle_batches(self, settled: list[list[RequestRecord]]) -> None:
        """Per-batch settlement accounting (see :meth:`on_settled`):
        completions, SLO samples, WFQ slots and the journal's ``settle``
        record."""
        delivered = []
        open_records = self._open
        record_completion = self.metrics.record_completion
        slo_monitor = self.slo_monitor
        for records in settled:
            tenant = records[0].body.tenant
            mine = 0
            for record in records:
                uuid = record.body.task_uuid
                if open_records.pop(uuid, None) is None:
                    continue  # submitted straight to the runtime, not ours
                delivered.append(uuid)
                mine += 1
                latency = record.completed_at - record.arrived_at
                ok = record.status is TaskStatus.SUCCEEDED
                record_completion(tenant, latency, ok=ok)
                if slo_monitor is not None:
                    slo_monitor.record(
                        tenant, at=record.completed_at, latency_s=latency, ok=ok
                    )
            if mine:
                self.scheduler.settle(tenant, mine)
        if delivered and self.journal is not None:
            self.journal.settle(delivered)

    def next_event(self) -> float:
        """Earliest future instant the gateway needs the serve loop awake.

        Either the next scheduled arrival or, when over-committed, the
        drain deadline. The loop does not ask: both are timers on the
        runtime's heap, moved where they change. This reads the same
        state for whoever wants to see it.
        """
        soonest = math.inf
        if self._sched_i < len(self._schedule):
            soonest = self._schedule[self._sched_i][0]
        if self._over_budget_since is not None:
            soonest = min(soonest, self._over_budget_since + DRAIN_DEADLINE_S)
        return soonest

    def pending(self) -> int:
        """Arrivals not yet offered plus every admitted request not yet settled."""
        return (len(self._schedule) - self._sched_i) + len(self._open)

    # -- crash recovery ---------------------------------------------------------------
    def restore_open(self, entries: list[dict]) -> list[RequestRecord]:
        """Re-install recovered open requests after a crash-restart.

        ``entries`` come from :func:`repro.durability.recovery.
        gateway_restore_entries`, in restore order. Each re-occupies
        exactly the position it held pre-crash:

        * ``in_queue`` — the request's message survived into the
          recovered queue, so it re-takes a dispatch slot and settles
          through the normal path, into the record rebuilt here
          (:meth:`ServingRuntime.adopt`);
        * otherwise it re-enters its tenant's lane (resurrections and
          never-released work alike), back-dated via ``enqueued_at`` so
          its re-release keeps the true in-system age.

        Nothing is re-journaled (the ``admit`` records already persist),
        no admission metrics are recorded and no token is taken (the
        request was counted and charged at its original admission).
        Returns the rebuilt records, which keep each request's uuid,
        tenant and arrival and complete at settlement, as for any
        admitted request.
        """
        # In-queue requests first: they carry the crashed scheduler's
        # WFQ tags, and restoring them moves the new clock past those
        # tags before anything re-enters a lane.
        for entry in entries:
            if entry["in_queue"]:
                self.scheduler.restore_released(
                    entry["tenant"],
                    self.policies.policy(entry["tenant"]).weight,
                    entry["dispatch_tag"],
                )
        restored: list[RequestRecord] = []
        for entry in entries:
            request: TaskRequest = entry["request"]
            tenant = entry["tenant"]
            servable = entry["servable"]
            record = RequestRecord(
                request, self.admission.granted(tenant, servable), entry["arrived_at"]
            )
            self._open[request.task_uuid] = record
            if entry["in_queue"]:
                self.runtime.adopt(record)
            else:
                # A re-release is back-dated to the last enqueue, if any.
                record.enqueued_at = entry["enqueued_at"]
                self.scheduler.enqueue(tenant, self.policies.policy(tenant).weight, record)
            restored.append(record)
        return restored

    @property
    def serve_log(self) -> list[RequestRecord]:
        """Records collected by the in-progress (or crashed) serve call.

        :meth:`serve` swaps the log out only on successful return, so
        after a simulated crash unwinds the serve loop the partial log —
        every offer decided before the crash — is still readable here.
        """
        return self._serve_log

    # -- serving entry points --------------------------------------------------------
    def serve(
        self, arrivals: list[tuple[float, str, TaskRequest]]
    ) -> list[RequestRecord]:
        """Serve an open-loop schedule of ``(offset_s, token, request)``.

        Offsets are measured from the call, as in
        :meth:`ServingRuntime.serve`. Every arrival is authenticated and
        admitted at its due time; the returned records are in arrival
        order and include typed denials (which never reach the runtime).
        """
        if self._serving:
            raise GatewayError("gateway.serve is not reentrant")
        start = self.runtime.clock.now()
        self._schedule = sorted(
            ((start + offset, token, request) for offset, token, request in arrivals),
            key=lambda entry: entry[0],
        )
        self._sched_i = 0
        self._serve_log = []
        self._serving = True
        if self._schedule:
            self.runtime.timers.reschedule(self._arrival_timer, self._schedule[0][0])
        try:
            self.runtime.serve([])
        finally:
            self._serving = False
            self._schedule = []
            self._sched_i = 0
            self._arrival_timer.cancel()
        log, self._serve_log = self._serve_log, []
        return log

    def invoke_sync(
        self, request: TaskRequest, identity: Identity | None = None
    ) -> TaskResult:
        """Admit, schedule, and fully serve one request (the MS sync path).

        Raises :class:`AdmissionRejected` on any non-admitted decision —
        the synchronous caller needs an error, not a log entry.
        """
        identity = identity or self._request_identity(request)
        record = self.offer(request, identity=identity)
        if not record.admitted:
            raise AdmissionRejected(record.decision)
        self.runtime.drain()
        if not record.completed:  # pragma: no cover - drain settles all
            raise GatewayError(f"request {request.task_uuid} did not complete")
        return record.result

    def invoke_sync_many(
        self, requests: list[TaskRequest], identity: Identity | None = None
    ) -> list[TaskResult]:
        """Serve a pre-split batch synchronously, all-or-nothing.

        Admission is decided for the whole batch up front (every item
        takes a token from the bucket), so a denial rejects the batch
        without stranding half of it in a lane. The items land on one
        servable topic together and coalesce into micro-batches
        downstream.
        """
        if not requests:
            raise GatewayError("invoke_sync_many requires at least one request")
        servable = requests[0].servable_name
        # Same deployment-bug guard as offer(): an unplaced servable
        # must fail before admission takes tokens or fills the lane, or
        # the denial would strand lane entries forever.
        self.runtime.check_placed(servable)
        identity = identity or self._request_identity(requests[0])
        self._refuse_open(tuple(request.task_uuid for request in requests))
        policy, decision = self._admit(identity, (servable,) * len(requests))
        if not decision.admitted:
            raise AdmissionRejected(decision)
        arrived = self.runtime.clock.now()
        records = [
            self._enter(request, policy, identity, decision, arrived)
            for request in requests
        ]
        self._close_door(len(records))
        self.runtime.drain()
        return [record.result for record in records]

    # -- pipeline chains --------------------------------------------------------------
    def admit_chain(
        self, identity: Identity, servable_names: list[str]
    ) -> TenantPolicy:
        """Admit a whole pipeline chain up front (cost = number of steps).

        Raises :class:`AdmissionRejected` if any step would be denied —
        *before* anything executes, so a rate-limited tenant's chain can
        no longer burn steps ``1..k-1`` and then fail at step ``k``.
        Returns the resolved policy; the caller runs each step through
        :meth:`invoke_sync_admitted`. A step that fails ends the chain:
        the unexecuted tail holds no lane entry or slot, so it has
        nothing to give back (its tokens stay spent).
        """
        if not servable_names:
            raise GatewayError("admit_chain requires at least one step")
        for name in servable_names:
            # Unplaced steps are deployment bugs; fail before admitting.
            self.runtime.check_placed(name)
        policy, decision = self._admit(identity, servable_names, sequential=True)
        if not decision.admitted:
            raise AdmissionRejected(decision)
        return policy

    def invoke_sync_admitted(
        self, request: TaskRequest, policy: TenantPolicy
    ) -> TaskResult:
        """Serve one pre-admitted chain step synchronously.

        Admission (and its token charge) already happened in
        :meth:`admit_chain`; the step enters like any admitted request,
        is pumped and drained. Its dispatch slot frees through the
        normal settlement path (:meth:`on_settled`).
        """
        self._refuse_open((request.task_uuid,))
        decision = self.admission.granted(policy.name, request.servable_name)
        record = self._enter(request, policy, None, decision, self.runtime.clock.now())
        self._close_door(1)
        self.runtime.drain()
        if not record.completed:  # pragma: no cover - drain settles all
            raise GatewayError(f"request {request.task_uuid} did not complete")
        return record.result

    def _request_identity(self, request: TaskRequest) -> Identity:
        if request.identity_id is None:
            raise GatewayError("request carries no identity and none was given")
        try:
            return self.auth.identities.get(request.identity_id)
        except IdentityError as exc:
            raise GatewayError(str(exc)) from exc

    # -- fleet-controller surface ----------------------------------------------------
    def admitted_count(self, servable_name: str) -> int:
        """Cumulative admitted arrivals for a servable (monotonic) —
        the post-policy demand signal a fleet controller should scale
        on, instead of the topic enqueue counter the WFQ throttle sits
        in front of."""
        return self.metrics.servable_admitted_count(servable_name)

    def tenant_admissions(self, servable_name: str) -> dict[str, int]:
        """Per-tenant cumulative admitted arrivals for a servable."""
        return self.metrics.tenant_admissions(servable_name)

    def queued_count(self, servable_name: str) -> int:
        """Requests for ``servable_name`` still waiting in tenant lanes
        (backlog the runtime's queue depths cannot see): an O(laned)
        count of lane records, made at reconcile cadence."""
        return sum(r.body.servable_name == servable_name for r in self.scheduler.laned())

    def tenant_weight(self, tenant_name: str) -> float:
        """The fair-share weight of one tenant."""
        return self.policies.policy(tenant_name).weight

    # -- reactive admission tightening (load shed) ----------------------------
    def tighten_admission(
        self, tenant_name: str, rate_rps: float, burst: float | None = None
    ) -> None:
        """Temporarily cap one tenant's admission rate (load shed).

        Installs a token-bucket override that replaces the tenant's
        policy bucket — and rate-limits an otherwise unlimited tenant —
        so an overload-shaped SLO burn can be shed at the door while
        other tenants' admission is untouched. Reverted by
        :meth:`relax_admission`; the declared policy itself is never
        mutated.
        """
        self.admission.set_rate_override(tenant_name, rate_rps, burst)

    def relax_admission(self, tenant_name: str) -> bool:
        """Lift a tenant's admission cap; returns whether one was set."""
        return self.admission.clear_rate_override(tenant_name)

    def admission_override(self, tenant_name: str) -> float | None:
        """The tenant's active admission cap in rps, or ``None``."""
        return self.admission.rate_override(tenant_name)

    @property
    def outstanding(self) -> int:
        """Admitted requests currently inside the runtime."""
        return self.scheduler.outstanding
