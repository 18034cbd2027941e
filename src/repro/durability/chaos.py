"""Deterministic fault injection: crash the serving stack anywhere.

:class:`FaultInjector` raises :class:`SimulatedCrash` at *named
injection points* compiled into the serving stack (the runtime and
gateway call :meth:`FaultInjector.trip` at each lifecycle boundary; an
unarmed injector is a no-op counter). Because everything runs on the
virtual clock, a "crash" is an exception that unwinds the serve loop —
the durable store and the worker fleet survive, the queue / runtime /
gateway objects are discarded, exactly as a process kill would leave
things.

:class:`ChaosHarness` owns the kill/restart loop: build the stack over
a durable store, serve an open-loop schedule, catch the crash, advance
the clock by the restart cost, recover from the store
(:mod:`repro.durability.recovery`), re-offer the not-yet-admitted tail
of the schedule, and repeat — collecting every settlement across
incarnations and flagging any duplicate (a request settling twice is
the bug the whole suite exists to catch).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.record import RequestRecord
from repro.core.runtime import ServingRuntime
from repro.durability.journal import Journal
from repro.durability.recovery import (
    begin_recovery,
    gateway_restore_entries,
    materialize_queue,
)
from repro.gateway.gateway import ServingGateway
from repro.messaging.queue import TaskQueue

#: The lifecycle boundaries the serving stack exposes to the injector:
#:
#: * ``post_admission`` — a door call (``offer``, ``invoke_sync_many``,
#:   ``invoke_sync_admitted``) has admitted, pumped and journaled its
#:   requests but not yet returned; visited once per admitted request
#:   (gateway ``_close_door``). Each request is already released to
#:   the queue or waiting in its WFQ lane, and recovery puts it back
#:   there;
#: * ``post_claim`` — a micro-batch claimed off the queue, not yet
#:   dispatched to a worker (runtime ``_dispatch_topic``);
#: * ``mid_batch`` — the worker processed the batch, no message acked
#:   yet (runtime ``_dispatch_topic``);
#: * ``pre_settle`` — batches complete and acked, results not yet
#:   emitted to the ingress (runtime ``_settle``);
#: * ``mid_snapshot`` — snapshot persisted, covered journal records not
#:   yet truncated (the store's two-phase seam), at the end of a
#:   gateway ``on_tick`` that found a snapshot due: no door call is
#:   open and no admission is held there.
INJECTION_POINTS = (
    "post_admission",
    "post_claim",
    "mid_batch",
    "pre_settle",
    "mid_snapshot",
)


class SimulatedCrash(RuntimeError):
    """The process died at a named injection point (simulated)."""

    def __init__(self, point: str, at: float | None = None) -> None:
        super().__init__(f"simulated crash at {point!r}" + (
            "" if at is None else f" (t={at:.6f})"
        ))
        self.point = point
        self.at = at


@dataclass(frozen=True)
class CrashPlan:
    """One armed crash: fire at the ``after_trips``-th visit to
    ``point`` once the plan is active, optionally no earlier than
    virtual time ``not_before_s``."""

    point: str
    after_trips: int = 1
    not_before_s: float | None = None

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known: {INJECTION_POINTS}"
            )
        if self.after_trips < 1:
            raise ValueError("after_trips must be >= 1")


class FaultInjector:
    """Counts injection-point visits and fires armed crash plans.

    Plans queue in order; one is active at a time and each crash
    consumes the active plan (the next is armed by the harness before
    the following incarnation serves). With no active plan, ``trip`` is
    a pure counter — the injection points cost one attribute check on
    the hot path when chaos is disabled entirely.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.trip_counts: dict[str, int] = {}
        self._plans: deque[CrashPlan] = deque()
        self._active: CrashPlan | None = None
        self._active_trips = 0
        self.crashes_fired = 0

    def plan(self, *plans: CrashPlan) -> None:
        """Queue crash plans to fire one per incarnation, in order."""
        self._plans.extend(plans)

    def arm_next(self) -> CrashPlan | None:
        """Activate the next queued plan (no-op while one is active)."""
        if self._active is None and self._plans:
            self._active = self._plans.popleft()
            self._active_trips = 0
        return self._active

    def trip(self, point: str) -> None:
        """Visit one injection point; raises when the active plan fires."""
        self.trip_counts[point] = self.trip_counts.get(point, 0) + 1
        plan = self._active
        if plan is None or plan.point != point:
            return
        self._active_trips += 1
        if self._active_trips < plan.after_trips:
            return
        if (
            plan.not_before_s is not None
            and self.clock is not None
            and self.clock.now() < plan.not_before_s
        ):
            return
        self._active = None
        self.crashes_fired += 1
        raise SimulatedCrash(
            point, None if self.clock is None else self.clock.now()
        )


@dataclass
class ChaosOutcome:
    """Everything the harness observed across every incarnation."""

    #: task_uuid -> the settled RequestRecord (exactly one per request).
    settled: dict[str, RequestRecord] = field(default_factory=dict)
    #: Typed admission denials, in observation order.
    denied: list[RequestRecord] = field(default_factory=list)
    #: task_uuids that settled more than once — must stay empty.
    duplicates: list[str] = field(default_factory=list)
    #: task_uuids admitted at any point (settled or still open).
    admitted: set[str] = field(default_factory=set)
    crashes: list[SimulatedCrash] = field(default_factory=list)
    #: One stats dict per recovery (report fields + restore counts).
    recoveries: list[dict] = field(default_factory=list)

    @property
    def exactly_once(self) -> bool:
        """Every admitted request settled once, none twice."""
        return not self.duplicates and self.admitted == set(self.settled)

    def latencies(self) -> list[float]:
        """Gateway-door-to-completion latency per settled request,
        in task-uuid order (crash downtime included — arrival times
        survive recovery)."""
        return [self.settled[uuid].latency for uuid in sorted(self.settled)]


class ChaosHarness:
    """Kill/restart loop over a durable serving stack.

    The harness builds the queue/runtime/gateway over ``store``,
    places the given servables, and serves open-loop schedules; on a
    :class:`SimulatedCrash` it discards the serving objects (the
    durable store and worker fleet survive), advances the clock by
    ``restart_cost_s`` — the modelled process-restart downtime, which
    is exactly where the recovery latency penalty comes from — runs
    the recovery pipeline, and resumes the schedule minus everything
    the journal proves was already admitted.

    Parameters mirror the testbed's: ``placements`` is a list of
    ``(servable, image)`` pairs or ``{servable, image, executor_name,
    replicas, copies}`` dicts placed at :meth:`start`. The harness
    builds its own :class:`FaultInjector` (``injector``) and leaves the
    queue's redelivery policy at :class:`TaskQueue`'s defaults, which
    recovery shares.
    """

    def __init__(
        self,
        *,
        clock,
        auth,
        policies,
        workers,
        placements,
        store,
        restart_cost_s: float = 0.25,
        snapshot_every_records: int = 256,
        runtime_kwargs: dict | None = None,
    ) -> None:
        if restart_cost_s < 0:
            raise ValueError("restart_cost_s must be >= 0")
        self.clock = clock
        self.auth = auth
        self.policies = policies
        self.workers = list(workers)
        self.store = store
        self.injector = FaultInjector(clock)
        self.restart_cost_s = restart_cost_s
        self.snapshot_every_records = snapshot_every_records
        self.runtime_kwargs = dict(runtime_kwargs or {})
        self._placements = [
            p if isinstance(p, dict) else {"servable": p[0], "image": p[1]}
            for p in placements
        ]
        self._hosts_by_servable: dict[str, list[str]] = {}
        self._restored: list[RequestRecord] = []
        self._recorded: dict[str, int] = {}
        self.incarnations = 0
        self.queue: TaskQueue | None = None
        self.runtime: ServingRuntime | None = None
        self.gateway: ServingGateway | None = None
        self.journal: Journal | None = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> ServingGateway:
        """Build incarnation 1: fresh stack, journal attached, placed."""
        if self.gateway is not None:
            raise RuntimeError("harness already started")
        journal = Journal(
            self.store,
            snapshot_every_records=self.snapshot_every_records,
            chaos=self.injector,
        )
        return self._assemble(TaskQueue(self.clock), journal, adopt=False)

    def _assemble(self, queue: TaskQueue, journal: Journal, adopt: bool) -> ServingGateway:
        """Build one incarnation's runtime and gateway over ``queue``
        and swap it in. A first incarnation places its servables and
        remembers the hosts; a recovered one (``adopt``) re-adopts the
        placements on those same hosts, which survived the crash."""
        queue.attach_journal(journal, bootstrap=not adopt)
        for worker in self.workers:
            worker.queue = queue
        runtime = ServingRuntime(self.clock, queue, self.workers, **self.runtime_kwargs)
        runtime.chaos = self.injector
        for spec in self._placements:
            name = spec["servable"].name
            shared = {
                "executor_name": spec.get("executor_name", "parsl"),
                "replicas": spec.get("replicas", 1),
            }
            if adopt:
                hosts = self._hosts_by_servable[name]
                runtime.adopt_placement(
                    spec["servable"], spec["image"], worker_names=hosts, **shared
                )
            else:
                hosts = runtime.place(
                    spec["servable"], spec["image"], copies=spec.get("copies", 1), **shared
                )
                self._hosts_by_servable[name] = [w.name for w in hosts]
        gateway = ServingGateway(self.auth, runtime, self.policies, journal=journal)
        gateway.chaos = self.injector
        self.queue, self.runtime = queue, runtime
        self.gateway, self.journal = gateway, journal
        self.incarnations += 1
        return gateway

    def _recover(self) -> None:
        """Run the recovery pipeline and swap in the new incarnation."""
        state, journal, report = begin_recovery(
            self.store,
            snapshot_every_records=self.snapshot_every_records,
            chaos=self.injector,
        )
        gateway = self._assemble(materialize_queue(state, self.clock), journal, adopt=True)
        entries = gateway_restore_entries(state)
        self._restored.extend(gateway.restore_open(entries))
        self._last_state = state
        self._last_recovery = {
            "records_replayed": report.records_replayed,
            "snapshot_used": report.snapshot_used,
            "truncated_tail": report.truncated_tail,
            "seam_overlap": report.seam_overlap,
            "released": report.released,
            "dead_lettered": report.dead_lettered,
            "dropped_withdrawn": report.dropped_withdrawn,
            "restored_open": len(entries),
            "restored_in_queue": sum(1 for e in entries if e["in_queue"]),
            "restored_resurrected": sum(1 for e in entries if e["resurrect"]),
            "dead_open": list(report.dead_open),
            "open_at_recovery": len(state.open),
            "settled_at_recovery": state.settled,
        }

    # -- the kill/restart loop ----------------------------------------------------
    def run(
        self,
        arrivals: list[tuple[float, str, object]],
        plans: tuple[CrashPlan, ...] = (),
    ) -> ChaosOutcome:
        """Serve ``(offset_s, token, request)`` arrivals to completion,
        crashing and recovering per the queued ``plans``.

        Offsets are measured from this call; after a crash the
        remaining arrivals keep their *original* absolute due times
        (requests due during the downtime are offered immediately on
        restart, late — the latency penalty the bench measures).
        """
        if self.gateway is None:
            self.start()
        self.injector.plan(*plans)
        outcome = ChaosOutcome()
        t0 = self.clock.now()
        absolute = [(t0 + off, token, req) for off, token, req in arrivals]
        remaining = list(arrivals)
        while True:
            self.injector.arm_next()
            try:
                log = self.gateway.serve(remaining)
            except SimulatedCrash as crash:
                outcome.crashes.append(crash)
                # The serve log survives the unwind (the gateway swaps
                # it out only on a successful return).
                self._collect(outcome, self.gateway.serve_log)
                self._collect(outcome, self._restored)
                self.clock.advance(self.restart_cost_s)
                try:
                    self._recover()
                except SimulatedCrash as nested:
                    # A crash during recovery (e.g. mid_snapshot while
                    # compacting): the store is still consistent — pay
                    # another restart and recover again.
                    outcome.crashes.append(nested)
                    self.clock.advance(self.restart_cost_s)
                    self._recover()
                outcome.recoveries.append(self._last_recovery)
                now = self.clock.now()
                # Every settled request was admitted in some incarnation
                # whose results were collected, so ``admitted`` covers it.
                known = (
                    outcome.admitted
                    | {r.request.task_uuid for r in outcome.denied}
                    | set(self._last_state.open)
                )
                remaining = [
                    (at - now, token, req)
                    for at, token, req in absolute
                    if req.task_uuid not in known
                ]
                continue
            self._collect(outcome, log)
            self._collect(outcome, self._restored)
            return outcome

    def _collect(self, outcome: ChaosOutcome, results: list[RequestRecord]) -> None:
        """Fold observed results into the outcome, exactly once each —
        a uuid settling via two different results is a duplicate."""
        for result in results:
            uuid = result.request.task_uuid
            if not result.admitted:
                if self._recorded.get(uuid) is None:
                    self._recorded[uuid] = id(result)
                    outcome.denied.append(result)
                continue
            outcome.admitted.add(uuid)
            if not result.completed:
                continue
            previous = outcome.settled.get(uuid)
            if previous is None:
                outcome.settled[uuid] = result
            elif previous is not result:
                outcome.duplicates.append(uuid)
