"""Server-side adaptive micro-batching over a fleet of Task Managers.

The paper shows batching amortizes per-request overhead (SS V-B3,
Figs. 5-6), but in DLHub proper the *client* must pre-form the batch.
:class:`ServingRuntime` moves batch formation server-side: single-item
requests land on per-servable queue topics
(:func:`repro.messaging.queue.servable_topic`), and a coalescing loop
drains each topic with :meth:`TaskQueue.claim_many`, grouping compatible
requests into micro-batches bounded by ``max_batch_size`` and
``max_coalesce_delay_s`` on the virtual clock. Servables are sharded
across the worker fleet at placement time, and every micro-batch's life
is decomposed into per-stage latencies (queue wait, coalesce delay,
dispatch, inference) recorded through
:class:`repro.core.metrics.StageLatencyCollector`.

**Fleet membership is dynamic.** Workers can join (:meth:`add_worker`),
leave (:meth:`remove_worker`), crash (:meth:`mark_down`), and rejoin
(:meth:`revive`); placements gain and shed copies at runtime
(:meth:`add_copy` / :meth:`remove_copy`). A control plane — see
:mod:`repro.core.fleet` — drives these actuators from live queue and
latency observations.

**Workers may run on private clocks.** A worker whose ``clock`` is the
runtime's own clock is *serial*: processing advances global time, so the
fleet degrades to one timeline (the pre-control-plane behaviour, kept
bit-for-bit for reproducibility). A worker with its own
:class:`~repro.sim.clock.VirtualClock` (see
:meth:`DLHubTestbed.add_fleet_worker`) is *concurrent*: its clock is
synced forward to global time at dispatch, processing advances only the
worker's timeline, and the worker is busy until its clock catches up —
so independent workers genuinely overlap, and deployment cold starts
(container pull + start on the worker's cluster) occupy that worker
without stalling the data plane.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from repro.core.metrics import StageLatencyCollector
from repro.core.record import RequestRecord
from repro.core.servable import Servable
from repro.core.task_manager import TaskManager
from repro.core.tasks import TaskRequest, TaskStatus
from repro.core.telemetry import BatchTiming
from repro.messaging.queue import VISIBILITY_TIMEOUT_S, QueuedMessage, TaskQueue, servable_topic
from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop

#: Epsilon for virtual-clock deadline comparisons (guards against float
#: accumulation pushing a due window just past ``now``).
_EPS = 1e-12

#: The serve loop's phases, in the order one wake-up runs them; also the
#: ``phase`` of each wake-up source's timer on :attr:`ServingRuntime.timers`
#: (see "The serve loop's contract" in docs/ARCHITECTURE.md).
PHASE_EXPIRE = 0  # visibility expiry of claims a consumer abandoned
PHASE_CONTROLLER = 1  # one timer per attached controller
PHASE_SETTLE = 2  # completion of the earliest parked batch
PHASE_INGRESS = 3  # the ingress' arrival cursor and drain deadline
PHASE_ARRIVALS = 4  # the runtime's own arrival cursor
PHASE_DISPATCH = 5  # next flush deadline / host-free time behind a due window
_CONTROLLER = 1 << PHASE_CONTROLLER
_SETTLE = 1 << PHASE_SETTLE
_INGRESS = 1 << PHASE_INGRESS
_ARRIVALS = 1 << PHASE_ARRIVALS
_DISPATCH = 1 << PHASE_DISPATCH
_ALL_PHASES = (1 << (PHASE_DISPATCH + 1)) - 1


class ServingRuntimeError(RuntimeError):
    """Raised on invalid runtime configuration or routing failures."""


@dataclass(frozen=True)
class PlacementSpec:
    """How a servable was placed — what :meth:`ServingRuntime.add_copy`
    replays onto a new host."""

    servable: Servable
    image: object
    executor_name: str
    replicas: int


@dataclass(frozen=True)
class WorkerStat:
    """One worker's slice of a :class:`FleetStats` snapshot."""

    name: str
    hosted: tuple[str, ...]
    down: bool
    #: Virtual time at which the worker can accept its next batch.
    free_at: float
    tasks_processed: int
    #: Still paying a provisioning/placement cold start: capacity that
    #: was ordered (pre-provisioned) but has not landed yet. Dashboards
    #: and controllers read this to see in-flight scale-ahead decisions.
    warming: bool = False
    #: Virtual time the worker's latest cold start completes (equals
    #: ``free_at`` history; 0.0 when the worker never paid one).
    warm_at: float = 0.0


@dataclass(frozen=True)
class FleetStats:
    """Point-in-time fleet snapshot for controllers and dashboards."""

    time: float
    workers: tuple[WorkerStat, ...]
    down: frozenset[str]
    placements: dict[str, tuple[str, ...]]
    queue_depths: dict[str, int]

    @property
    def routable_workers(self) -> tuple[str, ...]:
        """Names of workers currently in routing."""
        return tuple(w.name for w in self.workers if not w.down)


class ServingRuntime:
    """Coalescing dispatch layer fronting a fleet of Task Managers.

    Parameters
    ----------
    clock:
        Shared virtual clock.
    queue:
        The task queue requests are submitted to (per-servable topics).
    workers:
        The initial Task Manager fleet. Worker names must be unique —
        they key placement and liveness. Membership may change later via
        :meth:`add_worker` / :meth:`remove_worker`.
    max_batch_size:
        Hard cap on micro-batch size; a topic reaching this many ready
        requests is flushed immediately.
    max_coalesce_delay_s:
        Longest a request may wait (virtual time) for its batch to fill
        before the window is flushed anyway.
    stage_metrics:
        Optional collector for per-stage latencies; a fresh
        :class:`StageLatencyCollector` is created if omitted.
    tracer:
        Optional :class:`~repro.core.telemetry.Tracer`. When attached,
        every settled request passes its retention rule, and each kept
        one gets a span tree (``dispatch_window`` → ``coalesce`` →
        ``dispatch`` → per-item ``inference`` or ``cache`` →
        ``settle``) on the virtual clock; a gateway sharing the same
        tracer head-samples at its door and adds the ``admission`` and
        ``lane_wait`` spans. Dead-lettered messages settle as errors
        via the queue's dead-letter feed.
    """

    def __init__(
        self,
        clock: VirtualClock,
        queue: TaskQueue,
        workers: list[TaskManager],
        max_batch_size: int = 32,
        max_coalesce_delay_s: float = 0.010,
        stage_metrics: StageLatencyCollector | None = None,
        tracer=None,
    ) -> None:
        if not workers:
            raise ServingRuntimeError("at least one worker is required")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ServingRuntimeError(f"worker names must be unique, got {names}")
        if max_batch_size < 1:
            raise ServingRuntimeError("max_batch_size must be >= 1")
        if max_coalesce_delay_s < 0:
            raise ServingRuntimeError("max_coalesce_delay_s must be >= 0")
        self.clock = clock
        self.queue = queue
        self.workers = list(workers)
        self.max_batch_size = max_batch_size
        self.max_coalesce_delay_s = max_coalesce_delay_s
        self.stage_metrics = stage_metrics or StageLatencyCollector()
        self._hosts: dict[str, list[TaskManager]] = {}
        #: Always 0: lanes are never collected (see :meth:`gc_lanes`).
        self.lanes_collected = 0
        #: Per worker: the virtual time its last provisioning/placement
        #: cold start completes (see :meth:`is_warming`).
        self._warm_at: dict[str, float] = {}
        self._specs: dict[str, PlacementSpec] = {}
        self._down: set[str] = set()
        #: Bumped by every event that can move the fleet's capacity or a
        #: servable's live-host list (:meth:`_fleet_changed`); read
        #: through :meth:`fleet_epoch`.
        self._fleet_epoch = 0
        #: servable -> its live hosts in copy order; rebuilt on first use
        #: after :meth:`_fleet_changed` cleared it.
        self._live_hosts: dict[str, list[TaskManager]] = {}
        #: Earliest warm-up deadline not yet reached (``inf`` when no
        #: worker is warming). Not a wake-up source: the loop compares it
        #: with ``now`` on whatever wake-up comes next.
        self._next_warm = math.inf
        #: Parked micro-batches as a heap of ``(completed_at, seq,
        #: records, trace_ctx)``: popping it in order *is* the settlement
        #: order. ``trace_ctx`` is the batch's dispatch timings, built
        #: into its kept members' traces at settlement (``None`` untraced).
        self._pending: list[tuple[float, int, list[RequestRecord], BatchTiming | None]] = []
        self._seq = itertools.count(1)
        # -- event indices (see "The serve loop's contract" in
        # docs/ARCHITECTURE.md). The queue's ready-set listener marks
        # topics *dirty*; `_next_window` lazily re-derives each dirty
        # topic's authoritative window state (`_win`) and keeps two
        # heaps per the window's due-ness, validating entries against
        # `_win` on pop (the same lazy-invalidation idiom the WFQ
        # scheduler's lane heap uses). Scheduling decisions then cost
        # O(log n) in tenant lanes instead of a full rescan.
        #: topic -> (tag_rank, flush_at, topic) for topics with a ready
        #: head; a due-heap entry is valid only while it is this object.
        self._win: dict[str, tuple[float, float, str]] = {}
        #: Topics whose ready set changed since their last refresh.
        self._dirty: set[str] = set()
        #: Per servable, a heap of due windows keyed (tag_rank, flush_at,
        #: topic) — the dispatch arbitration order — and a heap of future
        #: flush deadlines keyed (flush_at, topic), whose entries migrate
        #: to the first as time passes.
        self._window_heaps: dict[
            str, tuple[list[tuple[float, float, str]], list[tuple[float, str]]]
        ] = {}
        #: O(1) ready-depth counter per servable (replaces summing
        #: `ready_count` over every lane).
        self._ready_depth: dict[str, int] = {}
        #: Every topic this runtime owns -> its ``(servable, lane)``. A
        #: placed servable's default lane carries untagged requests; each
        #: tenant gets its own lane on its first submit, so coalesced
        #: micro-batches are tenant-pure — a light tenant's single
        #: request never pays the inference time of a hot tenant's
        #: batchmates. A lane lives as long as the runtime, like the
        #: queue topic under it and the gateway's WFQ lane above it.
        #: Membership is the queue listener's ownership test, and the
        #: value saves the hot path from taking topic strings apart.
        self._owned_topics: dict[str, tuple[str, str]] = {}
        #: ``(servable, tenant)`` -> topic for every lane a submit has
        #: named (tenant ``None`` is the default lane), so a submit finds
        #: its topic with one lookup.
        self._submit_lane: dict[tuple[str, str | None], str] = {}
        #: task uuid -> a record whose request the queue holds as a
        #: replayed plain message (crash recovery; see :meth:`adopt`).
        self._adopted: dict[str, RequestRecord] = {}
        queue.subscribe(self._on_queue_event)
        self.tracer = tracer
        queue.subscribe_dead_letter(self._on_dead_letter)
        # -- the serve loop's kernel: one timer heap, one timer per
        # wake-up source, and the phases raised for the next pass.
        #: Every future wake-up of :meth:`serve`, ordered ``(when,
        #: phase, seq)``. Sources outside the runtime (the gateway's
        #: arrival cursor and drain deadline) keep their own timers on it.
        self.timers = EventLoop()
        self._arrival_timer = self.timers.timer(PHASE_ARRIVALS, name="arrivals")
        self._settle_timer = self.timers.timer(PHASE_SETTLE, name="settle")
        self._window_timer = self.timers.timer(PHASE_DISPATCH, name="window")
        self._expiry_timer = self.timers.timer(PHASE_EXPIRE, name="expiry")
        #: Bitmask of phases the next pass of :meth:`serve` must run
        #: even without a due timer — raised by events, cleared by the
        #: phase that serves them.
        self._raised = _ALL_PHASES
        self._controllers: tuple = ()
        self._controller_timers: tuple = ()
        self._ingress = None
        for worker in self.workers:
            worker.watch_liveness(self._fleet_changed)
        #: Optional fault injector (chaos tests); trips named injection
        #: points on the dispatch and settlement paths.
        self.chaos = None
        self.batches_dispatched = 0
        self.items_served = 0
        self.memo_hits = 0
        #: Memo entries copied onto freshly placed copies (cache warming).
        self.memo_entries_warmed = 0

    # -- fleet membership ---------------------------------------------------------
    def worker(self, worker_name: str) -> TaskManager:
        """The fleet member named ``worker_name``; raises if unknown."""
        for worker in self.workers:
            if worker.name == worker_name:
                return worker
        raise ServingRuntimeError(f"unknown worker {worker_name!r}")

    def add_worker(self, worker: TaskManager) -> TaskManager:
        """Admit a worker into the fleet (it becomes a placement target)."""
        if worker.name in {w.name for w in self.workers}:
            raise ServingRuntimeError(f"worker name {worker.name!r} already in fleet")
        if worker.queue is not self.queue:
            raise ServingRuntimeError(
                f"worker {worker.name!r} does not consume this runtime's queue"
            )
        self.workers.append(worker)
        worker.watch_liveness(self._fleet_changed)
        # A provisioned worker may join with a cold start already
        # charged to its clock (container pull + start); it is warming
        # until global time catches up.
        self._warm_at[worker.name] = warm_at = worker.clock.now()
        self._next_warm = min(self._next_warm, warm_at)
        self._notify_fleet_change()
        return worker

    def remove_worker(self, worker_name: str) -> TaskManager:
        """Retire a worker. It must not host any placement copies."""
        worker = self.worker(worker_name)
        if len(self.workers) == 1:
            raise ServingRuntimeError("cannot remove the last worker")
        hosted = [name for name, hosts in self._hosts.items() if worker in hosts]
        if hosted:
            raise ServingRuntimeError(
                f"worker {worker_name!r} still hosts {hosted}; migrate copies first"
            )
        self.workers.remove(worker)
        self._down.discard(worker_name)
        self._warm_at.pop(worker_name, None)
        self._notify_fleet_change()
        return worker

    def is_warming(self, worker: TaskManager) -> bool:
        """Whether the worker is still paying a provisioning or
        placement cold start (container pull + pod start charged to its
        clock by :meth:`add_worker` / :meth:`add_copy` / :meth:`place`).

        A warming worker becomes routable the moment its clock is
        reached, but capacity planners (the gateway's live slot budget)
        should not count it until then — unlike a worker merely busy
        serving, whose clock lead is bounded by one micro-batch and
        represents work actually flowing.
        """
        return self._warm_at.get(worker.name, 0.0) > self.clock.now() + _EPS

    def _fleet_changed(self) -> None:
        """Fold one fleet event into what the serve loop caches.

        Called for everything that can move the fleet's capacity or a
        servable's live-host list: workers joining, leaving, flipping
        liveness (``mark_down`` / ``mark_up`` / ``revive``, and a
        worker's own ``crash`` / ``recover`` through
        :meth:`TaskManager.watch_liveness`) or warming up, and host
        lists gaining or shedding a copy. It only invalidates — the
        epoch moves, the live-host lists are dropped, and the ingress
        and dispatch phases are raised — so whatever depends on the
        fleet is re-derived by the wake-up that sees the change, in
        that phase's usual place.
        """
        self._fleet_epoch += 1
        self._live_hosts.clear()
        self._raised |= _INGRESS | _DISPATCH

    def fleet_epoch(self, now: float) -> int:
        """A counter that has moved iff, as of ``now``, the fleet's
        capacity or a live-host list may have changed since it was last
        read — a warm-up deadline that ``now`` has reached counts.

        Whoever caches something derived from the fleet (the gateway's
        live slot budget) keeps the epoch it derived at and compares,
        instead of re-deriving per wake-up.
        """
        if now + _EPS >= self._next_warm:
            self._warmed(now)
        return self._fleet_epoch

    def _notify_fleet_change(self) -> None:
        """Tell the attached ingress the fleet's capacity moved.

        A gateway sizing its dispatch-slot budget off live capacity
        re-derives the budget (and reserve) here, so worker add/remove
        and liveness flips show up in admission headroom immediately
        instead of at the next settle.
        """
        self._fleet_changed()
        if self._ingress is not None and hasattr(self._ingress, "on_fleet_change"):
            self._ingress.on_fleet_change()

    def _warmed(self, now: float) -> None:
        """The clock reached :attr:`_next_warm`: a worker finished its
        cold start, which changes capacity like any other fleet event.
        Find the next deadline still ahead."""
        horizon = now + _EPS
        self._next_warm = min(
            (at for at in self._warm_at.values() if at > horizon), default=math.inf
        )
        self._fleet_changed()

    def free_at(self, worker: TaskManager) -> float:
        """When ``worker`` can accept its next batch.

        A worker on the shared clock is always free *now* (processing is
        serial on the global timeline); a worker on its own clock is busy
        until that clock catches up with global time.
        """
        if worker.clock is self.clock:
            return self.clock.now()
        return worker.clock.now()

    # -- placement / sharding -----------------------------------------------------
    def place(
        self,
        servable: Servable,
        image,
        executor_name: str = "parsl",
        replicas: int = 1,
        copies: int = 1,
    ) -> list[TaskManager]:
        """Shard a servable onto ``copies`` workers (least-loaded first).

        Each chosen worker registers (and deploys) the servable on its
        named executor; extra copies give the fleet somewhere to
        redeliver work when a host crashes.
        """
        if servable.name in self._hosts:
            raise ServingRuntimeError(f"servable {servable.name!r} already placed")
        if not 1 <= copies <= len(self.workers):
            raise ServingRuntimeError(
                f"copies must be in [1, {len(self.workers)}], got {copies}"
            )
        load = {w.name: 0 for w in self.workers}
        for hosts in self._hosts.values():
            for host in hosts:
                load[host.name] += 1
        # Deterministic shard choice: live workers first, then fewest
        # placements, then fleet order.
        order = sorted(
            range(len(self.workers)),
            key=lambda i: (
                not self._is_live(self.workers[i]),
                load[self.workers[i].name],
                i,
            ),
        )
        chosen = [self.workers[i] for i in order[:copies]]
        for worker in chosen:
            worker.register_servable(
                servable, image, executor_name=executor_name, replicas=replicas
            )
            self._mark_warming(worker)
        self._hosts[servable.name] = chosen
        self._fleet_changed()
        # Seed the event indices: messages put on the default-lane topic
        # before placement predate the queue listener's visibility filter
        # (unplaced servables are not ours), so baseline the depth
        # counter from the queue and mark the topic dirty.
        default_topic = self._own_lane(servable.name, None, "requests")
        self._ready_depth[servable.name] = self.queue.ready_count(default_topic)
        if self._ready_depth[servable.name]:
            self._dirty.add(default_topic)
        self._specs[servable.name] = PlacementSpec(
            servable=servable,
            image=image,
            executor_name=executor_name,
            replicas=replicas,
        )
        return chosen

    def adopt_placement(
        self,
        servable: Servable,
        image,
        executor_name: str = "parsl",
        replicas: int = 1,
        worker_names: list[str] | None = None,
    ) -> list[TaskManager]:
        """Adopt an existing placement after a crash-restart.

        Crash recovery keeps the worker fleet (Task Manager objects,
        their registrations, deployments, and memo caches all survive —
        only the coordinator process died), so re-:meth:`place`-ing
        would double-register every servable and pay a second cold
        start for deployments that are already up. Adoption instead
        records the placement exactly as it was: each named worker must
        already have the servable registered. Tenant lanes present in
        the (recovered) queue are re-tracked and ready depths are
        baselined, so the first serve tick sees the restored backlog.
        """
        if servable.name in self._hosts:
            raise ServingRuntimeError(f"servable {servable.name!r} already placed")
        if not worker_names:
            raise ServingRuntimeError("adopt_placement requires worker names")
        chosen = [self.worker(name) for name in worker_names]
        for worker in chosen:
            if servable.name not in worker.registered_servables():
                raise ServingRuntimeError(
                    f"worker {worker.name!r} has no surviving registration "
                    f"for {servable.name!r}; use place() instead"
                )
        self._hosts[servable.name] = chosen
        self._fleet_changed()
        self._specs[servable.name] = PlacementSpec(
            servable=servable,
            image=image,
            executor_name=executor_name,
            replicas=replicas,
        )
        default_topic = self._own_lane(servable.name, None, "requests")
        depth = self.queue.ready_count(default_topic)
        if depth:
            self._dirty.add(default_topic)
        # Re-track the tenant lanes whose messages survived into the
        # recovered queue; lanes that were empty at the crash re-create
        # themselves on the next submit.
        for topic in sorted(self.queue.topics()):
            parts = topic.split("/", 2)
            if len(parts) != 3 or parts[0] != "servable":
                continue
            lane, name = parts[1], parts[2]
            if name != servable.name or lane == "requests":
                continue
            self._owned_topics[topic] = (name, lane)
            depth += self.queue.ready_count(topic)
            self._dirty.add(topic)
        self._ready_depth[servable.name] = depth
        return chosen

    def spec(self, servable_name: str) -> PlacementSpec:
        """The placement spec recorded when the servable was placed."""
        spec = self._specs.get(servable_name)
        if spec is None:
            raise ServingRuntimeError(f"servable {servable_name!r} is not placed")
        return spec

    def add_copy(self, servable_name: str, worker: TaskManager) -> TaskManager:
        """Register an additional copy of a placed servable on ``worker``.

        The deployment cold start (image pull + container start on the
        worker's cluster) is charged to the worker's clock, so a
        concurrent worker is busy — not routable — until the copy is up.
        The new copy's memo cache is warmed from an existing host, so
        rebalancing keeps the ~1 ms memoized path (SS V-B5) hot.
        """
        spec = self.spec(servable_name)
        worker = self.worker(worker.name if isinstance(worker, TaskManager) else worker)
        hosts = self._hosts[servable_name]
        if worker.name in {h.name for h in hosts}:
            raise ServingRuntimeError(
                f"worker {worker.name!r} already hosts {servable_name!r}"
            )
        worker.register_servable(
            spec.servable,
            spec.image,
            executor_name=spec.executor_name,
            replicas=spec.replicas,
        )
        self._mark_warming(worker)
        self._warm_memo_cache(servable_name, hosts, worker)
        hosts.append(worker)
        self._fleet_changed()
        return worker

    def _mark_warming(self, worker: TaskManager) -> None:
        """Record the deployment cold start just charged to ``worker``'s
        clock; capacity planners exclude it until global time catches
        up (:meth:`is_warming`), and the budget re-derives now so the
        exclusion takes effect immediately."""
        self._warm_at[worker.name] = warm_at = max(
            self._warm_at.get(worker.name, 0.0), worker.clock.now()
        )
        self._next_warm = min(self._next_warm, warm_at)
        self._notify_fleet_change()

    def _warm_memo_cache(
        self, servable_name: str, donors: list[TaskManager], target: TaskManager
    ) -> int:
        """Copy the richest donor's memo entries for ``servable_name``
        onto ``target``.

        Live donors are preferred, but a down worker's cache survived
        its outage (see :meth:`revive`) and still warms a replacement —
        that is exactly the migration case. No extra virtual time is
        charged: the entries ship alongside the image pull the copy
        already paid for. Returns the number of entries copied.
        """
        if not target.memoize:
            return 0
        best: list[tuple[bytes, object]] = []
        best_rank: tuple[int, int] | None = None
        for idx, donor in enumerate(donors):
            if not donor.memoize:
                continue
            entries = donor.cache.export_entries(servable_name)
            if not entries:
                continue
            # Rank live donors above down ones, then by entry count.
            rank = (0 if self._is_live(donor) else 1, -len(entries))
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = entries
        if not best:
            return 0
        copied = target.cache.absorb(best)
        self.memo_entries_warmed += copied
        return copied

    def remove_copy(self, servable_name: str, worker_name: str) -> None:
        """Unregister one copy; at least one copy must remain."""
        hosts = self._hosts.get(servable_name)
        if hosts is None:
            raise ServingRuntimeError(f"servable {servable_name!r} is not placed")
        match = [h for h in hosts if h.name == worker_name]
        if not match:
            raise ServingRuntimeError(
                f"worker {worker_name!r} does not host {servable_name!r}"
            )
        if len(hosts) == 1:
            raise ServingRuntimeError(
                f"cannot remove the last copy of {servable_name!r}"
            )
        match[0].unregister_servable(servable_name)
        hosts.remove(match[0])
        self._fleet_changed()

    def placement(self) -> dict[str, list[str]]:
        """Servable name -> names of the workers hosting it."""
        return {name: [w.name for w in hosts] for name, hosts in self._hosts.items()}

    def hosts(self, servable_name: str) -> list[TaskManager]:
        """The workers hosting ``servable_name`` (copy order preserved)."""
        self.check_placed(servable_name)
        return list(self._hosts[servable_name])

    def check_placed(self, servable_name: str) -> None:
        """Raise unless ``servable_name`` has a placement — the door
        check of every submission path, without copying the host list."""
        if servable_name not in self._hosts:
            raise ServingRuntimeError(f"servable {servable_name!r} is not placed")

    # -- worker liveness ----------------------------------------------------------
    def mark_down(self, worker_name: str) -> None:
        """Take a worker out of routing (crash / maintenance / draining)."""
        self.worker(worker_name)
        self._down.add(worker_name)
        self._notify_fleet_change()

    def mark_up(self, worker_name: str) -> None:
        """Return a worker to routing (inverse of :meth:`mark_down`)."""
        self._down.discard(worker_name)
        self._notify_fleet_change()

    def revive(self, worker_name: str) -> TaskManager:
        """Bring a down worker back into routing (its registrations and
        memo cache survived the outage). The health-tracking hook a
        controller calls once the worker's probe succeeds again."""
        worker = self.worker(worker_name)
        if worker_name not in self._down:
            raise ServingRuntimeError(f"worker {worker_name!r} is not down")
        self._down.discard(worker_name)
        self._notify_fleet_change()
        return worker

    def _is_live(self, worker: TaskManager) -> bool:
        return worker.name not in self._down and worker.probe()

    def alive_workers(self) -> list[TaskManager]:
        """Workers that are in routing and answer their probe."""
        return [w for w in self.workers if self._is_live(w)]

    def fleet_stats(self) -> FleetStats:
        """Snapshot per-worker load, liveness, placements, queue depths."""
        hosted: dict[str, list[str]] = {w.name: [] for w in self.workers}
        for name, hosts in self._hosts.items():
            for host in hosts:
                hosted[host.name].append(name)
        return FleetStats(
            time=self.clock.now(),
            workers=tuple(
                WorkerStat(
                    name=w.name,
                    hosted=tuple(sorted(hosted[w.name])),
                    down=not self._is_live(w),
                    free_at=self.free_at(w),
                    tasks_processed=w.tasks_processed,
                    warming=self.is_warming(w),
                    warm_at=self._warm_at.get(w.name, 0.0),
                )
                for w in self.workers
            ),
            down=frozenset(self._down),
            placements={
                name: tuple(w.name for w in hosts)
                for name, hosts in self._hosts.items()
            },
            queue_depths={name: self.queue_depth(name) for name in self._hosts},
        )

    def _live_hosts_of(self, servable_name: str) -> list[TaskManager]:
        """One servable's live hosts in copy order: the cached list,
        rebuilt only after a fleet event dropped it."""
        live = self._live_hosts.get(servable_name)
        if live is None:
            self.check_placed(servable_name)
            live = [w for w in self._hosts[servable_name] if self._is_live(w)]
            self._live_hosts[servable_name] = live
        return live

    def _route(self, servable_name: str, now: float) -> tuple[TaskManager | None, float]:
        """Pick a live host free at ``now``; also report the earliest time
        any live host frees up (``inf`` when none is live).

        Among free hosts the one that has been free longest wins, the
        first in copy order on a tie. Liveness is not probed here: the
        walk is over the servable's cached live-host list, which every
        event that could change it invalidates (:meth:`_fleet_changed`).
        """
        hosts = self._live_hosts_of(servable_name)
        horizon = now + _EPS
        best = None
        best_free = earliest_free = math.inf
        for worker in hosts:
            free = worker.clock.now()  # `free_at`, inlined
            if free < earliest_free:
                earliest_free = free
            if free <= horizon and free < best_free:
                best, best_free = worker, free
        return best, earliest_free

    # -- control plane ------------------------------------------------------------
    def attach_controller(self, *controllers) -> None:
        """Hook fleet controllers into the serve loop, replacing whatever
        was attached before (no argument detaches them all).

        Each controller must expose ``next_wakeup() -> float`` and
        ``on_tick()``. The loop keeps one timer per controller at its
        ``next_wakeup()`` and calls ``on_tick()`` when that time is
        due — several due at one instant tick in the order given here
        — then asks ``next_wakeup()`` again. Wake-ups are honoured
        while the data plane has work or the ingress holds requests;
        they do not keep an otherwise drained loop running.
        """
        for timer in self._controller_timers:
            timer.cancel()
        self._controllers = controllers
        self._controller_timers = tuple(
            self.timers.timer(PHASE_CONTROLLER, name="controller") for _ in controllers
        )
        self._raised |= _CONTROLLER

    def attach_ingress(self, ingress) -> None:
        """Hook a request source (e.g. a serving gateway) into the loop.

        The ingress must expose:

        * ``on_tick(now)`` — called when something of the ingress' is
          due: one of its timers, a settlement, or a fleet change.
          Inject the arrivals due at ``now`` (via :meth:`submit`) and
          release throttled work;
        * ``on_settled(batches)`` — observe the micro-batches that just
          settled, in order, each the list of its members'
          :class:`~repro.core.record.RequestRecord` objects. A
          batch came off one lane: one servable, one tenant tag, so
          per-tenant accounting settles once per batch. Records the
          ingress did not submit ride along. Always followed by
          ``on_tick``;
        * ``pending() -> int`` — requests it holds open: unoffered, or
          admitted and not settled. Asked once wake-ups run out; ``serve``
          returns only at zero, with no ready work on an owned topic.

        The ingress is not polled for its next wake-up: it keeps timers
        of phase :data:`PHASE_INGRESS` on :attr:`timers` and moves them
        (:meth:`~repro.sim.events.EventLoop.reschedule`) whenever its
        next due time changes.

        This is how admission-controlled traffic reaches the runtime
        without the runtime knowing about tenants: the gateway holds
        requests in fair-queued lanes and meters them onto the servable
        topics from ``on_tick``/``on_settled``.
        """
        self._ingress = ingress
        self._raised |= _INGRESS

    # -- submission ---------------------------------------------------------------
    def submit(self, request: TaskRequest | RequestRecord) -> RequestRecord:
        """Enqueue one single-item request on its servable's topic.

        ``request`` is a :class:`TaskRequest` of gateway-less traffic,
        whose :class:`~repro.core.record.RequestRecord` is made here, or
        the record an ingress already holds for it. The record itself
        is the queue's message, and is returned.

        Tenant-tagged requests (admitted through a gateway) ride a
        per-tenant lane of the servable's topic; untagged requests keep
        the default lane. Lanes coalesce independently, so micro-batches
        never mix tenants. A record that was queued before (a gateway
        re-releasing work it reclaimed) is back-dated to its original
        enqueue time, so queue-wait metrics keep the request's true age.
        """
        enqueued_at = None
        if request.__class__ is RequestRecord:
            record = request
            request = record.body
            enqueued_at = record.enqueued_at
            if self._adopted:
                # Re-released after a reclaim: its replayed message is gone.
                self._adopted.pop(request.task_uuid, None)
        else:
            record = RequestRecord(request)
        if request.is_batch:
            raise ServingRuntimeError(
                "the runtime coalesces single-item requests; submit items "
                "individually instead of pre-formed batches"
            )
        name = request.servable_name
        topic = self._submit_lane.get((name, request.tenant))
        if topic is None:
            topic = self._track_lane(name, request.tenant)
        return self.queue.put(record, topic=topic, enqueued_at=enqueued_at)

    def adopt(self, record: RequestRecord) -> None:
        """Take over a record whose request a recovered queue holds as a
        replayed plain message: claiming that message settles into it."""
        self._adopted[record.body.task_uuid] = record

    def _record_of(self, message: QueuedMessage) -> RequestRecord:
        """The record of a claimed plain message (put straight on the
        queue, or replayed): the adopted one, else a fresh one, taking
        over the message's delivery bookkeeping."""
        record = self._adopted.pop(message.body.task_uuid, None)
        if record is None:
            record = RequestRecord(message.body)
        record.message_id = message.message_id
        record.enqueued_at = message.enqueued_at
        record.topic = message.topic
        record.deliveries = message.deliveries
        record.claimed_at = message.claimed_at
        record.delivery_tag = message.delivery_tag
        return record

    def _own_lane(self, name: str, tenant: str | None, lane: str) -> str:
        """Enter one lane of a placed servable into the topic tables;
        returns its topic."""
        topic = servable_topic(name, lane=lane)
        self._owned_topics[topic] = (name, lane)
        self._submit_lane[(name, tenant)] = topic
        return topic

    def _track_lane(self, name: str, tenant: str | None) -> str:
        """First submit onto a lane the tables do not know: start
        tracking it and return its topic."""
        # Reject unplaced servables at the door: once enqueued they would
        # poison the serve loop for every other topic.
        self.check_placed(name)
        lane = "requests" if tenant is None else f"tenant-{tenant}"
        fresh = servable_topic(name, lane=lane) not in self._owned_topics
        topic = self._own_lane(name, tenant, lane)
        if fresh:
            # A newly tracked lane makes its topic visible to the
            # dispatch scan; messages put there directly (not via
            # submit) predate the listener filter, so baseline them in.
            preexisting = self.queue.ready_count(topic)
            if preexisting:
                self._ready_depth[name] = (
                    self._ready_depth.get(name, 0) + preexisting
                )
                self._dirty.add(topic)
        return topic

    def _on_dead_letter(self, message: QueuedMessage) -> None:
        """A message will never settle: wake the ingress, whose request
        may have just settled failed and freed a slot, and settle its
        trace as an error (so tail-keep retains the drop)."""
        self._raised |= _INGRESS
        if self.tracer is None:
            return
        record = message
        if record.__class__ is not RequestRecord:
            # A plain message (put straight on the queue, or replayed)
            # arrived as it enqueued.
            record = RequestRecord(message.body)
            record.enqueued_at = message.enqueued_at
        now = self.clock.now()
        self.tracer.settle_request(
            record, now, True, mark=("dead_letter", now, {"deliveries": message.deliveries})
        )

    def gc_lanes(self, now: float | None = None) -> int:
        """Collect nothing and return 0: a tenant lane lives from its
        first submit until the runtime is dropped, as the queue topic
        under it and the gateway's WFQ lane above it do. Kept for
        callers that still name it."""
        return 0

    def queue_depth(self, servable_name: str) -> int:
        """Ready requests for a servable across all of its queue lanes.

        O(1) for placed servables: the queue's ready-set listener keeps
        a per-servable counter current. An unplaced name (outside the
        listener's visibility filter) has only its default lane, since
        no tenant lane is tracked before placement.
        """
        if servable_name in self._hosts:
            return self._ready_depth.get(servable_name, 0)
        return self.queue.ready_count(servable_topic(servable_name))

    # -- coalescing loop ----------------------------------------------------------
    def _flush_due(self, topic: str, head: QueuedMessage) -> float:
        """When the coalescing window on ``topic`` (whose oldest ready
        message is ``head``) must close.

        A full window is due at its head's enqueue time (i.e. now);
        otherwise the head may wait at most ``max_coalesce_delay_s``.
        """
        if self.queue.ready_count(topic) >= self.max_batch_size:
            return head.enqueued_at
        return head.enqueued_at + self.max_coalesce_delay_s

    # -- event indices ------------------------------------------------------------
    def _on_queue_event(self, topic: str, delta: int) -> None:
        """Queue listener: fold one ready-set change into the indices.

        Only topics the runtime owns participate — the queue is shared
        (another runtime's lanes, messages put straight on it), and an
        unowned topic must stay invisible to the dispatch scan exactly
        as it was under the linear implementation.
        """
        owned = self._owned_topics.get(topic)
        if owned is None:
            return
        name = owned[0]
        self._ready_depth[name] = self._ready_depth.get(name, 0) + delta
        self._dirty.add(topic)

    def _next_window(
        self, now: float
    ) -> tuple[str | None, TaskManager | None, float]:
        """Returns ``(dispatchable_topic_or_None, its_host_or_None,
        earliest_future_event)``: the whole dispatch decision, one call.

        Bit-for-bit the answers of :meth:`_next_window_scan` (see its
        docstring for the arbitration), served from the event indices:
        dirty topics are re-derived into ``_win`` and pushed onto their
        servable's due or future heap, then each servable's heap tops
        are cleaned (a due entry is valid while it *is* its topic's
        ``_win`` record) and due deadlines migrate. Only a servable with
        a due window is routed, once; one with only future windows just
        needs a live host, so it reads no clock.
        """
        horizon = now + _EPS
        win = self._win
        all_heaps = self._window_heaps
        dirty = self._dirty
        if dirty:
            oldest_ready = self.queue.oldest_ready
            owned = self._owned_topics
            for topic in dirty:
                head = oldest_ready(topic)
                if head is None:
                    win.pop(topic, None)
                    continue
                tag = getattr(head.body, "dispatch_tag", None)
                flush_at = self._flush_due(topic, head)
                state = ((-math.inf) if tag is None else tag, flush_at, topic)
                if win.get(topic) == state:
                    continue
                win[topic] = state
                name = owned[topic][0]
                heaps = all_heaps.get(name)
                if heaps is None:
                    heaps = all_heaps[name] = ([], [])
                if flush_at <= horizon:
                    heapq.heappush(heaps[0], state)
                else:
                    heapq.heappush(heaps[1], (flush_at, topic))
            dirty.clear()
        due: tuple[float, float, str] | None = None
        host = None
        next_event = math.inf
        for name in self._hosts:
            heaps = all_heaps.get(name)
            if heaps is None:
                continue
            due_heap, future_heap = heaps
            while due_heap:
                entry = due_heap[0]
                if win.get(entry[2]) is not entry:
                    heapq.heappop(due_heap)
                elif entry[1] > horizon:
                    # Only reachable if time ran backwards between calls
                    # (tests may probe with arbitrary nows): demote.
                    heapq.heappop(due_heap)
                    heapq.heappush(future_heap, (entry[1], entry[2]))
                else:
                    break
            while future_heap:
                flush_at, topic = future_heap[0]
                state = win.get(topic)
                if state is None or state[1] != flush_at:
                    heapq.heappop(future_heap)
                elif flush_at <= horizon:
                    heapq.heappop(future_heap)
                    heapq.heappush(due_heap, state)
                else:
                    break
            if due_heap:
                worker, earliest_free = self._route(name, now)
                if worker is not None:
                    if due is None or due_heap[0] < due:
                        due, host = due_heap[0], worker
                elif earliest_free == math.inf:
                    continue  # no live host: invisible until revival
                elif earliest_free < next_event:
                    next_event = earliest_free
            elif not future_heap or not self._live_hosts_of(name):
                continue  # nothing open, or no live host until revival
            if future_heap and future_heap[0][0] < next_event:
                next_event = future_heap[0][0]
        return (due[2] if due else None), host, next_event

    def _next_window_scan(
        self, now: float
    ) -> tuple[str | None, TaskManager | None, float]:
        """Returns ``(dispatchable_topic_or_None, its_host_or_None,
        earliest_future_event)``.

        The reference linear implementation of :meth:`_next_window`,
        retained for property tests (the index must agree with it on
        every randomized workload) and for measuring the index's win
        (``bench_dispatch_overhead``). O(servables x owned topics) per call.

        A topic is dispatchable when its window is due *and* a live host
        is free. A due window whose hosts are all busy contributes the
        earliest host-free time to the future-event horizon; a topic with
        no live host at all is skipped: its work stays queued.

        When several windows are due at once, arbitration is the
        dispatch-level fairness decision: heads carrying a gateway WFQ
        virtual-finish tag (:attr:`TaskRequest.dispatch_tag`) dispatch
        in tag order, so a light tenant's fresh request outranks a hot
        tenant's older backlog without the gateway having to starve its
        own slot budget. Untagged heads keep the legacy
        oldest-window-first order (and outrank tagged ones, so a
        gateway-less deployment is bit-for-bit unchanged).
        """
        due: tuple[float, float, str] | None = None
        host = None
        next_event = math.inf
        for name in self._hosts:
            routed = False  # routing is per servable, not per lane
            worker, earliest_free = None, math.inf
            owned = self._owned_topics.items()
            for topic in sorted(t for t, (owner, _) in owned if owner == name):
                head = self.queue.oldest_ready(topic)
                if head is None:
                    continue
                if not routed:
                    worker, earliest_free = self._route(name, now)
                    routed = True
                if worker is None and math.isinf(earliest_free):
                    continue
                flush_at = self._flush_due(topic, head)
                if flush_at <= now + _EPS:
                    if worker is not None:
                        tag = getattr(head.body, "dispatch_tag", None)
                        rank = (
                            (-math.inf) if tag is None else tag,
                            flush_at,
                            topic,
                        )
                        if due is None or rank < due:
                            due, host = rank, worker
                    else:
                        next_event = min(next_event, earliest_free)
                else:
                    next_event = min(next_event, flush_at)
        return (due[2] if due else None), host, next_event

    def _dispatch_topic(self, topic: str, worker: TaskManager) -> None:
        """Claim a micro-batch off ``topic`` and dispatch it to ``worker``,
        the free host :meth:`_next_window` routed it to (nothing between
        that decision and this call moves the global clock).

        The claimed messages are the members' records; the batch's
        outcome is written into them and the batch parks on the pending
        heap as a tuple until global time reaches its completion. The
        processing runs on the chosen worker's timeline: for a
        shared-clock worker that advances global time (serial), for an
        own-clock worker only the worker's clock moves.
        """
        servable_name = self._owned_topics[topic][0]
        now = self.clock.now()
        records = self.queue.claim_many(topic, self.max_batch_size)
        if self.chaos is not None:
            self.chaos.trip("post_claim")
        size = len(records)
        worker_name = worker.name
        record_stage = self.stage_metrics.record
        for i, record in enumerate(records):
            if record.__class__ is not RequestRecord:
                records[i] = record = self._record_of(record)
            record.worker = worker_name
            record.batch_size = size
            record_stage("queue_wait", servable_name, now - record.enqueued_at)
        # How long the window was held open: the head waited longest.
        record_stage("coalesce_delay", servable_name, now - records[0].enqueued_at)

        # Sync a lagging concurrent worker forward to global time: its
        # idle gap is skipped, and from here its clock is the batch's
        # timeline.
        if worker.clock is not self.clock and worker.clock.now() < now:
            worker.clock.advance_to(now)
        dispatch_start = worker.clock.now()
        inference, chunks, hits, failed = worker.process(records)
        # Stage timing is captured before a failed batch's memo hits are
        # re-served below — those are neither dispatch nor inference.
        elapsed = worker.clock.now() - dispatch_start
        record_stage("dispatch", servable_name, max(0.0, elapsed - inference))
        record_stage("inference", servable_name, inference)
        # Per-pod utilization: each surviving replica chunk's busy time
        # lands on its pod's gauge, so the replica autoscaler can see
        # chunk imbalance instead of only the aggregate inference rate.
        for chunk in chunks:
            if chunk.ok:
                self.stage_metrics.record_pod_share(
                    servable_name, f"{worker_name}/{chunk.pod}", chunk.inference_time
                )
        if failed is not None and hits:
            # Nothing was dispatched: the misses failed, and each memo hit
            # is re-served as a single request (a ~1 ms cache hit).
            for record in records:
                if record.cache_hit:
                    worker.process([record])
        if self.chaos is not None:
            self.chaos.trip("mid_batch")
        # detlint: allow[HOT001] — the batch's delivery tags, one list per batch
        self.queue.ack(*[record.delivery_tag for record in records])

        self.batches_dispatched += 1
        self.items_served += size
        self.memo_hits += hits
        seq = next(self._seq)
        completed = worker.clock.now()
        trace_ctx = None
        if self.tracer is not None:
            # Tracing adds nothing per-member here: stash the batch's
            # timings once; settlement builds spans only for the members
            # the tracer keeps.
            infer_start = dispatch_start + max(0.0, elapsed - inference)
            if len(chunks) > 1:
                # Chunk items index the dispatched misses, in batch order.
                # detlint: allow[HOT001] — traced runs only, one list per batch
                misses = [i for i, record in enumerate(records) if not record.cache_hit]
                # detlint: allow[HOT001] — traced runs only, one map per batch
                pods = {misses[j]: c.pod for c in chunks for j in c.items}
                only_pod = None
            else:
                pods, only_pod = None, chunks[0].pod if chunks else None
            trace_ctx = BatchTiming(
                seq,
                now,
                records[0].enqueued_at,
                dispatch_start,
                infer_start,
                completed,
                inference,
                pods,
                only_pod,
            )
        heapq.heappush(self._pending, (completed, seq, records, trace_ctx))
        # Only an earlier completion moves the settle timer; a later one
        # waits its turn behind the top.
        self.timers.reschedule(self._settle_timer, self._pending[0][0])

    def _settle_traces(
        self, records: list[RequestRecord], batch: BatchTiming, now: float
    ) -> None:
        """Settle every member of a traced batch through the tracer; the
        batch's timings build the spans of the members it keeps."""
        settle_request = self.tracer.settle_request
        settle_end = now if now > batch.completed_at else batch.completed_at
        for i, record in enumerate(records):
            settle_request(
                record, settle_end, record.status is not TaskStatus.SUCCEEDED, batch, i
            )

    def _settle(self, now: float) -> list[list[RequestRecord]]:
        """Settle the dispatched batches whose completion time the global
        clock has reached, in ``(completed_at, seq)`` order — the order
        the pending heap pops them in: each member's record gets its
        ``completed_at``, and the batches' record lists are returned."""
        pending = self._pending
        horizon = now + _EPS
        done = []
        while pending and pending[0][0] <= horizon:
            done.append(heapq.heappop(pending))
        # The settle timer follows the heap's top whatever happened here
        # — also after a pass that was cut short between the timer
        # firing and this call.
        if pending:
            self.timers.reschedule(self._settle_timer, pending[0][0])
        else:
            self._settle_timer.cancel()
        if not done:
            return done
        if self.chaos is not None:
            self.chaos.trip("pre_settle")
        settled = []
        for completed_at, seq, records, trace_ctx in done:
            for record in records:
                record.completed_at = completed_at
            settled.append(records)
            if trace_ctx is not None and self.tracer is not None:
                self._settle_traces(records, trace_ctx, now)
        return settled

    def serve(
        self, arrivals: list[tuple[float, TaskRequest]] | None = None
    ) -> list[RequestRecord]:
        """Run the coalescing loop over an open-loop arrival schedule.

        ``arrivals`` is a list of ``(offset_s, request)`` pairs, offsets
        measured from the moment ``serve`` is called (deployment work has
        already moved the virtual clock, so absolute times would all be
        in the past). The loop advances the clock along arrivals,
        coalesce deadlines, and batch completions, flushing each
        per-servable window when it fills (``max_batch_size``) or times
        out (``max_coalesce_delay_s``) — onto whichever live host is
        free, so concurrent workers drain a backlog in parallel.
        Arrivals whose time has already passed (the fleet was busy) are
        enqueued late — that backlog is exactly what grows batches under
        load. Returns only when nothing is open (no ready work on an owned
        topic, no batch in flight, nothing the ingress holds), with the
        record of every request that settled during the call, in
        settlement order; expired in-flight messages are redelivered.

        **A wake-up costs what is due, not what exists.** Every source
        of a future wake-up keeps its next due time on :attr:`timers`;
        the loop sleeps to the earliest, collects every timer due at
        that instant, and runs only the phases that have a due timer or
        were raised by an event (a dirty topic, a fleet change, a
        dispatch) — always in the same order: expire → controllers →
        warm-up → settle → ingress → arrivals → dispatch, and again
        from the top after each dispatch. A worker warming up is not a
        wake-up source: its deadline is an O(1) guard checked on
        whatever wake-up comes next. Held work that no data-plane timer
        will wake waits on controllers; if none wakes within the queue's
        visibility timeout, ServingRuntimeError names what is held. See
        docs/ARCHITECTURE.md, "The serve loop's contract".
        """
        clock = self.clock
        queue = self.queue
        timers = self.timers
        start = clock.now()
        schedule = sorted(
            ((start + offset, request) for offset, request in arrivals or []),
            key=lambda pair: pair[0],
        )
        results: list[RequestRecord] = []
        i = 0
        if schedule:
            timers.reschedule(self._arrival_timer, schedule[0][0])
        else:
            self._arrival_timer.cancel()
        for timer in self._controller_timers:
            # Whatever moved a controller's schedule between serves did
            # not go through the loop: the first pass ticks every
            # controller and asks each for its wake-up afresh.
            timer.cancel()
        # The first pass takes nothing on trust: every phase runs.
        self._raised = _ALL_PHASES
        stalled_since = math.inf
        while True:
            self._raised |= timers.due_phases(clock.now() + _EPS)
            if queue.inflight_count:
                queue.expire_inflight()
            while self._raised & _CONTROLLER:
                self._raised &= ~_CONTROLLER
                self._tick_controllers()
                # A tick may have moved global time (a cold start on a
                # shared-clock worker): take in what became due.
                self._raised |= timers.due_phases(clock.now() + _EPS)
            now = clock.now()
            if now + _EPS >= self._next_warm:
                self._warmed(now)
            # From here on anything raised is for the next pass: a phase
            # that raises one behind itself re-enters the loop below.
            raised = self._raised
            self._raised = 0
            settled = None
            if raised & _SETTLE:
                settled = self._settle(now)
                for records in settled:
                    results.extend(records)
            ingress = self._ingress
            if ingress is not None and (settled or raised & _INGRESS):
                if settled:
                    ingress.on_settled(settled)
                ingress.on_tick(now)
            if raised & _ARRIVALS:
                while i < len(schedule) and schedule[i][0] <= now + _EPS:
                    intended, request = schedule[i]
                    i += 1
                    self.submit(RequestRecord(request, arrived_at=intended))
                if i < len(schedule):
                    timers.reschedule(self._arrival_timer, schedule[i][0])
            if self._dirty or raised & _DISPATCH:
                due_topic, host, window_wake = self._next_window(now)
                if due_topic is not None:
                    stalled_since = math.inf
                    self._dispatch_topic(due_topic, host)
                    self._raised |= _DISPATCH
                    continue
                if window_wake < math.inf:
                    timers.reschedule(self._window_timer, window_wake)
                else:
                    self._window_timer.cancel()
            # Work claimed by a crashed consumer becomes ready again when
            # its visibility timeout lapses — sleep until then rather
            # than declaring the queue drained.
            expiry = None
            if queue.inflight_count:
                expiry = queue.next_inflight_expiry(self._owned_topics)
            if expiry is not None:
                timers.reschedule(self._expiry_timer, expiry)
            elif self._expiry_timer.live:
                self._expiry_timer.cancel()
            if self._raised:
                continue
            wake = timers.peek()
            if wake is None or (
                wake.phase == PHASE_CONTROLLER
                and len(timers) == sum(t.live for t in self._controller_timers)
            ):
                # No data-plane wake-up is left: return once nothing is
                # open in the ingress or on an owned topic. Else wait for
                # a controller to heal the cause (a crashed sole host),
                # but no longer than the visibility timeout from the stall.
                held = sum(self._ready_depth.values())
                if ingress is not None:
                    held = ingress.pending() or held
                if not held:
                    return results
                stalled_since = min(stalled_since, now)
                if wake is None or wake.when > stalled_since + VISIBILITY_TIMEOUT_S:
                    raise ServingRuntimeError(
                        f"{held} request(s) held open with no next event "
                        f"after {now - stalled_since:.3f} s stalled"
                    )
            if wake.when > now:
                clock.advance_to(wake.when)

    def _tick_controllers(self) -> None:
        """Tick, in attach order, every controller whose timer is not
        pending — it just fired, or the controller named no future
        wake-up — then re-arm it at the controller's next wake-up."""
        for controller, timer in zip(self._controllers, self._controller_timers):
            if timer.live:
                continue
            controller.on_tick()
            wake = controller.next_wakeup()
            if self.clock.now() < wake < math.inf:
                self.timers.reschedule(timer, wake)

    def drain(self) -> list[RequestRecord]:
        """Flush everything already enqueued (no further arrivals)."""
        return self.serve([])

    # -- introspection ------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        """Average items per dispatched micro-batch (0.0 before any)."""
        if not self.batches_dispatched:
            return 0.0
        return self.items_served / self.batches_dispatched

    @property
    def inflight_batches(self) -> int:
        """Dispatched micro-batches whose completion is still in the future."""
        return len(self._pending)
