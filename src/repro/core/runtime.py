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
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.metrics import StageLatencyCollector
from repro.core.servable import Servable
from repro.core.task_manager import TaskManager
from repro.core.tasks import TaskRequest, TaskResult, TaskStatus
from repro.core.telemetry import MemberRecord
from repro.messaging.queue import QueuedMessage, TaskQueue, servable_topic
from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop

#: Epsilon for virtual-clock deadline comparisons (guards against float
#: accumulation pushing a due window just past ``now``).
_EPS = 1e-12

#: The serve loop's phases, in the order one wake-up runs them; also the
#: ``phase`` of each wake-up source's timer on :attr:`ServingRuntime.timers`
#: (see "The serve loop's contract" in docs/ARCHITECTURE.md). Lane GC
#: sits between the controller and settle phases but is a guard, not a
#: timer, so it has no number.
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


@dataclass
class RuntimeResult:
    """One request's outcome as served by the runtime."""

    request: TaskRequest
    result: TaskResult
    #: Name of the Task Manager that served the micro-batch.
    worker: str
    #: Size of the micro-batch this request rode in.
    batch_size: int
    #: When the client intended the request to arrive (open-loop time).
    arrival_time: float
    #: When the request actually entered the queue (>= arrival under load).
    enqueued_at: float
    completed_at: float

    @property
    def latency(self) -> float:
        """End-to-end latency from intended arrival to completion."""
        return self.completed_at - self.arrival_time


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


@dataclass
class _PendingBatch:
    """A dispatched micro-batch whose completion time is in the future
    (the worker runs on its own timeline)."""

    completed_at: float
    seq: int
    worker_name: str
    messages: list[QueuedMessage]
    requests: list[TaskRequest]
    results: list[TaskResult]
    #: Batch-level dispatch timings for trace recording, stashed at
    #: dispatch (O(1) per batch) and fanned onto member traces at
    #: settlement: ``(claimed_at, dispatch_start, infer_start,
    #: batch_inference_s, pods, only_pod, head_enqueued)``. ``None``
    #: when no tracer is attached.
    trace_ctx: tuple | None = None


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
    lane_idle_ttl_s:
        How long (virtual time) a tenant lane may sit empty and idle
        before it is garbage-collected from the per-servable topic scan.
        Thousands of churning tenants would otherwise grow
        ``_lanes`` forever. Collection runs whenever a new lane is
        tracked and on a half-TTL sweep of the serve loop; either costs
        O(lanes actually past the TTL), so there is no bound to tune.
    tracer:
        Optional :class:`~repro.core.telemetry.Tracer`. When attached,
        every request gets a span tree (``dispatch_window`` →
        ``coalesce`` → ``dispatch`` → per-item ``inference`` or
        ``cache`` → ``settle``) stamped on the virtual clock; a gateway
        sharing the same tracer contributes the ``admission`` and
        ``lane_wait`` spans upstream. Traces of dead-lettered messages
        are closed out as errors via the queue's dead-letter feed.
    """

    def __init__(
        self,
        clock: VirtualClock,
        queue: TaskQueue,
        workers: list[TaskManager],
        max_batch_size: int = 32,
        max_coalesce_delay_s: float = 0.010,
        stage_metrics: StageLatencyCollector | None = None,
        lane_idle_ttl_s: float = 5.0,
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
        if lane_idle_ttl_s <= 0:
            raise ServingRuntimeError("lane_idle_ttl_s must be > 0")
        self.clock = clock
        self.queue = queue
        self.workers = list(workers)
        self.max_batch_size = max_batch_size
        self.max_coalesce_delay_s = max_coalesce_delay_s
        self.stage_metrics = stage_metrics or StageLatencyCollector()
        self._hosts: dict[str, list[TaskManager]] = {}
        #: Queue lanes seen per servable. Untagged requests ride the
        #: default lane; tenant-tagged requests get their own lane, so
        #: coalesced micro-batches are tenant-pure — a light tenant's
        #: single request never pays the inference time of a hot
        #: tenant's batchmates.
        self._lanes: dict[str, set[str]] = {}
        self.lane_idle_ttl_s = lane_idle_ttl_s
        #: Last submit/claim activity per (servable, tenant lane) — the
        #: idle clock that lane GC reads, kept **in idle order**: every
        #: write moves the lane to the young end (:meth:`_touch_lane`)
        #: and the virtual clock is monotone, so the old end holds the
        #: longest-idle lane and GC stops at the first one whose TTL has
        #: not lapsed. The never-collected default lane is not tracked.
        self._lane_active: OrderedDict[tuple[str, str], float] = OrderedDict()
        self._next_lane_gc = clock.now() + lane_idle_ttl_s
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
        #: batch)``: the top is the next completion, and popping it in
        #: order *is* the settlement order.
        self._pending: list[tuple[float, int, _PendingBatch]] = []
        #: topic -> batches claimed off it that are parked on
        #: ``_pending``; moved where ``_pending`` gains and loses them.
        self._pending_by_topic: dict[str, int] = {}
        self._seq = itertools.count(1)
        # -- event indices (see "The serve loop's contract" in
        # docs/ARCHITECTURE.md). The queue's ready-set listener marks
        # topics *dirty*; `_next_window` lazily re-derives each dirty
        # topic's authoritative window state (`_win`) and keeps two
        # heaps per the window's due-ness, validating entries against
        # `_win` on pop (the same lazy-invalidation idiom the WFQ
        # scheduler's lane heap uses). Scheduling decisions then cost
        # O(log n) in tenant lanes instead of a full rescan.
        #: topic -> (tag_rank, flush_at) for topics with a ready head.
        self._win: dict[str, tuple[float, float]] = {}
        #: Topics whose ready set changed since their last refresh.
        self._dirty: set[str] = set()
        #: Per-servable heap of due windows, keyed (tag_rank, flush_at,
        #: topic) — the dispatch arbitration order.
        self._due: dict[str, list[tuple[float, float, str]]] = {}
        #: Per-servable heap of future flush deadlines, keyed
        #: (flush_at, topic); entries migrate to `_due` as time passes.
        self._future: dict[str, list[tuple[float, str]]] = {}
        #: O(1) ready-depth counter per servable (replaces summing
        #: `ready_count` over every lane).
        self._ready_depth: dict[str, int] = {}
        #: Every topic this runtime owns -> its ``(servable, lane)``,
        #: maintained incrementally (place/submit add, lane GC removes).
        #: Membership is the queue listener's ownership test, and the
        #: value saves the hot path from taking topic strings apart.
        self._owned_topics: dict[str, tuple[str, str]] = {}
        #: ``(servable, tenant)`` -> ``(lane, topic)`` for every tracked
        #: lane (tenant ``None`` is the default lane), so a submit names
        #: its lane and topic with one lookup. Never outlives the lane.
        self._submit_lane: dict[tuple[str, str | None], tuple[str, str]] = {}
        queue.subscribe(self._on_queue_event)
        self.tracer = tracer
        if tracer is not None:
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
        self._lanes.setdefault(servable.name, {"requests"})
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
        lanes = self._lanes.setdefault(servable.name, {"requests"})
        for topic in sorted(self.queue.topics()):
            parts = topic.split("/", 2)
            if len(parts) != 3 or parts[0] != "servable":
                continue
            lane, name = parts[1], parts[2]
            if name != servable.name or lane == "requests":
                continue
            lanes.add(lane)
            self._owned_topics[topic] = (name, lane)
            self._touch_lane(name, lane)
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
        """Rebuild one servable's live-host list (copy order) after a
        fleet event dropped it."""
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
        hosts = self._live_hosts.get(servable_name)
        if hosts is None:
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
        * ``on_settled(results)`` — observe completed
          :class:`RuntimeResult` items (frees dispatch slots, settles
          per-tenant in-flight accounting); always followed by
          ``on_tick``;
        * ``pending() -> int`` — work the ingress still holds; asked
          only when the loop has run out of wake-ups, which it refuses
          to treat as "drained" while this is non-zero.

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

    def detach_ingress(self) -> None:
        """Unhook the request source from the serve loop."""
        self._ingress = None

    # -- submission ---------------------------------------------------------------
    def submit(
        self, request: TaskRequest, enqueued_at: float | None = None
    ) -> QueuedMessage:
        """Enqueue one single-item request on its servable's topic.

        Tenant-tagged requests (admitted through a gateway) ride a
        per-tenant lane of the servable's topic; untagged requests keep
        the default lane. Lanes coalesce independently, so micro-batches
        never mix tenants. ``enqueued_at`` back-dates the queue entry —
        a gateway re-releasing work it reclaimed passes the original
        enqueue time so queue-wait metrics keep the request's true age.
        """
        if request.is_batch:
            raise ServingRuntimeError(
                "the runtime coalesces single-item requests; submit items "
                "individually instead of pre-formed batches"
            )
        name = request.servable_name
        entry = self._submit_lane.get((name, request.tenant))
        if entry is None:
            entry = self._track_lane(name, request.tenant)
        lane, topic = entry
        self._touch_lane(name, lane)
        # Gateway-less traffic gets its trace opened lazily at
        # settlement (or dead-letter), keyed off the message's enqueue
        # time — no per-request tracer work or live Trace object while
        # the request waits. Admitted requests already carry a trace
        # the gateway began (with admission/lane-wait spans on it).
        return self.queue.put(request, topic=topic, enqueued_at=enqueued_at)

    def _own_lane(self, name: str, tenant: str | None, lane: str) -> str:
        """Enter one lane of a placed servable into the topic tables;
        returns its topic."""
        topic = servable_topic(name, lane=lane)
        self._owned_topics[topic] = (name, lane)
        self._submit_lane[(name, tenant)] = (lane, topic)
        return topic

    def _track_lane(self, name: str, tenant: str | None) -> tuple[str, str]:
        """First submit onto a lane the tables do not know: start
        tracking it and return its ``(lane, topic)``."""
        # Reject unplaced servables at the door: once enqueued they would
        # poison the serve loop for every other topic.
        self.check_placed(name)
        lane = "requests" if tenant is None else f"tenant-{tenant}"
        lanes = self._lanes.setdefault(name, {"requests"})
        fresh = lane not in lanes
        if fresh:
            # Tenant churn pays for its own cleanup: tracking a new lane
            # first drops whatever lanes have idled out.
            self._collect_idle_lanes(self.clock.now())
            lanes.add(lane)
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
        return lane, topic

    def _on_dead_letter(self, message: QueuedMessage) -> None:
        """Close out the trace of a message that will never settle."""
        request = message.body
        trace = getattr(request, "trace", None)
        if trace is None:
            # Gateway-less requests trace lazily; open one here so the
            # drop is visible in the retained set (error => tail-keep).
            trace = self.tracer.begin(request, at=message.enqueued_at)
        now = self.clock.now()
        trace.mark("dead_letter", at=now, deliveries=message.deliveries)
        self.tracer.finish(trace, at=now, error=True)

    # -- tenant lane lifecycle ------------------------------------------------------
    def gc_lanes(self, now: float | None = None) -> int:
        """Drop tenant lanes that are empty, settled, and idle past TTL.

        A lane is collectable when its topic holds no ready messages,
        nothing claimed off it is still in flight (queued or parked on
        the pending list), and its last submit/claim activity is older
        than ``lane_idle_ttl_s``. The default ``"requests"`` lane is
        never collected. Returns the number of lanes dropped. Costs
        O(lanes idle past the TTL), however many are tracked.
        """
        return self._collect_idle_lanes(self.clock.now() if now is None else now)

    def _touch_lane(self, name: str, lane: str) -> None:
        """Stamp submit/claim activity on a tenant lane: restart its idle
        clock and move it to the young end of the idle order."""
        if lane == "requests":
            return
        key = (name, lane)
        self._lane_active[key] = self.clock.now()
        self._lane_active.move_to_end(key)

    def _collect_idle_lanes(self, now: float) -> int:
        """Walk lanes from the longest idle, dropping the collectable
        ones, and stop at the first lane still inside its TTL.

        O(lanes past the TTL): an idle-out lane that is still blocked —
        ready work, a parked batch, or a claim stranded in flight by a
        crashed consumer — is stepped over, so it neither goes nor
        shields the collectable lanes queued behind it.
        """
        collectable = []
        for (name, lane), active in self._lane_active.items():
            if now - active < self.lane_idle_ttl_s:
                break
            topic = servable_topic(name, lane=lane)
            if (
                self.queue.ready_count(topic)
                or topic in self._pending_by_topic
                or self.queue.inflight_count_for(topic)
            ):
                continue
            collectable.append((name, lane, topic))
        for name, lane, topic in collectable:
            self._lanes[name].discard(lane)
            del self._lane_active[(name, lane)]
            # A collected lane is empty and settled, so the indices hold
            # no live state for it — only drop it from the topic tables.
            del self._owned_topics[topic]
            self._submit_lane.pop((name, lane.removeprefix("tenant-")), None)
        self.lanes_collected += len(collectable)
        return len(collectable)

    def queue_depth(self, servable_name: str) -> int:
        """Ready requests for a servable across all of its queue lanes.

        O(1) for placed servables: the queue's ready-set listener keeps
        a per-servable counter current. Unplaced names fall back to the
        lane scan (they are outside the listener's visibility filter).
        """
        if servable_name in self._hosts:
            return self._ready_depth.get(servable_name, 0)
        return sum(
            self.queue.ready_count(servable_topic(servable_name, lane=lane))
            for lane in self._lanes.get(servable_name, {"requests"})
        )

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
        (e.g. the Management Service's ``sync`` lane), and an unowned
        topic must stay invisible to the dispatch scan exactly as it was
        under the linear implementation.
        """
        owned = self._owned_topics.get(topic)
        if owned is None:
            return
        name = owned[0]
        self._ready_depth[name] = self._ready_depth.get(name, 0) + delta
        self._dirty.add(topic)

    def _refresh_dirty(self, now: float) -> None:
        """Re-derive ``_win`` for every dirty topic and index the result.

        A changed window state is pushed onto the owning servable's due
        heap (already due) or future heap (flush deadline ahead); stale
        heap entries are invalidated lazily by comparing against
        ``_win`` on pop. An unchanged state pushes nothing — the entry
        already indexed is still the valid one.
        """
        if not self._dirty:
            return
        for topic in self._dirty:
            head = self.queue.oldest_ready(topic)
            owned = self._owned_topics.get(topic)
            if head is None or owned is None:
                # Drained — or collected with its last event unrefreshed.
                self._win.pop(topic, None)
                continue
            tag = getattr(head.body, "dispatch_tag", None)
            rank = (-math.inf) if tag is None else tag
            state = (rank, self._flush_due(topic, head))
            if self._win.get(topic) == state:
                continue
            self._win[topic] = state
            name = owned[0]
            if state[1] <= now + _EPS:
                heapq.heappush(
                    self._due.setdefault(name, []), (state[0], state[1], topic)
                )
            else:
                heapq.heappush(
                    self._future.setdefault(name, []), (state[1], topic)
                )
        self._dirty.clear()

    def _clean_window_heaps(self, name: str, now: float) -> None:
        """Drop stale tops and migrate newly due windows for ``name``.

        After this, the due heap's top (if any) is the servable's valid
        min-rank due window and the future heap's top its valid earliest
        future flush deadline.
        """
        due = self._due.get(name)
        future = self._future.get(name)
        while due:
            rank, flush_at, topic = due[0]
            if self._win.get(topic) != (rank, flush_at):
                heapq.heappop(due)
            elif flush_at > now + _EPS:
                # Only reachable if time ran backwards between calls
                # (tests may probe with arbitrary nows): demote.
                heapq.heappop(due)
                future = self._future.setdefault(name, [])
                heapq.heappush(future, (flush_at, topic))
            else:
                break
        while future:
            flush_at, topic = future[0]
            win = self._win.get(topic)
            if win is None or win[1] != flush_at:
                heapq.heappop(future)
            elif flush_at <= now + _EPS:
                heapq.heappop(future)
                heapq.heappush(
                    self._due.setdefault(name, []), (win[0], flush_at, topic)
                )
            else:
                break

    def _next_window(self, now: float) -> tuple[str | None, float]:
        """Returns ``(dispatchable_topic_or_None, earliest_future_event)``.

        Same contract and bit-for-bit the same answers as
        :meth:`_next_window_scan` (the retained reference
        implementation), but served from the incrementally maintained
        event indices: per call this touches the topics dirtied since
        the last call plus one heap peek per placed servable, instead of
        rescanning every tenant lane. See the scan's docstring for the
        arbitration semantics.
        """
        self._refresh_dirty(now)
        due: tuple[float, float, str] | None = None
        next_event = math.inf
        for name in self._hosts:
            self._clean_window_heaps(name, now)
            due_heap = self._due.get(name)
            future_heap = self._future.get(name)
            if not due_heap and not future_heap:
                continue
            worker, earliest_free = self._route(name, now)
            if worker is None and math.isinf(earliest_free):
                continue  # no live host: invisible until revival
            if due_heap:
                if worker is not None:
                    if due is None or due_heap[0] < due:
                        due = due_heap[0]
                else:
                    next_event = min(next_event, earliest_free)
            if future_heap:
                next_event = min(next_event, future_heap[0][0])
        return (due[2] if due else None), next_event

    def _next_window_scan(self, now: float) -> tuple[str | None, float]:
        """Returns ``(dispatchable_topic_or_None, earliest_future_event)``.

        The reference linear implementation of :meth:`_next_window`,
        retained for property tests (the index must agree with it on
        every randomized workload) and for measuring the index's win
        (``bench_dispatch_overhead``). O(servables x lanes) per call.

        A topic is dispatchable when its window is due *and* a live host
        is free. A due window whose hosts are all busy contributes the
        earliest host-free time to the future-event horizon; a topic with
        no live host at all is skipped (the work is not lost — a later
        serve() after mark_up/revive picks it up).

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
        next_event = math.inf
        for name in self._hosts:
            routed = False  # routing is per servable, not per lane
            worker, earliest_free = None, math.inf
            for lane in sorted(self._lanes.get(name, {"requests"})):
                topic = servable_topic(name, lane=lane)
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
                            due = rank
                    else:
                        next_event = min(next_event, earliest_free)
                else:
                    next_event = min(next_event, flush_at)
        return (due[2] if due else None), next_event

    def _split_batch(
        self,
        requests: list[TaskRequest],
        batch_result: TaskResult,
        worker: TaskManager,
    ) -> list[TaskResult]:
        """Fan a batch TaskResult back out to per-item results.

        Memo-hit items keep their per-item identity (``cache_hit=True``,
        zero inference). Dispatched misses are attributed their replica
        chunk's inference share (``chunk.inference_time / chunk items``)
        when the executor reported chunk metadata, falling back to an
        equal split of the batch's inference otherwise (items of one
        servable cost the same per the calibrated model).
        ``invocation_time`` is the whole batch's trip — items in a batch
        complete together.

        Failure recovery is per chunk: a batch whose chunks partially
        failed settles surviving chunks and memo hits normally and
        FAILs only the dead chunk's items. A batch that failed before
        any chunk dispatched (routing error, no ready pods, every chunk
        dead) dooms all misses, while memo-hit items are re-served as
        single requests (a ~1 ms cache hit at the worker).
        """
        hit_set = set(batch_result.batch_hits)
        if not batch_result.ok and not batch_result.batch_chunks:
            # Pre-dispatch (or total) failure: only memo hits survive.
            return [
                worker.process(req)
                if i in hit_set
                else TaskResult(
                    task_uuid=req.task_uuid,
                    status=TaskStatus.FAILED,
                    error=batch_result.error,
                    invocation_time=batch_result.invocation_time,
                )
                for i, req in enumerate(requests)
            ]
        shares: dict[int, float] = {}
        chunk_errors: dict[int, str] = {}
        for chunk in batch_result.batch_chunks:
            if chunk.error is not None:
                for i in chunk.items:
                    chunk_errors[i] = chunk.error
                continue
            per_item = chunk.inference_time / len(chunk.items) if chunk.items else 0.0
            for i in chunk.items:
                shares[i] = per_item
        if not batch_result.batch_chunks:
            # Executor without chunk metadata: equal split, as before.
            n_misses = len(requests) - len(hit_set)
            equal = batch_result.inference_time / n_misses if n_misses else 0.0
            shares = {
                i: equal for i in range(len(requests)) if i not in hit_set
            }
        values = batch_result.value or [None] * len(requests)
        results = []
        for i, req in enumerate(requests):
            if i in chunk_errors:
                results.append(
                    TaskResult(
                        task_uuid=req.task_uuid,
                        status=TaskStatus.FAILED,
                        error=chunk_errors[i],
                        invocation_time=batch_result.invocation_time,
                    )
                )
                continue
            results.append(
                TaskResult(
                    task_uuid=req.task_uuid,
                    status=TaskStatus.SUCCEEDED,
                    value=values[i],
                    inference_time=0.0 if i in hit_set else shares.get(i, 0.0),
                    invocation_time=batch_result.invocation_time,
                    cache_hit=i in hit_set,
                )
            )
        return results

    def _dispatch_topic(self, topic: str) -> None:
        """Claim a micro-batch off ``topic`` and dispatch it to a free host.

        The batch's processing runs on the chosen worker's timeline: for
        a shared-clock worker that advances global time (serial), for an
        own-clock worker only the worker's clock moves and the finished
        batch parks on the pending list until global time reaches its
        completion.
        """
        head = self.queue.oldest_ready(topic)
        assert head is not None
        servable_name = head.body.servable_name
        now = self.clock.now()
        # Claiming is lane activity: an active tenant's lane never GCs.
        self._touch_lane(servable_name, self._owned_topics[topic][1])
        # Resolve routing before claiming so a routing failure leaves the
        # messages ready (not stranded in flight awaiting expiry).
        worker, _ = self._route(servable_name, now)
        if worker is None:
            raise ServingRuntimeError(
                f"no free live worker hosts servable {servable_name!r}"
            )
        messages = self.queue.claim_many(topic, self.max_batch_size)
        if self.chaos is not None:
            self.chaos.trip("post_claim")
        requests: list[TaskRequest] = [m.body for m in messages]
        for message in messages:
            # Anchored on the *enqueue* time so windowed reads answer
            # "how long did requests arriving during phase X wait".
            self.stage_metrics.record(
                "queue_wait",
                servable_name,
                now - message.enqueued_at,
                at=message.enqueued_at,
            )
        # How long the window was held open: the head waited longest.
        self.stage_metrics.record(
            "coalesce_delay", servable_name, now - messages[0].enqueued_at
        )

        # Sync a lagging concurrent worker forward to global time: its
        # idle gap is skipped, and from here its clock is the batch's
        # timeline.
        if worker.clock is not self.clock and worker.clock.now() < now:
            worker.clock.advance_to(now)
        dispatch_start = worker.clock.now()
        if len(requests) == 1:
            batch_result = worker.process(requests[0])
        else:
            # A coalesced batch may mix identities/tenants; the envelope
            # carries the head's tags, while per-item attribution rides
            # the original requests (returned in each RuntimeResult).
            batch_request = TaskRequest(
                servable_name=servable_name,
                batch=[(req.args, req.kwargs) for req in requests],
                identity_id=requests[0].identity_id,
                tenant=requests[0].tenant,
            )
            batch_result = worker.process(batch_request)
        # Stage timing is captured before any failure-recovery re-serves
        # in _split_batch — those are neither dispatch nor inference.
        elapsed = worker.clock.now() - dispatch_start
        self.stage_metrics.record(
            "dispatch",
            servable_name,
            max(0.0, elapsed - batch_result.inference_time),
        )
        self.stage_metrics.record(
            "inference", servable_name, batch_result.inference_time
        )
        # Per-pod utilization: each surviving replica chunk's busy time
        # lands on its pod's gauge, so the replica autoscaler can see
        # chunk imbalance instead of only the aggregate inference rate.
        for chunk in batch_result.batch_chunks:
            if chunk.ok:
                self.stage_metrics.record_pod_share(
                    servable_name, f"{worker.name}/{chunk.pod}", chunk.inference_time
                )
        if len(requests) == 1:
            item_results = [batch_result]
        else:
            item_results = self._split_batch(requests, batch_result, worker)
        if self.chaos is not None:
            self.chaos.trip("mid_batch")
        self.queue.ack(*[message.delivery_tag for message in messages])

        self.batches_dispatched += 1
        self.items_served += len(requests)
        if len(requests) == 1:
            self.memo_hits += int(batch_result.cache_hit)
        else:
            self.memo_hits += batch_result.batch_cache_hits
        seq = next(self._seq)
        trace_ctx = None
        if self.tracer is not None:
            # Tracing adds nothing per-member here: stash the batch's
            # timings once and record spans at settlement, where each
            # member's trace has to be touched anyway.
            infer_start = dispatch_start + max(
                0.0, elapsed - batch_result.inference_time
            )
            chunks = batch_result.batch_chunks
            if len(chunks) == 1:
                pods, only_pod = None, chunks[0].pod
            else:
                pods = {i: c.pod for c in chunks for i in c.items}
                only_pod = None
            trace_ctx = (
                now,
                dispatch_start,
                infer_start,
                batch_result.inference_time,
                pods,
                only_pod,
                messages[0].enqueued_at,
            )
        self._pending_by_topic[topic] = self._pending_by_topic.get(topic, 0) + 1
        completed_at = worker.clock.now()
        heapq.heappush(
            self._pending,
            (
                completed_at,
                seq,
                _PendingBatch(
                    completed_at=completed_at,
                    seq=seq,
                    worker_name=worker.name,
                    messages=messages,
                    requests=requests,
                    results=item_results,
                    trace_ctx=trace_ctx,
                ),
            ),
        )
        # Only an earlier completion moves the settle timer; a later one
        # waits its turn behind the top.
        self.timers.reschedule(self._settle_timer, self._pending[0][0])

    def _settle_traces(self, batch: _PendingBatch, now: float) -> None:
        """Record every traced member's span tree and finish it.

        All spans are complete at record time: ``dispatch_window`` is
        exactly the request's queue-wait sample, ``coalesce`` the
        window hold anchored on the batch head (deduplicable by the
        ``batch`` attr — it is one per-batch quantity fanned onto each
        member), ``dispatch`` the pre-inference overhead on the
        worker's timeline, ``inference`` the item's attributed share,
        with the whole batch's concurrent-region inference carried in
        ``batch_inference_s``, and ``settle`` the gap between the
        worker finishing and the serve loop noticing. Memo hits get a
        zero-width ``cache`` span instead of ``inference``;
        chunk-failed items get an error-status ``inference`` span,
        which tail-keep retention latches onto.
        """
        tracer = self.tracer
        (
            claimed_at,
            dispatch_start,
            infer_start,
            batch_inference_s,
            pods,
            only_pod,
            head_enqueued,
        ) = batch.trace_ctx
        completed = batch.completed_at
        settle_end = now if now > completed else completed
        seq = batch.seq
        batch_size = len(batch.requests)
        worker_name = batch.worker_name
        for i, (message, request, result) in enumerate(
            zip(batch.messages, batch.requests, batch.results)
        ):
            member = MemberRecord(
                message.enqueued_at,
                claimed_at,
                head_enqueued,
                dispatch_start,
                infer_start,
                infer_start + result.inference_time,
                completed,
                settle_end,
                seq,
                batch_size,
                worker_name,
                only_pod if pods is None else pods.get(i),
                batch_inference_s,
                "ok" if result.ok else "error",
                result.error,
                result.cache_hit,
            )
            trace = request.trace
            if trace is None:
                # Gateway-less traffic: the retention decision runs
                # before any Trace exists — dropped requests never
                # allocate one (see Tracer.settle_request).
                tracer.settle_request(request, member)
            else:
                tracer.settle_member(trace, member)

    def _settle(
        self, now: float, arrival_times: dict[str, float]
    ) -> list[RuntimeResult]:
        """Emit results for dispatched batches whose completion time has
        been reached by the global clock, in ``(completed_at, seq)``
        order — the order the pending heap pops them in."""
        pending = self._pending
        horizon = now + _EPS
        done: list[_PendingBatch] = []
        while pending and pending[0][0] <= horizon:
            batch = heapq.heappop(pending)[2]
            done.append(batch)
            topic = batch.messages[0].topic
            left = self._pending_by_topic[topic] - 1
            if left:
                self._pending_by_topic[topic] = left
            else:
                del self._pending_by_topic[topic]
        # The settle timer follows the heap's top whatever happened here
        # — also after a pass that was cut short between the timer
        # firing and this call.
        if pending:
            self.timers.reschedule(self._settle_timer, pending[0][0])
        else:
            self._settle_timer.cancel()
        if not done:
            return []
        if self.chaos is not None:
            self.chaos.trip("pre_settle")
        results: list[RuntimeResult] = []
        for batch in done:
            results.extend(
                RuntimeResult(
                    request=req,
                    result=res,
                    worker=batch.worker_name,
                    batch_size=len(batch.requests),
                    arrival_time=arrival_times.get(req.task_uuid, msg.enqueued_at),
                    enqueued_at=msg.enqueued_at,
                    completed_at=batch.completed_at,
                )
                for msg, req, res in zip(batch.messages, batch.requests, batch.results)
            )
            if batch.trace_ctx is not None and self.tracer is not None:
                self._settle_traces(batch, now)
        return results

    def serve(
        self, arrivals: list[tuple[float, TaskRequest]] | None = None
    ) -> list[RuntimeResult]:
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
        load. Runs until the schedule, the queue, and the in-flight
        batches are drained; expired in-flight messages are redelivered
        along the way.

        **A wake-up costs what is due, not what exists.** Every source
        of a future wake-up keeps its next due time on :attr:`timers`;
        the loop sleeps to the earliest, collects every timer due at
        that instant, and runs only the phases that have a due timer or
        were raised by an event (a dirty topic, a fleet change, a
        dispatch) — always in the same order: expire → controllers →
        lane GC → settle → ingress → arrivals → dispatch, and again
        from the top after each dispatch. Conditions that are not
        wake-up sources (lane GC's sweep, a worker warming up) are O(1)
        guards checked on whatever wake-up comes next. The contract is
        spelled out in docs/ARCHITECTURE.md, "The serve loop's
        contract".
        """
        clock = self.clock
        queue = self.queue
        timers = self.timers
        start = clock.now()
        schedule = sorted(
            ((start + offset, request) for offset, request in arrivals or []),
            key=lambda pair: pair[0],
        )
        arrival_times: dict[str, float] = {}
        results: list[RuntimeResult] = []
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
        stalled_wakeups = 0
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
            if now >= self._next_lane_gc:
                # Amortized: one full lane sweep per half-TTL keeps the
                # per-servable topic scan bounded by *active* tenants.
                self.gc_lanes(now)
                self._next_lane_gc = now + self.lane_idle_ttl_s / 2
            if now + _EPS >= self._next_warm:
                self._warmed(now)
            # From here on anything raised is for the next pass: a phase
            # that raises one behind itself re-enters the loop below.
            raised = self._raised
            self._raised = 0
            settled = None
            if raised & _SETTLE:
                settled = self._settle(now, arrival_times)
                results.extend(settled)
            ingress = self._ingress
            if ingress is not None and (settled or raised & _INGRESS):
                if settled:
                    ingress.on_settled(settled)
                ingress.on_tick(now)
            if raised & _ARRIVALS:
                while i < len(schedule) and schedule[i][0] <= now + _EPS:
                    intended, request = schedule[i]
                    i += 1
                    arrival_times[request.task_uuid] = intended
                    self.submit(request)
                if i < len(schedule):
                    timers.reschedule(self._arrival_timer, schedule[i][0])
            if self._dirty or raised & _DISPATCH:
                due_topic, window_wake = self._next_window(now)
                if due_topic is not None:
                    stalled_wakeups = 0
                    self._dispatch_topic(due_topic)
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
                # No data-plane wake-up is left, and controller timers
                # alone do not keep a drained loop running.
                if ingress is None or not ingress.pending():
                    return results
                # Lanes hold work but no data-plane event will wake the
                # loop. An attached controller may still heal the cause
                # (e.g. migrate off a crashed sole host) at its next
                # reconcile — sleep to it and retry, a bounded number of
                # times so an unhealable fleet fails loud instead of
                # reconciling forever.
                if wake is None or stalled_wakeups >= 64:
                    # No controller, or it had its chances: a throttle/
                    # placement bug — fail loud rather than silently
                    # dropping admitted requests.
                    raise ServingRuntimeError(
                        f"ingress holds {ingress.pending()} pending "
                        "request(s) but reports no next event"
                    )
                stalled_wakeups += 1
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

    def drain(self) -> list[RuntimeResult]:
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
