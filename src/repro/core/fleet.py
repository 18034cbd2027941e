"""Fleet control plane: autoscaling, health, and placement rebalancing.

The paper's scalability experiment (SS V-B4, Fig. 7) shows throughput
scaling with added capacity up to a dispatch-bound knee — but DLHub
proper serves a *static* fleet. This module closes the loop the paper
leaves open: a :class:`FleetController` runs a reconciliation loop on
the shared virtual clock, sampling per-topic queue depth
(:meth:`TaskQueue.enqueued_count` deltas give arrival rates) and recent
queue-wait percentiles (:meth:`StageLatencyCollector.samples_since`),
and drives three actuators on the :class:`ServingRuntime` data plane:

* **worker scaling** — provision new Task Managers (charging the
  container cold-start cost from :mod:`repro.containers` to the new
  worker's clock) and drain/retire idle ones;
* **replica scaling** — apply the Fig. 7 :class:`Autoscaler` cost model
  to live per-servable-per-host traffic;
* **placement rebalancing** — re-shard hot servables onto more copies
  and migrate placements off down or draining workers, so every placed
  servable keeps at least one routable copy.

Scaling *policy* is pluggable (:class:`FleetPolicy`):
:class:`TargetUtilizationPolicy` keeps copy utilization near a setpoint,
:class:`QueueLatencySLOPolicy` sizes the fleet to a queue-wait SLO.
Every actuation appends a :class:`FleetEvent`, giving benchmarks and
operators an audit log of what the control plane did and when.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.containers.image import BASE_IMAGE_SIZES
from repro.containers.runtime import cold_start_cost_s
from repro.core.adaptive import (
    ArrivalForecaster,
    Autoscaler,
    Forecast,
    ProfileError,
    per_copy_capacity_rps,
)
from repro.core.runtime import ServingRuntime
from repro.core.task_manager import TaskManager, TaskManagerError
from repro.messaging.queue import servable_topic

__all__ = [
    "FleetController",
    "FleetControllerError",
    "FleetEvent",
    "FleetObservation",
    "FleetPlan",
    "FleetPolicy",
    "PredictiveScaling",
    "QueueLatencySLOPolicy",
    "ServableDemand",
    "TargetUtilizationPolicy",
    "WorkerHealth",
    "per_copy_capacity_rps",
]


class FleetControllerError(RuntimeError):
    """Raised on invalid controller configuration or actuation."""


#: Image a freshly provisioned Task Manager must pull before joining
#: (120 MB -> ~1.81 s provisioning cold start).
WORKER_IMAGE_BYTES = BASE_IMAGE_SIZES["dlhub/base:latest"]
#: Capacity derate on the windowed ``pod_imbalance`` gauge: a
#: max-over-mean chunk imbalance above the threshold divides a
#: servable's planned ``per_copy_capacity_rps`` by the imbalance, capped
#: so one pathological window cannot shrink planned capacity without
#: bound.
IMBALANCE_DERATE_THRESHOLD = 1.25
IMBALANCE_DERATE_CAP = 2.0
#: Reconcile intervals the derate stays suspended after any topology
#: change (worker or replica scale, migration, drain): freshly placed
#: pods serve their first chunks cold and lopsided, and de-rating on
#: that transient makes the controller hold spike capacity through the
#: drain. One interval for the transient chunks to land, one for the
#: windowed gauge to flush them.
IMBALANCE_SETTLE_INTERVALS = 2


# ---------------------------------------------------------------------------
# Observability types
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FleetEvent:
    """One control-plane actuation, timestamped on the virtual clock."""

    time: float
    kind: str
    subject: str
    detail: dict = field(default_factory=dict)


@dataclass
class WorkerHealth:
    """Liveness bookkeeping for one worker.

    ``last_active`` advances whenever the worker's claim activity
    (``tasks_processed``) moves between reconciles; quiet workers are
    probed explicitly. Status is one of ``healthy``/``draining``/``down``.
    """

    name: str
    status: str
    last_active: float
    tasks_processed: int


@dataclass(frozen=True)
class ServableDemand:
    """One servable's live traffic picture at observation time."""

    name: str
    queue_depth: int
    arrival_rate_rps: float
    live_copies: int
    per_copy_capacity_rps: float
    #: p95 of queue-wait samples recorded since the previous observation
    #: (None when no new samples landed).
    recent_p95_queue_wait_s: float | None
    #: Tenant-weight-adjusted arrival rate (only when a serving gateway
    #: feeds the controller): each tenant's rate is scaled by its fair
    #: weight relative to the mean, so a heavy-weight tenant's traffic
    #: pulls capacity harder than the same volume from a light tenant.
    weighted_arrival_rate_rps: float | None = None
    #: Per-tenant EWMA arrival rates behind the weighted figure.
    tenant_rates: tuple[tuple[str, float], ...] = ()

    @property
    def effective_rate_rps(self) -> float:
        """What policies should plan on: the weighted rate when tenancy
        is known, the raw rate otherwise."""
        if self.weighted_arrival_rate_rps is not None:
            return self.weighted_arrival_rate_rps
        return self.arrival_rate_rps


@dataclass(frozen=True)
class FleetObservation:
    """What a :class:`FleetPolicy` plans from."""

    time: float
    routable_workers: int
    draining_workers: int
    min_workers: int
    max_workers: int
    demands: tuple[ServableDemand, ...]
    #: SLO burn-rate breaches (:class:`repro.core.telemetry.SLOBreach`)
    #: that fired since the previous observation, when the controller
    #: has an attached :class:`~repro.core.telemetry.SLOBurnMonitor` —
    #: the trigger rollback/canary policies plan from. Empty otherwise.
    slo_burns: tuple = ()
    #: Currently *firing* alerts (:class:`repro.core.obsloop.Alert`)
    #: from an attached :class:`~repro.core.obsloop.AlertEngine` — what
    #: :class:`~repro.core.obsloop.ReactiveSLOPolicy` classifies and
    #: reacts to. Empty without an engine.
    alerts: tuple = ()


@dataclass(frozen=True)
class FleetPlan:
    """Desired state a policy hands back to the controller."""

    target_workers: int
    copies: dict[str, int]


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
class FleetPolicy:
    """Maps a :class:`FleetObservation` to a :class:`FleetPlan`.

    Subclasses implement ``plan(observation)``. Scenarios plug in their
    own controllers by subclassing; the two built-ins cover the common
    cases (utilization setpoint, latency SLO).
    """

    name = "base"

    @staticmethod
    def _fleet_size(copies: dict[str, int], observation: FleetObservation) -> int:
        """Workers needed to host the widest placement, within bounds."""
        widest = max(copies.values(), default=1)
        return min(max(widest, observation.min_workers), observation.max_workers)


class TargetUtilizationPolicy(FleetPolicy):
    """Keep each servable's copy utilization near a setpoint.

    Demand pressure is the arrival rate plus the backlog drained over
    ``backlog_horizon_s``; desired copies put that pressure at
    ``target_utilization`` of the copies' combined capacity. Scale-down
    is hysteretic and gradual: copies shrink one step per reconcile, and
    only when the remaining copies would still sit below
    ``scale_down_utilization``.
    """

    name = "target-utilization"

    def __init__(
        self,
        target_utilization: float = 0.65,
        scale_down_utilization: float = 0.30,
        backlog_horizon_s: float = 0.5,
    ) -> None:
        if not 0 < target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1]")
        if not 0 <= scale_down_utilization < target_utilization:
            raise ValueError(
                "scale_down_utilization must be in [0, target_utilization)"
            )
        if backlog_horizon_s <= 0:
            raise ValueError("backlog_horizon_s must be > 0")
        self.target_utilization = target_utilization
        self.scale_down_utilization = scale_down_utilization
        self.backlog_horizon_s = backlog_horizon_s

    def plan(self, observation: FleetObservation) -> FleetPlan:
        """Derive the desired fleet state from one observation."""
        copies: dict[str, int] = {}
        for demand in observation.demands:
            pressure = (
                demand.effective_rate_rps
                + demand.queue_depth / self.backlog_horizon_s
            )
            desired = max(
                1,
                math.ceil(
                    pressure
                    / (self.target_utilization * demand.per_copy_capacity_rps)
                ),
            )
            if desired < demand.live_copies:
                remaining = max(demand.live_copies - 1, 1)
                if (
                    pressure
                    > self.scale_down_utilization
                    * remaining
                    * demand.per_copy_capacity_rps
                ):
                    desired = demand.live_copies
                else:
                    desired = remaining
            copies[demand.name] = min(desired, observation.max_workers)
        return FleetPlan(
            target_workers=self._fleet_size(copies, observation), copies=copies
        )


class QueueLatencySLOPolicy(FleetPolicy):
    """Size the fleet so queue wait stays under an SLO.

    Copies must (a) absorb the arrival rate and (b) drain the current
    backlog within ``slo_s``, both at ``safety`` de-rated capacity; a
    recent p95 above the SLO forces one exploratory copy. Scale-down
    only happens when the recent p95 sits comfortably (4x) under the SLO
    and the arrival rate fits the smaller fleet.
    """

    name = "queue-latency-slo"

    def __init__(self, slo_s: float = 0.050, safety: float = 0.8) -> None:
        if slo_s <= 0:
            raise ValueError("slo_s must be > 0")
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        self.slo_s = slo_s
        self.safety = safety

    def plan(self, observation: FleetObservation) -> FleetPlan:
        """Derive the desired fleet state from one observation."""
        copies: dict[str, int] = {}
        for demand in observation.demands:
            capacity = self.safety * demand.per_copy_capacity_rps
            rate_floor = max(1, math.ceil(demand.effective_rate_rps / capacity))
            backlog_floor = (
                math.ceil(demand.queue_depth / (self.slo_s * capacity))
                if demand.queue_depth
                else 1
            )
            desired = max(1, rate_floor, backlog_floor)
            p95 = demand.recent_p95_queue_wait_s
            if p95 is not None and p95 > self.slo_s:
                desired = max(desired, demand.live_copies + 1)
            if desired < demand.live_copies:
                # Comfortable means the observed tail sits well under the
                # SLO — or the servable is fully idle (no new samples, an
                # empty queue is trivially within any SLO).
                comfortable = (
                    p95 < self.slo_s / 4
                    if p95 is not None
                    else demand.queue_depth == 0
                )
                if comfortable:
                    desired = max(desired, demand.live_copies - 1)
                else:
                    desired = demand.live_copies
            copies[demand.name] = min(desired, observation.max_workers)
        return FleetPlan(
            target_workers=self._fleet_size(copies, observation), copies=copies
        )


class PredictiveScaling(FleetPolicy):
    """Plan against *forecast* demand so capacity lands before the spike.

    Reactive policies see a spike only after it arrives, which means
    every scale-up pays the full provisioning cold start (~2 s for the
    default worker image) while the backlog compounds. This policy
    wraps any base policy and feeds it demand projected one
    *provisioning lead time* ahead: each reconcile it

    1. feeds the observation's per-servable effective arrival rate into
       an :class:`~repro.core.adaptive.ArrivalForecaster` (Holt
       trend),
    2. projects the rate at ``observation.time + lead_time_s``, and
    3. re-plans the observation with each demand's rate raised to
       ``max(current, forecast)`` before delegating to the base policy.

    The ``max`` keeps the policy conservative: flat traffic forecasts
    flat (no over-provisioning versus the base policy), while a rising
    edge extrapolates ahead of the EWMA so workers are provisioned one
    or more reconciles earlier — enough to hide most of the cold start.
    Scale-*down* decisions are untouched: a decaying forecast below the
    current rate defers to the base policy's own hysteresis.

    Parameters
    ----------
    base:
        The reactive policy to wrap (default
        :class:`TargetUtilizationPolicy`).
    forecaster:
        The projection engine (default ``ArrivalForecaster()``); pass
        one to tune ``alpha`` / ``beta``.
    lead_time_s:
        How far ahead to project. Defaults to the provisioning cold
        start of :data:`WORKER_IMAGE_BYTES` plus
        ``reconcile_interval_s`` — the soonest newly ordered capacity
        could possibly serve.
    """

    name = "predictive"

    def __init__(
        self,
        base: FleetPolicy | None = None,
        forecaster: ArrivalForecaster | None = None,
        lead_time_s: float | None = None,
        reconcile_interval_s: float = 0.25,
    ) -> None:
        if lead_time_s is None:
            lead_time_s = cold_start_cost_s(WORKER_IMAGE_BYTES) + reconcile_interval_s
        if lead_time_s <= 0:
            raise ValueError("lead_time_s must be > 0")
        self.base = base or TargetUtilizationPolicy()
        self.forecaster = forecaster or ArrivalForecaster()
        self.lead_time_s = lead_time_s
        #: Most recent per-servable projections (read by the controller
        #: for ``demand_forecast`` events).
        self.last_forecasts: dict[str, Forecast] = {}
        #: Rates the base policy actually planned on —
        #: ``max(current, forecast)`` — also used for replica sizing.
        self.last_planning_rates: dict[str, float] = {}

    def plan(self, observation: FleetObservation) -> FleetPlan:
        """Feed the forecaster, project ahead, and delegate to ``base``."""
        self.last_forecasts = {}
        self.last_planning_rates = {}
        projected = []
        for demand in observation.demands:
            rate = demand.effective_rate_rps
            self.forecaster.observe(demand.name, observation.time, rate)
            forecast = self.forecaster.forecast(
                demand.name, observation.time + self.lead_time_s
            )
            planning_rate = max(rate, forecast.rate_rps)
            self.last_forecasts[demand.name] = forecast
            self.last_planning_rates[demand.name] = planning_rate
            projected.append(
                replace(
                    demand,
                    arrival_rate_rps=planning_rate,
                    # effective_rate_rps prefers the weighted figure, so
                    # the boost must land there when tenancy is known.
                    weighted_arrival_rate_rps=(
                        planning_rate
                        if demand.weighted_arrival_rate_rps is not None
                        else None
                    ),
                )
            )
        return self.base.plan(replace(observation, demands=tuple(projected)))


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------
class FleetController:
    """Reconciliation loop turning the static serving fleet elastic.

    Attach to a :class:`ServingRuntime` (done automatically on
    construction); the serve loop then keeps a timer at
    :meth:`next_wakeup` and calls :meth:`on_tick` when it is due, so
    reconciles fire every ``interval_s`` of virtual time while traffic
    flows. The controller
    also runs standalone: advance the clock and call :meth:`reconcile`
    directly (benchmarks use this to cool the fleet down after a spike).

    New workers pull :data:`WORKER_IMAGE_BYTES` before joining (the
    provisioning cold start) and are named ``fleet-w<n>``. When sizing
    demand the controller always consumes the windowed ``pod_imbalance``
    gauge: a max-over-mean chunk imbalance above
    :data:`IMBALANCE_DERATE_THRESHOLD` divides the servable's
    ``per_copy_capacity_rps`` by the imbalance (capped at
    :data:`IMBALANCE_DERATE_CAP`), so replica/copy sizing plans on what
    the straggler pod actually delivers instead of assuming perfect
    sharding. Windows inside the ``2 * interval_s`` transient after any
    topology change (provision, drain, retire, copy add/remove, replica
    scale, migration) are excluded — a derate without that settle
    period reads scale-up transients as stragglers and holds spike
    workers through the drain.

    Parameters
    ----------
    runtime:
        The data plane to control.
    provision_worker:
        Factory ``name -> TaskManager`` for new workers (e.g.
        ``testbed.add_fleet_worker``). Without it, worker scaling is
        disabled and the controller only rebalances/heals the fixed
        fleet.
    policy:
        A :class:`FleetPolicy`; defaults to :class:`TargetUtilizationPolicy`.
    interval_s:
        Reconcile period on the virtual clock.
    min_workers / max_workers:
        Bounds on the routable fleet size.
    autoscale_replicas:
        Apply the Fig. 7 :class:`Autoscaler` to each hosted copy's
        deployment (pod scale-ups start replicas concurrently and charge
        the max cold start to the worker's clock).
    max_replicas_per_host:
        Cap handed to each per-worker :class:`Autoscaler`.
    gateway:
        Optional serving gateway fronting the runtime. When given, the
        controller reads demand from the gateway's *admitted* arrival
        counters (the WFQ throttle sits between lanes and the queue, so
        topic enqueue counts undercount offered load), adds lane-held
        backlog to queue depth, and computes tenant-weight-adjusted
        rates so scale-up respects tenant weights.
    slo_monitor:
        Optional :class:`~repro.core.telemetry.SLOBurnMonitor` (shared
        with the gateway that feeds it). Each reconcile checks it and
        drains fresh breaches into ``slo_burn`` events and the
        observation's ``slo_burns`` tuple, giving policies a rollback /
        canary trigger.
    alert_engine:
        Optional :class:`~repro.core.obsloop.AlertEngine` evaluated by
        an :class:`~repro.core.obsloop.ObservabilityLoop` at the scrape
        cadence. Each reconcile drains its lifecycle transitions into
        ``alert_pending`` / ``alert_firing`` / ``alert_resolved``
        events and exposes the firing set as ``observation.alerts`` —
        what :class:`~repro.core.obsloop.ReactiveSLOPolicy` reacts to.
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        provision_worker: Callable[[str], TaskManager] | None = None,
        policy: FleetPolicy | None = None,
        interval_s: float = 0.25,
        min_workers: int = 1,
        max_workers: int = 8,
        autoscale_replicas: bool = True,
        max_replicas_per_host: int = 8,
        ewma_alpha: float = 0.5,
        gateway=None,
        slo_monitor=None,
        alert_engine=None,
    ) -> None:
        if interval_s <= 0:
            raise FleetControllerError("interval_s must be > 0")
        if not 1 <= min_workers <= max_workers:
            raise FleetControllerError("need 1 <= min_workers <= max_workers")
        if not 0 < ewma_alpha <= 1:
            raise FleetControllerError("ewma_alpha must be in (0, 1]")
        self.runtime = runtime
        self.provision_worker = provision_worker
        self.policy = policy or TargetUtilizationPolicy()
        self.interval_s = interval_s
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.autoscale_replicas = autoscale_replicas
        self.max_replicas_per_host = max_replicas_per_host
        self.ewma_alpha = ewma_alpha
        self.gateway = gateway
        #: Optional :class:`~repro.core.telemetry.SLOBurnMonitor` (fed
        #: by the gateway): each reconcile checks it and drains fresh
        #: breaches into ``slo_burn`` events + the observation handed to
        #: the policy.
        self.slo_monitor = slo_monitor
        #: Optional :class:`~repro.core.obsloop.AlertEngine` (evaluated
        #: by an :class:`~repro.core.obsloop.ObservabilityLoop` at the
        #: scrape cadence): each reconcile drains its lifecycle
        #: transitions into ``alert_pending`` / ``alert_firing`` /
        #: ``alert_resolved`` events and exposes the firing set on the
        #: observation for reactive policies.
        self.alert_engine = alert_engine
        self._last_scale_at = -math.inf

        self.events: list[FleetEvent] = []
        self.health: dict[str, WorkerHealth] = {}
        self.reconciles = 0
        self.peak_routable_workers = len(runtime.alive_workers())

        self._rates: dict[str, float] = {}
        self._enqueued_seen: dict[str, int] = {}
        self._tenant_rates: dict[tuple[str, str], float] = {}
        self._tenant_seen: dict[tuple[str, str], int] = {}
        self._wait_cursor: dict[str, int] = {}
        self._last_sample_at: float | None = None
        self._draining: set[str] = set()
        self._downed: set[str] = set()
        self._provisioned: set[str] = set()
        self._autoscalers: dict[tuple[str, str], Autoscaler] = {}
        #: Last-seen cumulative per-pod busy totals, so replica-scaling
        #: events report imbalance over the *recent* window rather than
        #: a since-start ratio an early straggler would skew forever.
        self._pod_busy_seen: dict[tuple[str, str], float] = {}
        #: Separate cursor for the capacity-derate gauge: the derate
        #: windows over reconciles, the replica-event window over scale
        #: events — consuming one gauge from two cadences through a
        #: shared cursor would blind whichever reads second.
        self._derate_busy_seen: dict[tuple[str, str], float] = {}
        self._names = itertools.count(1)
        self._next_at = runtime.clock.now()
        runtime.attach_controller(self)

    # -- serve-loop hooks ---------------------------------------------------------
    def next_wakeup(self) -> float:
        """Virtual time of the next scheduled reconcile."""
        return self._next_at

    def on_tick(self) -> None:
        """Reconcile iff the interval has elapsed (serve-loop hook)."""
        if self.runtime.clock.now() + 1e-12 >= self._next_at:
            self.reconcile()

    # -- event log ----------------------------------------------------------------
    def events_of(self, *kinds: str) -> list[FleetEvent]:
        """Events whose kind is one of ``kinds``, in log order."""
        return [e for e in self.events if e.kind in kinds]

    #: Event kinds that change serving topology: each marks the start of
    #: an imbalance transient (cold pods, shifting chunk layouts) the
    #: capacity derate must sit out (see ``IMBALANCE_SETTLE_INTERVALS``).
    _SCALE_EVENT_KINDS = frozenset(
        {
            "worker_provisioned",
            "worker_undrained",
            "worker_draining",
            "worker_retired",
            "worker_down",
            "worker_revived",
            "copy_added",
            "copy_removed",
            "replicas_scaled",
            "servable_migrated",
        }
    )

    def _record(self, kind: str, subject: str, **detail) -> None:
        if kind in self._SCALE_EVENT_KINDS:
            self._last_scale_at = self.runtime.clock.now()
        self.events.append(
            FleetEvent(
                time=self.runtime.clock.now(),
                kind=kind,
                subject=subject,
                detail=detail,
            )
        )

    # -- observation --------------------------------------------------------------
    def _ewma_rate(
        self,
        seen: dict,
        rates: dict,
        key,
        total: int,
        dt: float | None,
    ) -> float:
        """EWMA arrival-rate update from a monotonic counter sample.

        First sight baselines the counter with no interval to rate over;
        a zero-length interval (back-to-back samples) leaves the counter
        unconsumed so the delta lands in the next real interval instead
        of vanishing from the estimator.
        """
        if key not in seen:
            seen[key] = total
            rate = rates.get(key, 0.0)
        elif dt:
            instant = max(total - seen[key], 0) / dt
            seen[key] = total
            rate = (
                self.ewma_alpha * instant
                + (1 - self.ewma_alpha) * rates.get(key, instant)
            )
        else:
            rate = rates.get(key, 0.0)
        rates[key] = rate
        return rate

    def observe(self, now: float | None = None) -> FleetObservation:
        """Sample the data plane (advances the rate-estimator state)."""
        now = self.runtime.clock.now() if now is None else now
        dt = (
            None
            if self._last_sample_at is None
            else max(now - self._last_sample_at, 0.0)
        )
        # detlint: allow[HOT001] — reconcile-cadence, O(alive workers); not per-dispatch
        alive = {w.name for w in self.runtime.alive_workers()}
        demands = []
        for name in sorted(self.runtime.placement()):
            # O(1): the runtime keeps a ready counter per placed servable.
            depth = self.runtime.queue_depth(name)
            if self.gateway is not None:
                # Lane-held backlog is invisible to the queue; admitted
                # counters see offered load the WFQ throttle hasn't
                # released yet.
                depth += self.gateway.queued_count(name)
                total = self.gateway.admitted_count(name)
            else:
                total = self.runtime.queue.enqueued_count(servable_topic(name))
            rate = self._ewma_rate(self._enqueued_seen, self._rates, name, total, dt)

            weighted = None
            tenant_rates: tuple[tuple[str, float], ...] = ()
            if self.gateway is not None:
                # Registered tenants baseline on the first observe (so
                # their first real interval rates correctly) even before
                # their first admission.
                admissions = self.gateway.tenant_admissions(name)
                tenant_names = sorted(
                    set(self.gateway.policies.tenants()) | set(admissions)
                )
                tenant_rates = tuple(
                    (
                        tenant,
                        self._ewma_rate(
                            self._tenant_seen,
                            self._tenant_rates,
                            (name, tenant),
                            admissions.get(tenant, 0),
                            dt,
                        ),
                    )
                    for tenant in tenant_names
                )
                # Weights are relative among *active* tenants: a lone
                # tenant's weighted rate equals its raw rate; under
                # contention a heavy tenant's traffic pulls capacity
                # harder than the same volume from a light one.
                # detlint: allow[HOT001] — reconcile-cadence, O(active tenants); not dispatch
                active = [(t, r) for t, r in tenant_rates if r > 0]
                if active:
                    # detlint: allow[HOT001] — same reconcile-cadence bound as `active` above
                    weights = {
                        tenant: self.gateway.tenant_weight(tenant)
                        for tenant, _ in active
                    }
                    mean_weight = sum(weights.values()) / len(weights)
                    weighted = sum(
                        tenant_rate * weights[tenant] / mean_weight
                        for tenant, tenant_rate in active
                    )

            metrics = self.runtime.stage_metrics
            fresh = metrics.samples_since(
                "queue_wait", name, self._wait_cursor.get(name, 0)
            )
            self._wait_cursor[name] = metrics.count("queue_wait", name)
            spec = self.runtime.spec(name)
            capacity = per_copy_capacity_rps(
                spec.servable.inference_cost_s,
                self.runtime.max_batch_size,
                replicas=spec.replicas,
            )
            imbalance = None
            # Always consume the windowed gauge so chunk data from a
            # suspended interval can't poison the next window...
            window = self._derate_window(name)
            # ...but only judge imbalance once the topology has been
            # stable for a settle period: chunks served right after
            # a scale-up/drain/migration are transiently lopsided
            # (cold pods, moved copies), and de-rating on them makes
            # the controller hold spike capacity through the drain.
            settle_s = IMBALANCE_SETTLE_INTERVALS * self.interval_s
            if now - self._last_scale_at >= settle_s - 1e-12:
                imbalance = self.runtime.stage_metrics.pod_imbalance(
                    name, busy=window
                )
            if imbalance is not None and imbalance > IMBALANCE_DERATE_THRESHOLD:
                # The capacity model assumes batches shard evenly; when
                # the straggler pod carries ``imbalance``x the mean, the
                # copy's real throughput is the model's divided by it —
                # plan on that, not on perfect sharding.
                capacity /= min(imbalance, IMBALANCE_DERATE_CAP)
            demands.append(
                ServableDemand(
                    name=name,
                    queue_depth=depth,
                    arrival_rate_rps=rate,
                    live_copies=sum(
                        1
                        for host in self.runtime.hosts(name)
                        if host.name in alive
                    ),
                    per_copy_capacity_rps=capacity,
                    recent_p95_queue_wait_s=(
                        float(np.percentile(fresh, 95.0)) if fresh else None
                    ),
                    weighted_arrival_rate_rps=weighted,
                    tenant_rates=tenant_rates,
                )
            )
        self._last_sample_at = now
        slo_burns: tuple = ()
        if self.slo_monitor is not None:
            # Check at the reconcile cadence, then drain everything new
            # (including breaches a direct check() fired between
            # reconciles) — each breach becomes exactly one event.
            self.slo_monitor.check(now)
            fresh = self.slo_monitor.drain()
            for breach in fresh:
                self._record(
                    "slo_burn",
                    breach.tenant,
                    burn_rate=round(breach.burn_rate, 3),
                    bad_fraction=round(breach.bad_fraction, 4),
                    window_s=breach.window_s,
                    samples=breach.samples,
                )
            slo_burns = tuple(fresh)
        alerts: tuple = ()
        if self.alert_engine is not None:
            # The engine is *evaluated* at the scrape cadence (by the
            # observability loop); here its transitions become audit
            # events and the firing set becomes policy input.
            for transition in self.alert_engine.drain():
                self._record(
                    f"alert_{transition.state}",
                    transition.rule,
                    **transition.detail,
                )
            alerts = self.alert_engine.firing()
        return FleetObservation(
            time=now,
            routable_workers=len(alive),
            draining_workers=len(self._draining),
            min_workers=self.min_workers,
            max_workers=self.max_workers,
            demands=tuple(demands),
            slo_burns=slo_burns,
            alerts=alerts,
        )

    # -- reconciliation -----------------------------------------------------------
    def reconcile(self) -> FleetPlan:
        """One control-loop pass: health -> observe -> plan -> actuate."""
        now = self.runtime.clock.now()
        self._next_at = now + self.interval_s
        self.reconciles += 1
        self._check_health(now)
        observation = self.observe(now)
        plan = self.policy.plan(observation)
        self._record_forecasts(observation)
        self._scale_workers(plan, now)
        self._rebalance(plan, now)
        if self.autoscale_replicas:
            self._scale_replicas(observation, now)
        self.peak_routable_workers = max(
            self.peak_routable_workers, len(self.runtime.alive_workers())
        )
        return plan

    def _record_forecasts(self, observation: FleetObservation) -> None:
        """Log scale-ahead signals from a forecasting policy.

        A :class:`PredictiveScaling` policy (or any policy exposing
        ``last_forecasts``) plans on projected demand; whenever the
        projection meaningfully exceeds the observed rate — i.e. the
        plan just pre-provisioned for demand that has not arrived yet —
        a ``demand_forecast`` event records both figures, so operators
        can audit every pre-provision decision against what the
        forecaster believed at the time.
        """
        forecasts = getattr(self.policy, "last_forecasts", None)
        if not forecasts:
            return
        lead = getattr(self.policy, "lead_time_s", 0.0)
        current = {d.name: d.effective_rate_rps for d in observation.demands}
        for name, forecast in sorted(forecasts.items()):
            rate = current.get(name, 0.0)
            if forecast.rate_rps > rate * 1.05 + 1e-9:
                self._record(
                    "demand_forecast",
                    name,
                    rate_rps=round(rate, 3),
                    forecast_rps=round(forecast.rate_rps, 3),
                    trend_rps_per_s=round(forecast.trend_per_s, 3),
                    lead_time_s=round(lead, 3),
                )

    # -- health -------------------------------------------------------------------
    def _check_health(self, now: float) -> None:
        fleet = {w.name for w in self.runtime.workers}
        for stale in sorted(set(self.health) - fleet):
            del self.health[stale]
        for worker in list(self.runtime.workers):
            health = self.health.get(worker.name)
            if health is None:
                health = WorkerHealth(
                    name=worker.name,
                    status="healthy",
                    last_active=now,
                    tasks_processed=worker.tasks_processed,
                )
                self.health[worker.name] = health
            active = worker.tasks_processed > health.tasks_processed
            if active:
                health.tasks_processed = worker.tasks_processed
                health.last_active = now
            # Claim activity since the last reconcile is itself proof of
            # life; only quiet workers pay an explicit probe.
            if active or worker.probe():
                if health.status == "down" and worker.name in self._downed:
                    self.runtime.revive(worker.name)
                    self._downed.discard(worker.name)
                    health.status = "healthy"
                    self._record("worker_revived", worker.name)
                elif worker.name in self._draining:
                    health.status = "draining"
                elif health.status != "down":
                    health.status = "healthy"
            elif health.status != "down":
                health.status = "down"
                self.runtime.mark_down(worker.name)
                self._downed.add(worker.name)
                self._draining.discard(worker.name)
                self._record(
                    "worker_down",
                    worker.name,
                    idle_s=round(now - health.last_active, 6),
                )
                self._migrate_off(worker, reason="worker_down")

    # -- worker scaling -----------------------------------------------------------
    def _scale_workers(self, plan: FleetPlan, now: float) -> None:
        target = min(max(plan.target_workers, self.min_workers), self.max_workers)
        current = len(self.runtime.alive_workers())
        if self.provision_worker is not None:
            if target > current:
                current = self._grow_to(target, current)
            elif target < current:
                self._drain_to(target, current, now)
        self._retire_draining(now)

    def _grow_to(self, target: int, current: int) -> int:
        # Cancelling an in-progress drain is free capacity — use it first.
        for name in sorted(self._draining):
            if current >= target:
                break
            self.runtime.mark_up(name)
            self._draining.discard(name)
            if name in self.health:
                self.health[name].status = "healthy"
            self._record("worker_undrained", name)
            current += 1
        while current < target:
            name = self._next_name()
            worker = self.provision_worker(name)
            if worker.clock is self.runtime.clock:
                # Charging the cold start to the global clock would warp
                # every in-flight measurement; fail fast instead.
                raise FleetControllerError(
                    "provision_worker must return workers on their own "
                    "clock (use testbed.add_fleet_worker, not "
                    "add_task_manager)"
                )
            cold = cold_start_cost_s(WORKER_IMAGE_BYTES)
            # The new Task Manager pulls and starts its own container
            # before it can claim work: charge its clock, so the worker
            # joins the fleet busy until the cold start completes.
            worker.clock.advance(cold)
            self.runtime.add_worker(worker)
            self._provisioned.add(name)
            self._record("worker_provisioned", name, cold_start_s=round(cold, 6))
            current += 1
        return current

    def _drain_to(self, target: int, current: int, now: float) -> None:
        hosted = self._hosted_counts()
        order = {w.name: i for i, w in enumerate(self.runtime.workers)}
        # Idle workers only; prefer empty ones, then our own provisions,
        # newest first.
        candidates = sorted(
            (
                w
                for w in self.runtime.alive_workers()
                if self.runtime.free_at(w) <= now + 1e-12
            ),
            key=lambda w: (
                hosted[w.name],
                w.name not in self._provisioned,
                -order[w.name],
            ),
        )
        for worker in candidates[: current - target]:
            self.runtime.mark_down(worker.name)
            self._draining.add(worker.name)
            if worker.name in self.health:
                self.health[worker.name].status = "draining"
            self._record("worker_draining", worker.name, hosted=hosted[worker.name])
            self._migrate_off(worker, reason="worker_draining")

    def _retire_draining(self, now: float) -> None:
        for name in sorted(self._draining):
            worker = self.runtime.worker(name)
            if self.runtime.free_at(worker) > now + 1e-12:
                continue  # still finishing its last batch
            placement = self.runtime.placement()
            hosted = [s for s, hosts in placement.items() if name in hosts]
            routable = {w.name for w in self.runtime.alive_workers()}
            if any(
                not (set(placement[s]) - {name}) & routable for s in hosted
            ):
                continue  # a hosted servable has nowhere else to live yet
            for servable_name in hosted:
                self.runtime.remove_copy(servable_name, name)
            self.runtime.remove_worker(name)
            self._draining.discard(name)
            self.health.pop(name, None)
            self._autoscalers = {
                key: scaler
                for key, scaler in self._autoscalers.items()
                if key[0] != name
            }
            self._record("worker_retired", name, released=hosted)

    def _next_name(self) -> str:
        existing = {w.name for w in self.runtime.workers}
        while True:
            name = f"fleet-w{next(self._names)}"
            if name not in existing:
                return name

    def _hosted_counts(self) -> dict[str, int]:
        counts = {w.name: 0 for w in self.runtime.workers}
        for hosts in self.runtime.placement().values():
            for host_name in hosts:
                counts[host_name] += 1
        return counts

    # -- rebalancing --------------------------------------------------------------
    def _migrate_off(self, worker: TaskManager, reason: str) -> None:
        """Give every servable hosted only on ``worker`` a routable copy."""
        routable = [w for w in self.runtime.alive_workers() if w is not worker]
        for servable_name, hosts in self.runtime.placement().items():
            if worker.name not in hosts:
                continue
            if any(w.name in hosts for w in routable):
                continue  # a live copy already exists elsewhere
            target = self._least_loaded(routable, exclude_hosting=servable_name)
            if target is None:
                continue  # no capacity yet; the next reconcile retries
            self.runtime.add_copy(servable_name, target)
            self._record(
                "servable_migrated",
                servable_name,
                source=worker.name,
                target=target.name,
                reason=reason,
            )

    def _least_loaded(
        self, workers: list[TaskManager], exclude_hosting: str
    ) -> TaskManager | None:
        hosting = set(self.runtime.placement().get(exclude_hosting, ()))
        counts = self._hosted_counts()
        order = {w.name: i for i, w in enumerate(self.runtime.workers)}
        candidates = [w for w in workers if w.name not in hosting]
        if not candidates:
            return None
        return min(candidates, key=lambda w: (counts[w.name], order[w.name]))

    def _rebalance(self, plan: FleetPlan, now: float) -> None:
        routable = self.runtime.alive_workers()
        for servable_name, desired in sorted(plan.copies.items()):
            hosts = self.runtime.placement().get(servable_name)
            if hosts is None:
                continue  # unplaced since the observation
            live = [w for w in routable if w.name in hosts]
            desired = min(max(desired, 1), len(routable)) if routable else 0
            if desired > len(live):
                for _ in range(desired - len(live)):
                    target = self._least_loaded(
                        routable, exclude_hosting=servable_name
                    )
                    if target is None:
                        break
                    self.runtime.add_copy(servable_name, target)
                    if live:
                        self._record(
                            "copy_added", servable_name, worker=target.name
                        )
                    else:
                        # Every existing copy is on a down/draining worker:
                        # this add is a migration, not extra capacity.
                        self._record(
                            "servable_migrated",
                            servable_name,
                            source=None,
                            target=target.name,
                            reason="no_routable_copy",
                        )
                        live = [target]
            elif desired and desired < len(live):
                counts = self._hosted_counts()
                order = {w.name: i for i, w in enumerate(self.runtime.workers)}
                shed = sorted(
                    live, key=lambda w: (-counts[w.name], -order[w.name])
                )[: len(live) - desired]
                for worker in shed:
                    if len(self.runtime.hosts(servable_name)) <= 1:
                        break
                    self.runtime.remove_copy(servable_name, worker.name)
                    self._record(
                        "copy_removed", servable_name, worker=worker.name
                    )
        # Self-healing invariant: every placed servable keeps >= 1
        # routable copy whenever the fleet has any routable capacity.
        for servable_name, hosts in self.runtime.placement().items():
            if not any(w.name in hosts for w in self.runtime.alive_workers()):
                target = self._least_loaded(
                    self.runtime.alive_workers(), exclude_hosting=servable_name
                )
                if target is not None:
                    self.runtime.add_copy(servable_name, target)
                    self._record(
                        "servable_migrated",
                        servable_name,
                        source=None,
                        target=target.name,
                        reason="no_routable_copy",
                    )

    # -- replica scaling ----------------------------------------------------------
    def _scale_replicas(self, observation: FleetObservation, now: float) -> None:
        """Size each hosted copy's replica pods from the shared model.

        Per-host :class:`Autoscaler` instances are built with the
        runtime's ``max_batch_size``, so replica sizing inverts the
        same :func:`per_copy_capacity_rps` model the policies plan
        copies from — the coalesced data plane and the replica layer
        can no longer disagree about capacity. A forecasting policy's
        planning rates (which already include the projection) drive
        replica counts too, so pods pre-provision alongside workers.
        """
        planning_rates = getattr(self.policy, "last_planning_rates", {})
        for demand in observation.demands:
            hosts = self.runtime.placement().get(demand.name, ())
            rate = planning_rates.get(demand.name, demand.effective_rate_rps)
            per_copy_rate = rate / max(demand.live_copies, 1)
            for worker in self.runtime.alive_workers():
                if worker.name not in hosts:
                    continue
                # Pod scale-ups start replicas concurrently (the worker
                # clock is charged the max cold start, not the sum — see
                # Deployment.scale), so busy workers may scale too; the
                # added busy time is one pod's start, which the extra
                # replicas immediately amortize.
                try:
                    _, executor = worker.route(demand.name)
                except TaskManagerError:
                    continue
                if not hasattr(executor, "scale") or not hasattr(
                    executor, "replicas"
                ):
                    continue
                scaler = self._autoscalers.setdefault(
                    (worker.name, executor.label),
                    Autoscaler(
                        executor,
                        max_replicas=self.max_replicas_per_host,
                        max_batch_size=self.runtime.max_batch_size,
                    ),
                )
                try:
                    want = scaler.recommend(demand.name, per_copy_rate)
                    have = executor.replicas(demand.name)
                except ProfileError:
                    continue
                if want != have:
                    scaler.autoscale(demand.name, per_copy_rate)
                    imbalance = self.runtime.stage_metrics.pod_imbalance(
                        demand.name,
                        busy=self._pod_busy_window(demand.name, worker.name),
                    )
                    self._record(
                        "replicas_scaled",
                        demand.name,
                        worker=worker.name,
                        replicas=want,
                        previous=have,
                        **(
                            {"chunk_imbalance": round(imbalance, 3)}
                            if imbalance is not None
                            else {}
                        ),
                    )

    def _derate_window(self, servable: str) -> dict[str, float]:
        """Per-pod busy deltas since the last *observe*, across workers.

        The capacity-derate view of the ``pod_busy`` gauge: unlike
        :meth:`_pod_busy_window` (per worker, sampled at replica-scale
        events) this windows over every pod hosting the servable at the
        reconcile cadence, through its own cursor so neither consumer
        starves the other of deltas.
        """
        window: dict[str, float] = {}
        totals = self.runtime.stage_metrics.pod_busy(servable)
        for pod, total in totals.items():
            seen = self._derate_busy_seen.get((servable, pod), 0.0)
            window[pod] = max(total - seen, 0.0)
            self._derate_busy_seen[(servable, pod)] = total
        return window

    def _pod_busy_window(self, servable: str, worker_name: str) -> dict[str, float]:
        """Per-pod busy-time deltas since this method last sampled.

        Consumes the cumulative :meth:`StageLatencyCollector.pod_busy`
        gauge and returns only the growth since the previous call for
        ``(servable, worker)`` — the windowed view
        :meth:`~repro.core.metrics.StageLatencyCollector.pod_imbalance`
        should judge live chunk imbalance from.
        """
        window: dict[str, float] = {}
        totals = self.runtime.stage_metrics.pod_busy(
            servable, prefix=f"{worker_name}/"
        )
        for pod, total in totals.items():
            seen = self._pod_busy_seen.get((servable, pod), 0.0)
            window[pod] = max(total - seen, 0.0)
            self._pod_busy_seen[(servable, pod)] = total
        return window
