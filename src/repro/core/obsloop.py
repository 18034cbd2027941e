"""The closed observability loop: scrape → store → rule → alert → react.

PR 7 gave the serving stack eyes — span traces, a unified
:class:`~repro.core.telemetry.TelemetryHub`, and a per-tenant
:class:`~repro.core.telemetry.SLOBurnMonitor` — but nothing *read*
those signals over time or acted on them. This module closes the loop
on the virtual clock:

- :class:`~repro.core.metrics.SeriesStore` (re-exported here) — the
  windowed time-series store, fed by periodic hub scrapes, with
  windowed queries (``avg`` / ``rate`` / ``percentile`` / ``delta``)
  over any number a hub source returns that a reader declared.
- :class:`AlertEngine` + rule classes — a declarative alert rules
  engine: :class:`ThresholdRule` (windowed aggregate vs bound) and
  :class:`BurnRateRule` (multi-window SLO burn), each with a
  pending → firing → resolved lifecycle. Registering a rule declares
  its series and window to the store, which scrapes a declared hub
  series and keeps each series that long.
- :class:`ReactiveSLOPolicy` — a :class:`~repro.core.fleet.FleetPolicy`
  wrapper that *acts* on firing burn alerts: a scale-out boost while
  the fleet has headroom (capacity-shaped burn), admission tightening
  through the gateway's token buckets when it does not
  (overload-shaped burn), both reverting on resolve.
- :class:`AdaptiveSampler` — per-tenant trace-sampling control: raise
  the :class:`~repro.core.telemetry.Tracer`'s effective rate on the
  tenants currently burning budget, decay it back afterwards.
- :class:`ObservabilityLoop` — the serve-loop controller that drives
  all of the above every ``scrape_interval_s`` of virtual time.

Everything here is deterministic: scrapes fire on the virtual clock,
rules see only stored samples, and sampling escalation rides the
tracer's error-diffusion accumulators — runs replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.fleet import (
    FleetObservation,
    FleetPlan,
    FleetPolicy,
    TargetUtilizationPolicy,
)
from repro.core.metrics import ObsLoopError, SeriesStore

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertTransition",
    "AdaptiveSampler",
    "BurnRateRule",
    "ObsLoopError",
    "ObservabilityLoop",
    "ReactiveSLOPolicy",
    "SeriesStore",
    "ThresholdRule",
    "burn_series",
    "sample_rate_series",
]


#: :class:`BurnRateRule`: the burn-rate multiple both windows must clear
#: (1.0 spends the error budget exactly).
BURN_RULE_THRESHOLD = 4.0
#: :class:`AdaptiveSampler`: the multiple of the base sample rate a
#: burning tenant is raised to, the ceiling on any raised rate, and the
#: geometric factor per tick pulling a cooled tenant's excess back
#: toward base.
SAMPLER_ESCALATION = 10.0
SAMPLER_MAX_RATE = 0.5
SAMPLER_DECAY = 0.5
#: :class:`ReactiveSLOPolicy`: the planning-rate multiplier under a
#: capacity-shaped burn, the fraction of a burning tenant's EWMA arrival
#: rate its admission is capped at under an overload-shaped burn, and
#: the floor under any such cap.
REACTIVE_BOOST = 1.5
REACTIVE_SHED_FRACTION = 0.5
REACTIVE_MIN_SHED_RATE_RPS = 1.0


def burn_series(tenant: str) -> str:
    """Series name the loop records a tenant's SLO burn gauge under."""
    return f"slo_burn_rate{{tenant={tenant}}}"


def sample_rate_series(tenant: str) -> str:
    """Series name for a tenant's effective trace-sampling rate."""
    return f"trace_sample_rate{{tenant={tenant}}}"


def _burning_tenants(alerts) -> tuple[str, ...]:
    """Tenants named by the burn-labeled alerts among ``alerts``, sorted."""
    return tuple(
        sorted(
            {
                alert.labels["tenant"]
                for alert in alerts
                if alert.labels.get("kind") == "burn" and "tenant" in alert.labels
            }
        )
    )


# ---------------------------------------------------------------------------
# Alert rules
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AlertTransition:
    """One lifecycle edge of one rule (pending / firing / resolved)."""

    time: float
    rule: str
    state: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Alert:
    """A currently firing rule, as exposed on fleet observations."""

    rule: str
    since: float
    labels: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


class AlertRule:
    """Base class: a named condition over the series store.

    Subclasses implement ``active(store, now) -> (bool, dict)`` — is the
    condition true *right now*, plus a detail dict for the audit trail —
    and set ``series`` and ``window_s``, the one series they query and
    their longest window over it, which the engine declares to the
    store when the rule is registered. The engine owns the
    pending → firing → resolved lifecycle: a condition must hold for
    ``for_s`` of virtual time before the rule fires (debounce), and a
    firing rule resolves on the first evaluation where the condition
    is false.
    """

    def __init__(
        self, name: str, for_s: float = 0.0, labels: dict | None = None
    ) -> None:
        if not name:
            raise ObsLoopError("rule name must be non-empty")
        if for_s < 0:
            raise ObsLoopError("for_s must be >= 0")
        self.name = name
        self.for_s = for_s
        self.labels = dict(labels or {})


class ThresholdRule(AlertRule):
    """A windowed aggregate of one series compared against a bound.

    ``agg`` is one of ``avg`` / ``rate`` / ``delta`` / ``last`` or a
    percentile spelled ``p95``-style; ``op`` one of ``>`` / ``>=`` /
    ``<`` / ``<=``. Missing data is never an alert: the rule is
    inactive until the query returns a value.
    """

    _OPS = {
        ">": lambda v, t: v > t,
        ">=": lambda v, t: v >= t,
        "<": lambda v, t: v < t,
        "<=": lambda v, t: v <= t,
    }

    def __init__(
        self,
        name: str,
        series: str,
        threshold: float,
        window_s: float = 1.0,
        agg: str = "avg",
        op: str = ">",
        for_s: float = 0.0,
        labels: dict | None = None,
    ) -> None:
        super().__init__(name, for_s=for_s, labels=labels)
        if window_s <= 0:
            raise ObsLoopError("window_s must be > 0")
        if op not in self._OPS:
            raise ObsLoopError(f"unknown op {op!r}")
        if agg not in ("avg", "rate", "delta", "last") and not (
            agg.startswith("p") and agg[1:].isdigit()
        ):
            raise ObsLoopError(f"unknown agg {agg!r}")
        self.series = series
        self.threshold = threshold
        self.window_s = window_s
        self.agg = agg
        self.op = op

    def _value(self, store: SeriesStore, now: float) -> float | None:
        if self.agg == "avg":
            return store.avg(self.series, self.window_s, now)
        if self.agg == "rate":
            return store.rate(self.series, self.window_s, now)
        if self.agg == "delta":
            return store.delta(self.series, self.window_s, now)
        if self.agg == "last":
            latest = store.latest(self.series)
            return latest[1] if latest else None
        return store.percentile(self.series, self.window_s, now, float(self.agg[1:]))

    def active(self, store: SeriesStore, now: float) -> tuple[bool, dict]:
        """Compare the windowed aggregate against the bound."""
        value = self._value(store, now)
        if value is None:
            return False, {}
        hit = self._OPS[self.op](value, self.threshold)
        return hit, {"value": value, "threshold": self.threshold}


class BurnRateRule(AlertRule):
    """Multi-window SLO burn-rate alerting for one tenant.

    The SRE-standard shape: fire only when the burn gauge (recorded by
    the loop from :meth:`SLOBurnMonitor.burn_rate` each scrape) runs at
    or above :data:`BURN_RULE_THRESHOLD` averaged over *both* a fast
    and a slow window — the fast window proves the budget is burning
    *now*, the slow one that it is not a blip, so the rule needs no
    extra hold time (its ``for_s`` is 0). Resolution is just as
    responsive: the moment the fast window cools below threshold the
    condition drops and the alert resolves.

    Parameters
    ----------
    name / tenant:
        Rule name and the tenant whose burn gauge to watch.
    fast_window_s / slow_window_s:
        The two averaging windows (fast < slow).
    """

    def __init__(
        self,
        name: str,
        tenant: str,
        fast_window_s: float = 0.5,
        slow_window_s: float = 2.0,
    ) -> None:
        super().__init__(name, labels={"kind": "burn", "tenant": tenant})
        if fast_window_s <= 0 or slow_window_s <= fast_window_s:
            raise ObsLoopError("need 0 < fast_window_s < slow_window_s")
        self.tenant = tenant
        self.series = burn_series(tenant)
        self.fast_window_s = fast_window_s
        self.slow_window_s = self.window_s = slow_window_s

    def active(self, store: SeriesStore, now: float) -> tuple[bool, dict]:
        """Both windows of the burn gauge must clear the threshold."""
        fast = store.avg(self.series, self.fast_window_s, now)
        slow = store.avg(self.series, self.slow_window_s, now)
        if fast is None or slow is None:
            return False, {}
        hit = fast >= BURN_RULE_THRESHOLD and slow >= BURN_RULE_THRESHOLD
        return hit, {
            "tenant": self.tenant,
            "fast_burn": fast,
            "slow_burn": slow,
            "threshold": BURN_RULE_THRESHOLD,
        }


# ---------------------------------------------------------------------------
# Alert engine
# ---------------------------------------------------------------------------
@dataclass
class _RuleState:
    """Lifecycle bookkeeping for one rule."""

    state: str = "inactive"
    since: float = 0.0
    detail: dict = field(default_factory=dict)


class AlertEngine:
    """Evaluates rules against the store and runs the alert lifecycle.

    Each :meth:`evaluate` pass moves every rule along
    inactive → pending → firing → resolved(→ inactive): a true
    condition makes an inactive rule *pending*; once it has held for
    the rule's ``for_s`` it *fires*; the first false evaluation of a
    firing rule *resolves* it (a pending rule just drops silently —
    debounce doing its job). Transitions accumulate for
    :meth:`drain` (the fleet controller turns them into
    ``FleetEvent``s) and the currently firing set is served from
    :meth:`firing` (exposed on observations for reactive policies).
    """

    def __init__(self, store: SeriesStore, rules=()) -> None:
        self.store = store
        self._rules: dict[str, AlertRule] = {}
        self._states: dict[str, _RuleState] = {}
        self.transitions: list[AlertTransition] = []
        self._drained = 0
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: AlertRule) -> None:
        """Register a rule and declare its window to the store; names
        must be unique."""
        if rule.name in self._rules:
            raise ObsLoopError(f"duplicate rule name {rule.name!r}")
        self.store.retain(rule.series, rule.window_s)
        self._rules[rule.name] = rule
        self._states[rule.name] = _RuleState()

    def rules(self) -> tuple[str, ...]:
        """Registered rule names, in registration order."""
        return tuple(self._rules)

    def evaluate(self, now: float) -> list[AlertTransition]:
        """One lifecycle pass over every rule; returns new transitions."""
        fresh: list[AlertTransition] = []

        def _move(name: str, state: _RuleState, to: str, detail: dict) -> None:
            state.state = to if to != "resolved" else "inactive"
            state.since = now
            state.detail = detail
            transition = AlertTransition(now, name, to, dict(detail))
            self.transitions.append(transition)
            fresh.append(transition)

        for name, rule in self._rules.items():
            state = self._states[name]
            hit, detail = rule.active(self.store, now)
            if hit:
                if state.state == "inactive":
                    _move(name, state, "pending", detail)
                if state.state == "pending" and now - state.since >= rule.for_s:
                    _move(name, state, "firing", detail)
                elif state.state == "firing":
                    state.detail = detail
            else:
                if state.state == "firing":
                    _move(name, state, "resolved", detail)
                elif state.state == "pending":
                    state.state = "inactive"
        return fresh

    def drain(self) -> list[AlertTransition]:
        """Transitions since the previous drain (controller feed)."""
        fresh = self.transitions[self._drained :]
        self._drained = len(self.transitions)
        return fresh

    def firing(self) -> tuple[Alert, ...]:
        """The currently firing alerts, in rule-registration order."""
        return tuple(
            Alert(
                rule=name,
                since=self._states[name].since,
                labels=dict(self._rules[name].labels),
                detail=dict(self._states[name].detail),
            )
            for name in self._rules
            if self._states[name].state == "firing"
        )

    def state(self, name: str) -> str:
        """One rule's current lifecycle state."""
        return self._states[name].state


# ---------------------------------------------------------------------------
# Adaptive trace sampling
# ---------------------------------------------------------------------------
class AdaptiveSampler:
    """Raise trace sampling on burning tenants, decay it back after.

    A fleet tracing 1% of requests is cheap but nearly blind during an
    incident — exactly when traces are worth the most. Each loop tick
    this controller escalates every tenant with a firing burn alert to
    ``min(SAMPLER_MAX_RATE, sample_rate * SAMPLER_ESCALATION)`` via the
    tracer's per-tenant override (its own error-diffusion accumulator,
    so the escalation is deterministic and other tenants' cadence is
    untouched), then decays cooled-down tenants geometrically (by
    :data:`SAMPLER_DECAY` per tick) back toward the base rate, dropping
    the override once it lands.

    ``tracer`` is the :class:`~repro.core.telemetry.Tracer` to steer.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: Tenants currently holding an escalated (or decaying) override.
        self.active: dict[str, float] = {}
        #: Highest effective rate ever applied per tenant.
        self.peak_rates: dict[str, float] = {}
        #: Escalation episodes per tenant (entries into the raised state).
        self.escalations: dict[str, int] = {}

    def update(self, now: float, burning) -> None:
        """One control step: escalate ``burning``, decay the rest."""
        base = self.tracer.sample_rate
        target = min(SAMPLER_MAX_RATE, base * SAMPLER_ESCALATION)
        for tenant in sorted(burning):
            if target <= base:
                break
            if tenant not in self.active:
                self.escalations[tenant] = self.escalations.get(tenant, 0) + 1
            if self.active.get(tenant) != target:
                self.tracer.set_tenant_rate(tenant, target)
                self.active[tenant] = target
            self.peak_rates[tenant] = max(
                self.peak_rates.get(tenant, base), target
            )
        for tenant in sorted(set(self.active) - set(burning)):
            decayed = base + (self.active[tenant] - base) * SAMPLER_DECAY
            if decayed - base <= max(base * 0.05, 1e-6):
                self.tracer.clear_tenant_rate(tenant)
                del self.active[tenant]
            else:
                self.tracer.set_tenant_rate(tenant, decayed)
                self.active[tenant] = decayed

    def rates(self) -> dict[str, float]:
        """Current per-tenant effective rates (overrides only)."""
        return dict(self.active)


# ---------------------------------------------------------------------------
# Reactive SLO policy
# ---------------------------------------------------------------------------
class ReactiveSLOPolicy(FleetPolicy):
    """Act on firing burn alerts: scale out, or shed the burner.

    Wraps any base policy (:class:`PredictiveScaling`-style) and reads
    the firing alerts the controller exposes on each observation. A
    burn alert is classified by where the headroom is:

    - **capacity-shaped** — the fleet can still grow
      (``routable_workers < max_workers``): every demand's planning
      rate is boosted by :data:`REACTIVE_BOOST` before delegating, so
      the base policy provisions *ahead* of its EWMA view and capacity
      lands sooner. The boost disappears the moment no burn alert fires.
    - **overload-shaped** — the fleet is already at ``max_workers``:
      more capacity is not coming, so the burning tenant is load-shed
      at the door. The gateway's admission bucket for that tenant is
      tightened to :data:`REACTIVE_SHED_FRACTION` of its observed EWMA
      arrival rate (floored at :data:`REACTIVE_MIN_SHED_RATE_RPS`), and
      the override is lifted when the tenant's alert resolves.

    Parameters
    ----------
    base:
        Policy to delegate planning to (default
        :class:`~repro.core.fleet.TargetUtilizationPolicy`).
    gateway:
        The :class:`~repro.gateway.gateway.ServingGateway` whose
        admission to tighten; without it, shedding is disabled.
    """

    name = "reactive-slo"

    def __init__(self, base: FleetPolicy | None = None, gateway=None) -> None:
        self.base = base or TargetUtilizationPolicy()
        self.gateway = gateway
        #: Imposed admission caps, tenant -> rate_rps (live overrides).
        self.active_sheds: dict[str, float] = {}
        #: What the last plan did: None / "scale_out" / "shed".
        self.last_mode: str | None = None
        self.boosts = 0
        self.sheds = 0
        self.reverts = 0

    def plan(self, observation: FleetObservation) -> FleetPlan:
        """Classify any firing burn and react before delegating."""
        burning = _burning_tenants(observation.alerts)
        self.last_mode = None
        planned = observation
        if burning and observation.routable_workers < observation.max_workers:
            self.last_mode = "scale_out"
            self.boosts += 1
            planned = replace(
                observation,
                demands=tuple(
                    replace(
                        demand,
                        arrival_rate_rps=demand.arrival_rate_rps * REACTIVE_BOOST,
                        weighted_arrival_rate_rps=(
                            demand.weighted_arrival_rate_rps * REACTIVE_BOOST
                            if demand.weighted_arrival_rate_rps is not None
                            else None
                        ),
                    )
                    for demand in observation.demands
                ),
            )
        self._update_sheds(observation, burning)
        return self.base.plan(planned)

    def _tenant_rate(
        self, observation: FleetObservation, tenant: str
    ) -> float:
        """The tenant's highest EWMA arrival rate across demands."""
        return max(
            (
                rate
                for demand in observation.demands
                for name, rate in demand.tenant_rates
                if name == tenant
            ),
            default=0.0,
        )

    def _update_sheds(
        self, observation: FleetObservation, burning: tuple[str, ...]
    ) -> None:
        """Impose/lift admission caps as burn alerts fire/resolve."""
        if self.gateway is None:
            return
        at_max = observation.routable_workers >= observation.max_workers
        if at_max:
            for tenant in burning:
                if tenant in self.active_sheds:
                    continue
                measured = self._tenant_rate(observation, tenant)
                if measured <= 0:
                    continue
                cap = max(
                    REACTIVE_MIN_SHED_RATE_RPS, REACTIVE_SHED_FRACTION * measured
                )
                self.gateway.tighten_admission(tenant, cap)
                self.active_sheds[tenant] = cap
                self.sheds += 1
                if self.last_mode is None:
                    self.last_mode = "shed"
        for tenant in sorted(set(self.active_sheds) - set(burning)):
            self.gateway.relax_admission(tenant)
            del self.active_sheds[tenant]
            self.reverts += 1


# ---------------------------------------------------------------------------
# The loop itself
# ---------------------------------------------------------------------------
class ObservabilityLoop:
    """Serve-loop controller that drives scrape → store → rule → react.

    Attach to a :class:`~repro.core.runtime.ServingRuntime`
    (``runtime.attach_controller(loop, controller)`` puts it in front
    of a :class:`~repro.core.fleet.FleetController`). Every
    ``scrape_interval_s`` of virtual time it:

    1. scrapes into the :class:`SeriesStore` the hub series its
       readers declared (none, with only burn rules: no source is
       pulled),
    2. gauges every known tenant's SLO burn into ``slo_burn_rate{...}``
       series (0.0 below the monitor's ``SLO_MIN_SAMPLES`` — cold is not
       burning),
    3. runs one :class:`AlertEngine` lifecycle pass, and
    4. steps the :class:`AdaptiveSampler` with the burn-labeled firing
       set, recording each override into ``trace_sample_rate{...}``.

    The engine's transitions are *not* consumed here: the fleet
    controller drains them into ``FleetEvent``s and exposes the firing
    set on its observations, which is how
    :class:`ReactiveSLOPolicy` sees them.
    """

    def __init__(
        self,
        clock,
        hub,
        store: SeriesStore | None = None,
        engine: AlertEngine | None = None,
        monitor=None,
        sampler: AdaptiveSampler | None = None,
        scrape_interval_s: float = 0.1,
    ) -> None:
        if scrape_interval_s <= 0:
            raise ObsLoopError("scrape_interval_s must be > 0")
        self.clock = clock
        self.hub = hub
        self.store = store or SeriesStore()
        self.engine = engine or AlertEngine(self.store)
        self.monitor = monitor
        self.sampler = sampler
        self.scrape_interval_s = scrape_interval_s
        self.scrapes = 0
        self._next_scrape = clock.now()

    # -- serve-loop controller protocol ----------------------------------------
    def next_wakeup(self) -> float:
        """When the next scrape is due on the virtual clock."""
        return self._next_scrape

    def on_tick(self) -> None:
        """Scrape if due (the serve loop calls this when
        :meth:`next_wakeup` is reached)."""
        now = self.clock.now()
        if now + 1e-12 < self._next_scrape:
            return
        self.scrape(now)
        self._next_scrape = now + self.scrape_interval_s

    # -- one pass --------------------------------------------------------------
    def burning(self) -> tuple[str, ...]:
        """Tenants named by currently firing burn-labeled alerts."""
        return _burning_tenants(self.engine.firing())

    def scrape(self, now: float) -> None:
        """One full loop pass at ``now`` (also callable standalone)."""
        self.store.scrape(self.hub, now)
        if self.monitor is not None:
            for tenant in self.monitor.tenants():
                burn = self.monitor.burn_rate(tenant, now)
                self.store.record(
                    burn_series(tenant), now, burn if burn is not None else 0.0
                )
        self.engine.evaluate(now)
        if self.sampler is not None:
            self.sampler.update(now, self.burning())
            for tenant, rate in sorted(self.sampler.rates().items()):
                self.store.record(sample_rate_series(tenant), now, rate)
        self.scrapes += 1
