"""The closed observability loop: scrape → store → rule → alert → react.

PR 7 gave the serving stack eyes — span traces, a unified
:class:`~repro.core.telemetry.TelemetryHub`, and a per-tenant
:class:`~repro.core.telemetry.SLOBurnMonitor` — but nothing *read*
those signals over time or acted on them. This module closes the loop
on the virtual clock:

- :class:`SeriesStore` — a windowed time-series store: fixed-capacity
  ring buffers per series, fed by periodic hub scrapes, with windowed
  queries (``avg`` / ``rate`` / ``percentile`` / ``delta``) over every
  number a hub source returns.
- :class:`AlertEngine` + rule classes — a declarative alert rules
  engine: :class:`ThresholdRule` (windowed aggregate vs bound) and
  :class:`BurnRateRule` (multi-window SLO burn), each with a
  pending → firing → resolved lifecycle.
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
from collections import deque

import numpy as np

from repro.core.fleet import (
    FleetObservation,
    FleetPlan,
    FleetPolicy,
    TargetUtilizationPolicy,
)

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


class ObsLoopError(ValueError):
    """Raised on invalid observability-loop configuration."""


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
# Windowed time-series store
# ---------------------------------------------------------------------------
class SeriesStore:
    """Fixed-capacity ring buffers of ``(time, value)`` per series.

    Fed by :meth:`scrape` (one flattened
    :meth:`~repro.core.telemetry.TelemetryHub.snapshot` per scrape
    interval) or :meth:`record` directly. Every numeric leaf of every
    pull-source payload lands as ``src:<source>.<dotted.path>``, so
    whatever a source reports is queryable over a window. Sources
    report cumulative counts and sums, not summaries: a windowed mean
    is ``rate(<x>.sum_s) / rate(<x>.count)``.

    Parameters
    ----------
    capacity:
        Samples retained per series; the oldest falls off first. At
        the default 0.1 s scrape interval, 512 samples ≈ 51 s of
        history per series.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 2:
            raise ObsLoopError("capacity must be >= 2")
        self.capacity = capacity
        self._series: dict[str, deque] = {}

    # -- ingest ----------------------------------------------------------------
    def record(self, series: str, time_s: float, value: float) -> None:
        """Append one sample; times must be non-decreasing per series."""
        buf = self._series.get(series)
        if buf is None:
            buf = self._series[series] = deque(maxlen=self.capacity)
        elif buf and time_s < buf[-1][0]:
            raise ObsLoopError(
                f"series {series!r} got sample at {time_s} before {buf[-1][0]}"
            )
        buf.append((time_s, float(value)))

    def scrape(self, hub, now: float) -> int:
        """Flatten one hub snapshot into the store; returns series touched.

        Pull sources are snapshot non-strictly: a source that raises
        mid-churn contributes an error stub (never scraped, since it
        has no numeric leaves) instead of poisoning the scrape.
        """
        return sum(
            self._flatten(f"src:{name}", payload, now)
            for name, payload in hub.snapshot(strict=False)["sources"].items()
        )

    def _flatten(self, prefix: str, payload, now: float) -> int:
        """Record every numeric leaf of a nested source payload.

        ``str`` / ``bool`` / ``None`` leaves are labels, not numbers,
        and are skipped; a list is a source breaking its contract
        (nested dicts of scalars) and raises rather than silently
        dropping whatever it held.
        """
        if isinstance(payload, bool):
            return 0
        if isinstance(payload, (int, float)):
            self.record(prefix, now, payload)
            return 1
        if isinstance(payload, dict):
            return sum(
                self._flatten(f"{prefix}.{key}", value, now)
                for key, value in payload.items()
            )
        if isinstance(payload, (list, tuple)):
            raise ObsLoopError(
                f"source payload {prefix!r} is a {type(payload).__name__}; "
                "sources report nested dicts of scalars"
            )
        return 0

    # -- queries ---------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """All series names recorded so far, sorted."""
        return tuple(sorted(self._series))

    def latest(self, series: str) -> tuple[float, float] | None:
        """The newest ``(time, value)`` sample, if any."""
        buf = self._series.get(series)
        return buf[-1] if buf else None

    def window(
        self, series: str, window_s: float, now: float
    ) -> list[tuple[float, float]]:
        """Samples with ``now - window_s <= time <= now``, oldest first."""
        if window_s <= 0:
            raise ObsLoopError("window_s must be > 0")
        buf = self._series.get(series)
        if not buf:
            return []
        cutoff = now - window_s
        return [(t, v) for t, v in buf if cutoff <= t <= now]

    def avg(self, series: str, window_s: float, now: float) -> float | None:
        """Mean sample value over the window (None when empty)."""
        samples = self.window(series, window_s, now)
        if not samples:
            return None
        return sum(v for _, v in samples) / len(samples)

    def delta(self, series: str, window_s: float, now: float) -> float | None:
        """Last minus first value over the window (needs >= 2 samples)."""
        samples = self.window(series, window_s, now)
        if len(samples) < 2:
            return None
        return samples[-1][1] - samples[0][1]

    def rate(self, series: str, window_s: float, now: float) -> float | None:
        """Per-second increase over the window — the counter query.

        ``(last - first) / (t_last - t_first)`` over in-window samples;
        None with fewer than two samples or zero elapsed time.
        """
        samples = self.window(series, window_s, now)
        if len(samples) < 2:
            return None
        elapsed = samples[-1][0] - samples[0][0]
        if elapsed <= 0:
            return None
        return (samples[-1][1] - samples[0][1]) / elapsed

    def percentile(
        self, series: str, window_s: float, now: float, q: float
    ) -> float | None:
        """The ``q``-th percentile of sample values over the window."""
        if not 0 <= q <= 100:
            raise ObsLoopError("q must be in [0, 100]")
        samples = self.window(series, window_s, now)
        if not samples:
            return None
        return float(np.percentile([v for _, v in samples], q))


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
    condition true *right now*, plus a detail dict for the audit trail. The engine owns the
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
    or above ``threshold`` averaged over *both* a fast and a slow
    window — the fast window proves the budget is burning *now*, the
    slow one that it is not a blip. Resolution is just as responsive:
    the moment the fast window cools below threshold the condition
    drops and the alert resolves.

    Parameters
    ----------
    name / tenant:
        Rule name and the tenant whose burn gauge to watch.
    fast_window_s / slow_window_s:
        The two averaging windows (fast < slow).
    threshold:
        Burn-rate multiple (1.0 spends the error budget exactly).
    for_s:
        Extra hold time before firing, on top of the window debounce.
    """

    def __init__(
        self,
        name: str,
        tenant: str,
        fast_window_s: float = 0.5,
        slow_window_s: float = 2.0,
        threshold: float = 4.0,
        for_s: float = 0.0,
    ) -> None:
        super().__init__(
            name, for_s=for_s, labels={"kind": "burn", "tenant": tenant}
        )
        if fast_window_s <= 0 or slow_window_s <= fast_window_s:
            raise ObsLoopError("need 0 < fast_window_s < slow_window_s")
        if threshold <= 0:
            raise ObsLoopError("threshold must be > 0")
        self.tenant = tenant
        self.series = burn_series(tenant)
        self.fast_window_s = fast_window_s
        self.slow_window_s = slow_window_s
        self.threshold = threshold

    def active(self, store: SeriesStore, now: float) -> tuple[bool, dict]:
        """Both windows of the burn gauge must clear the threshold."""
        fast = store.avg(self.series, self.fast_window_s, now)
        slow = store.avg(self.series, self.slow_window_s, now)
        if fast is None or slow is None:
            return False, {}
        hit = fast >= self.threshold and slow >= self.threshold
        return hit, {
            "tenant": self.tenant,
            "fast_burn": fast,
            "slow_burn": slow,
            "threshold": self.threshold,
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
        """Register a rule; names must be unique."""
        if rule.name in self._rules:
            raise ObsLoopError(f"duplicate rule name {rule.name!r}")
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
    ``min(max_rate, sample_rate * escalation)`` via the tracer's
    per-tenant override (its own error-diffusion accumulator, so the
    escalation is deterministic and other tenants' cadence is
    untouched), then decays cooled-down tenants geometrically back
    toward the base rate, dropping the override once it lands.

    Parameters
    ----------
    tracer:
        The :class:`~repro.core.telemetry.Tracer` to steer.
    escalation:
        Multiple of the base ``sample_rate`` applied while burning.
    max_rate:
        Hard ceiling on any escalated rate.
    decay:
        Geometric factor per tick pulling a cooled tenant's excess
        rate back toward base (smaller = faster revert).
    """

    def __init__(
        self,
        tracer,
        escalation: float = 10.0,
        max_rate: float = 0.5,
        decay: float = 0.5,
    ) -> None:
        if escalation <= 1.0:
            raise ObsLoopError("escalation must be > 1")
        if not 0.0 < max_rate <= 1.0:
            raise ObsLoopError("max_rate must be in (0, 1]")
        if not 0.0 < decay < 1.0:
            raise ObsLoopError("decay must be in (0, 1)")
        self.tracer = tracer
        self.escalation = escalation
        self.max_rate = max_rate
        self.decay = decay
        #: Tenants currently holding an escalated (or decaying) override.
        self.active: dict[str, float] = {}
        #: Highest effective rate ever applied per tenant.
        self.peak_rates: dict[str, float] = {}
        #: Escalation episodes per tenant (entries into the raised state).
        self.escalations: dict[str, int] = {}

    def update(self, now: float, burning) -> None:
        """One control step: escalate ``burning``, decay the rest."""
        base = self.tracer.sample_rate
        target = min(self.max_rate, base * self.escalation)
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
            decayed = base + (self.active[tenant] - base) * self.decay
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
      rate is boosted by ``boost`` before delegating, so the base
      policy provisions *ahead* of its EWMA view and capacity lands
      sooner. The boost disappears the moment no burn alert fires.
    - **overload-shaped** — the fleet is already at ``max_workers``:
      more capacity is not coming, so the burning tenant is load-shed
      at the door. The gateway's admission bucket for that tenant is
      tightened to ``shed_fraction`` of its observed EWMA arrival rate
      (floored at ``min_shed_rate_rps``), and the override is lifted
      when the tenant's alert resolves.

    Parameters
    ----------
    base:
        Policy to delegate planning to (default
        :class:`~repro.core.fleet.TargetUtilizationPolicy`).
    gateway:
        The :class:`~repro.gateway.gateway.ServingGateway` whose
        admission to tighten; without it, shedding is disabled.
    boost:
        Planning-rate multiplier under capacity-shaped burn.
    shed_fraction:
        Fraction of the burning tenant's EWMA arrival rate its
        admission is capped at under overload-shaped burn.
    min_shed_rate_rps:
        Floor under any imposed admission cap.
    """

    name = "reactive-slo"

    def __init__(
        self,
        base: FleetPolicy | None = None,
        gateway=None,
        boost: float = 1.5,
        shed_fraction: float = 0.5,
        min_shed_rate_rps: float = 1.0,
    ) -> None:
        if boost < 1.0:
            raise ObsLoopError("boost must be >= 1")
        if not 0.0 < shed_fraction < 1.0:
            raise ObsLoopError("shed_fraction must be in (0, 1)")
        if min_shed_rate_rps <= 0:
            raise ObsLoopError("min_shed_rate_rps must be > 0")
        self.base = base or TargetUtilizationPolicy()
        self.gateway = gateway
        self.boost = boost
        self.shed_fraction = shed_fraction
        self.min_shed_rate_rps = min_shed_rate_rps
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
                        arrival_rate_rps=demand.arrival_rate_rps * self.boost,
                        weighted_arrival_rate_rps=(
                            demand.weighted_arrival_rate_rps * self.boost
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
                    self.min_shed_rate_rps, self.shed_fraction * measured
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

    1. scrapes the hub into the :class:`SeriesStore`,
    2. gauges every known tenant's SLO burn into ``slo_burn_rate{...}``
       series (0.0 below the monitor's ``min_samples`` — cold is not
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
