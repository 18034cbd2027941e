"""Closed-loop incident response: detect, react, and prove it helped.

PR 7 left the fabric observable but inert: the telemetry hub can say a
tenant is burning its SLO budget, yet nothing *acts* on that signal.
This experiment closes the loop end-to-end and measures what acting
buys. One hot tenant rides quietly, then bursts to ~7x its steady rate
for an incident window while a light tenant keeps a constant trickle —
the same two-lab shape as the fairness bench, now with the fleet
starting *small* (2 of 4 workers) so the incident is first
capacity-shaped (room to grow) and then, once the fleet is maxed,
overload-shaped (840 rps offered against ~710 rps full-fleet
capacity).

Two arms run the identical schedule:

* **observe** — the full observability loop is attached
  (:class:`~repro.core.obsloop.ObservabilityLoop` scraping the hub
  into a :class:`~repro.core.obsloop.SeriesStore`, per-tenant
  :class:`~repro.core.obsloop.BurnRateRule` alerts evaluated every
  scrape, transitions drained into fleet events) but the controller
  plans with the plain target-utilization policy: alerts fire, nothing
  reacts. The autoscaler still grows the fleet on its EWMA view.
* **reactive** — the same loop, with
  :class:`~repro.core.obsloop.ReactiveSLOPolicy` wrapping the base
  policy (boosting planning rates while the fleet can grow, shedding
  the burning tenant's admission once it cannot) and an
  :class:`~repro.core.obsloop.AdaptiveSampler` escalating the burning
  tenant's trace sampling while the alert fires.

What the loop must prove (asserted by ``bench_incident_response``):

1. the hot tenant's burn alert reaches ``firing`` within a bounded
   number of scrape intervals of the incident starting;
2. with both arms peaking at the same worker count, the reactive
   arm's post-incident (recovery-phase) hot-tenant p95 is strictly
   below the observe arm's — shedding bounded the backlog the
   recovery phase has to drain;
3. sampling escalates on the burning tenant only: the light tenant's
   trace rate never leaves base;
4. the alert resolves and every reactive override (admission cap,
   sampling escalation) is lifted by the end of the cooldown.

Memoization is off so repeated fixed inputs measure dispatch, not the
cache, and jitter is off so both arms are bit-for-bit replayable.
"""

from __future__ import annotations

import numpy as np

from repro.bench.workloads import build_fleet, phased_offsets
from repro.core.fleet import FleetController, TargetUtilizationPolicy
from repro.core.obsloop import (
    AdaptiveSampler,
    AlertEngine,
    BurnRateRule,
    ObservabilityLoop,
    ReactiveSLOPolicy,
    SeriesStore,
)
from repro.core.tasks import TaskRequest
from repro.core.telemetry import SLOBurnMonitor, Tracer, build_hub
from repro.core.zoo import sample_input
from repro.gateway import ServingGateway

SERVABLE = "matminer_util"
TENANTS = ("hot", "light")
#: The light tenant's constant trickle (rps) across the whole run.
LIGHT_RATE_RPS = 40.0
#: Hot tenant phases: (duration_s, rate_rps) — quiet, incident, recovery.
HOT_PHASES = ((1.0, 80.0), (1.5, 800.0), (1.5, 80.0))
DURATION_S = sum(duration for duration, _ in HOT_PHASES)
#: (start, end) offsets of the incident phase.
INCIDENT_WINDOW_S = (HOT_PHASES[0][0], HOT_PHASES[0][0] + HOT_PHASES[1][0])
INITIAL_WORKERS = 2
MAX_WORKERS = 4
MAX_BATCH_SIZE = 8
COALESCE_DELAY_S = 0.005
RECONCILE_INTERVAL_S = 0.25
SCRAPE_INTERVAL_S = 0.1
#: Firing-latency bound, in scrape intervals after the incident starts.
#: Covers the monitor's min-sample warmup, both burn-rule windows
#: filling with hot samples, and one reconcile to drain the event.
FIRING_BOUND_SCRAPES = 10
#: Post-serve reconcile/scrape ticks letting the backlog drain and the
#: alert resolve (mirrors the autoscaling bench's cooldown).
COOLDOWN_TICKS = 24
TRACE_BASE_RATE = 0.02


def _phase_p95_ms(
    results, tenant: str, start: float, end: float, base: float
) -> float | None:
    """p95 end-to-end latency (ms) of ``tenant``'s requests arriving in
    the ``[start, end)`` offset window (admitted and settled only)."""
    latencies = [
        r.latency
        for r in results
        if r.admitted
        and r.completed
        and r.request.tenant == tenant
        and start <= (r.arrived_at - base) < end
    ]
    if not latencies:
        return None
    return float(np.percentile(np.asarray(latencies), 95)) * 1e3


def _run_arm(seed: int, reactive: bool) -> dict:
    """One full arm: identical workload, loop attached, policy differs."""
    tracer = Tracer(sample_rate=TRACE_BASE_RATE)
    fleet, runtime = build_fleet(
        SERVABLE,
        INITIAL_WORKERS,
        MAX_BATCH_SIZE,
        COALESCE_DELAY_S,
        copies=INITIAL_WORKERS,
        tracer=tracer,
        tenants=TENANTS,
        seed=seed,
    )
    testbed, tokens = fleet.testbed, fleet.tokens
    monitor = SLOBurnMonitor()
    gateway = ServingGateway(testbed.auth, runtime, fleet.policies, slo_monitor=monitor)

    store = SeriesStore()
    engine = AlertEngine(
        store,
        rules=[
            BurnRateRule(
                f"burn:{tenant}",
                tenant,
                fast_window_s=0.3,
                slow_window_s=1.0,
            )
            for tenant in TENANTS
        ],
    )
    sampler = AdaptiveSampler(tracer) if reactive else None
    base_policy = TargetUtilizationPolicy()
    policy = (
        ReactiveSLOPolicy(base=base_policy, gateway=gateway)
        if reactive
        else base_policy
    )
    controller = FleetController(
        runtime,
        provision_worker=testbed.add_fleet_worker,
        policy=policy,
        interval_s=RECONCILE_INTERVAL_S,
        min_workers=INITIAL_WORKERS,
        max_workers=MAX_WORKERS,
        autoscale_replicas=False,
        gateway=gateway,
        slo_monitor=monitor,
        alert_engine=engine,
    )
    hub = build_hub(
        runtime=runtime,
        gateway=gateway,
        controller=controller,
        tracer=tracer,
        monitor=monitor,
    )
    loop = ObservabilityLoop(
        testbed.clock,
        hub,
        store=store,
        engine=engine,
        monitor=monitor,
        sampler=sampler,
        scrape_interval_s=SCRAPE_INTERVAL_S,
    )
    # The controller self-attached at construction; re-attach with the
    # loop in *front* so each reconcile drains freshly evaluated
    # transitions.
    runtime.attach_controller(loop, controller)

    fixed = sample_input(SERVABLE)
    arrivals = [
        (offset, tokens["light"], TaskRequest(SERVABLE, args=fixed))
        for offset in phased_offsets(((DURATION_S, LIGHT_RATE_RPS),))
    ] + [
        (offset, tokens["hot"], TaskRequest(SERVABLE, args=fixed))
        for offset in phased_offsets(HOT_PHASES)
    ]
    start = testbed.clock.now()
    results = gateway.serve(sorted(arrivals, key=lambda entry: entry[0]))
    assert all(r.ok for r in results if r.admitted)
    # Cooldown: let the backlog drain, the burn cool, and the alert
    # resolve (which lifts any reactive overrides).
    for _ in range(COOLDOWN_TICKS):
        testbed.clock.advance(RECONCILE_INTERVAL_S)
        loop.on_tick()
        controller.reconcile()

    incident_start, incident_end = INCIDENT_WINDOW_S
    firings = controller.events_of("alert_firing")
    resolves = controller.events_of("alert_resolved")
    hot_firings = [e for e in firings if e.subject == "burn:hot"]
    denied: dict[str, int] = {}
    for result in results:
        if not result.admitted:
            outcome = result.decision.outcome.value
            denied[outcome] = denied.get(outcome, 0) + 1

    row: dict = {
        "requests": len(results),
        "admitted": sum(1 for r in results if r.admitted),
        "denied": denied,
        "peak_workers": controller.peak_routable_workers,
        "final_workers": len(runtime.alive_workers()),
        "scrapes": loop.scrapes,
        "makespan_s": testbed.clock.now() - start,
        "first_firing_s": (
            round(hot_firings[0].time - start - incident_start, 3)
            if hot_firings
            else None
        ),
        "alerts": {
            "firing": sorted({e.subject for e in firings}),
            "resolved": sorted({e.subject for e in resolves}),
        },
        "phase_p95_ms": {
            tenant: {
                "quiet": _phase_p95_ms(results, tenant, 0.0, incident_start, start),
                "incident": _phase_p95_ms(
                    results, tenant, incident_start, incident_end, start
                ),
                "recovery": _phase_p95_ms(
                    results, tenant, incident_end, DURATION_S, start
                ),
            }
            for tenant in TENANTS
        },
    }
    if reactive:
        row["policy"] = {
            "boosts": policy.boosts,
            "sheds": policy.sheds,
            "reverts": policy.reverts,
            "active_sheds": dict(policy.active_sheds),
        }
        row["sampler"] = {
            "peak_rates": dict(sampler.peak_rates),
            "escalations": dict(sampler.escalations),
            "active": dict(sampler.active),
            "base_rate": TRACE_BASE_RATE,
        }
        row["admission_overrides_live"] = {
            tenant: gateway.admission_override(tenant)
            for tenant in TENANTS
            if gateway.admission_override(tenant) is not None
        }
    return row


def run_experiment(seed: int = 13) -> dict:
    """Both arms over the identical incident schedule."""
    observe = _run_arm(seed, reactive=False)
    reactive = _run_arm(seed, reactive=True)
    return {
        "params": {
            "servable": SERVABLE,
            "light_rate_rps": LIGHT_RATE_RPS,
            "hot_phases": [list(phase) for phase in HOT_PHASES],
            "incident_window_s": list(INCIDENT_WINDOW_S),
            "initial_workers": INITIAL_WORKERS,
            "max_workers": MAX_WORKERS,
            "max_batch_size": MAX_BATCH_SIZE,
            "scrape_interval_s": SCRAPE_INTERVAL_S,
            "reconcile_interval_s": RECONCILE_INTERVAL_S,
            "firing_bound_scrapes": FIRING_BOUND_SCRAPES,
            "trace_base_rate": TRACE_BASE_RATE,
        },
        "arms": {"observe": observe, "reactive": reactive},
    }
