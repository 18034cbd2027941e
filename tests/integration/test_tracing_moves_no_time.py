"""Tracing is observation only: the sample rate moves no modelled time.

A small reactive incident — a hot tenant bursting beside a light one,
through the gateway, a fleet controller under ``ReactiveSLOPolicy``, an
``ObservabilityLoop`` with burn-rate rules and an ``AdaptiveSampler`` —
is served twice, once tracing 2% of requests and once tracing all of
them. Every settlement, every denial and every control-plane event must
come out identical (``==``, not approx): a tracer that changed when a
request was admitted, dispatched or settled, or what the controller
saw, would make every traced measurement a measurement of the tracer.
"""

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
#: Hot tenant phases, (duration_s, rate_rps): quiet, burst, recovery.
HOT_PHASES = ((0.5, 80.0), (1.0, 800.0), (0.5, 80.0))
LIGHT_RATE_RPS = 40.0


def serve_incident(sample_rate: float):
    """The incident, wired as ``repro.bench.incident_response``'s
    reactive arm wires it, traced at ``sample_rate``."""
    tracer = Tracer(sample_rate=sample_rate)
    fleet, runtime = build_fleet(
        SERVABLE, 2, 8, 0.005, copies=2, tracer=tracer, tenants=TENANTS
    )
    testbed, tokens = fleet.testbed, fleet.tokens
    monitor = SLOBurnMonitor()
    gateway = ServingGateway(testbed.auth, runtime, fleet.policies, slo_monitor=monitor)
    store = SeriesStore()
    engine = AlertEngine(
        store,
        rules=[
            BurnRateRule(f"burn:{tenant}", tenant, fast_window_s=0.3, slow_window_s=1.0)
            for tenant in TENANTS
        ],
    )
    controller = FleetController(
        runtime,
        provision_worker=testbed.add_fleet_worker,
        policy=ReactiveSLOPolicy(base=TargetUtilizationPolicy(), gateway=gateway),
        interval_s=0.25,
        min_workers=2,
        max_workers=4,
        autoscale_replicas=False,
        gateway=gateway,
        slo_monitor=monitor,
        alert_engine=engine,
    )
    hub = build_hub(
        runtime=runtime, gateway=gateway, controller=controller, tracer=tracer, monitor=monitor
    )
    loop = ObservabilityLoop(
        testbed.clock,
        hub,
        store=store,
        engine=engine,
        monitor=monitor,
        sampler=AdaptiveSampler(tracer),
        scrape_interval_s=0.1,
    )
    runtime.attach_controller(loop, controller)

    fixed = sample_input(SERVABLE)
    duration_s = sum(duration for duration, _ in HOT_PHASES)
    # Explicit ids: the process-wide task counter moves between the runs.
    arrivals = [
        (offset, tokens[tenant], TaskRequest(SERVABLE, args=fixed, task_uuid=f"{tenant}-{i}"))
        for tenant, phases in (
            ("light", ((duration_s, LIGHT_RATE_RPS),)),
            ("hot", HOT_PHASES),
        )
        for i, offset in enumerate(phased_offsets(phases))
    ]
    results = gateway.serve(sorted(arrivals, key=lambda entry: entry[0]))
    settled = [
        (
            r.request.task_uuid,
            r.arrived_at,
            r.completed_at,
            r.worker,
            r.batch_size,
            r.status,
        )
        for r in results
        if r.completed
    ]
    denied = [
        (r.request.task_uuid, r.arrived_at, r.decision.outcome)
        for r in results
        if not r.admitted
    ]
    return settled, denied, controller.events, tracer


def test_the_sample_rate_moves_no_modelled_time():
    sparse = serve_incident(0.02)
    full = serve_incident(1.0)
    settled, denied, events, tracer = full
    # The scenario is an incident: the burst is shed at the door, alerts
    # fire and the fleet reacts — and every trace is kept at full rate.
    assert denied and len(settled) > 500
    assert {event.kind for event in events} >= {"alert_firing", "worker_provisioned"}
    assert len(tracer.retained) > len(sparse[3].retained)
    assert sparse[0] == settled
    assert sparse[1] == denied
    assert sparse[2] == events
