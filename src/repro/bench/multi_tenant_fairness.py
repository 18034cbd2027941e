"""Ablation — multi-tenant fairness with and without the gateway.

DLHub is one shared service for many scientists, but nothing in the
paper (or in the PR-2 data plane) stops one hot tenant from starving
everyone else once the fleet saturates: per-servable queue topics are
FIFO, so a light tenant's request queues behind the hot tenant's whole
backlog. This experiment measures what the serving gateway's admission
control + weighted fair queuing buy under a 10:1 offered-load skew:

* **light_isolated** — the light tenant alone on the gateway-fronted
  fleet: its no-contention baseline p95;
* **gateway** — hot (10x) and light tenants together behind the
  gateway: WFQ meters dispatch slots across tenant lanes, so the light
  tenant's p95 should stay within ~2x of its isolated baseline while
  the hot tenant absorbs the queueing its own backlog causes;
* **ungated** — the same combined schedule submitted straight to the
  runtime's FIFO topics (the pre-gateway status quo): the light
  tenant's latency degrades toward the hot tenant's, growing with the
  backlog (unbounded in offered load).

A separate **telemetry** section re-runs the contended arm fully
traced (100% head sampling) with a shared
:class:`~repro.core.telemetry.SLOBurnMonitor`: every settled request
must produce a complete well-nested span tree, span-stage sums must
reconcile against the untraced ``StageLatencyCollector`` aggregates,
and the hot tenant's overload must fire ``slo_burn`` fleet events
through an observe-only controller — the tracing acceptance scenario.

The gateway derives its outstanding-dispatch budget
(``max_dispatch_slots``) live from fleet capacity, and
the contended arm grows the fleet mid-run (two workers join while
traffic flows) — the budget must track the scale-up, and the light
tenant's protection must hold through it. That protection now lives in
the dispatch decision itself (WFQ virtual-finish tags break ties in
``ServingRuntime._next_window``), so it no longer depends on sizing the
slot budget tightly against ``max_batch_size * workers``.

Both tenants get equal weights — the fairness here is *isolation from
someone else's backlog*, not priority. Memoization is off so repeated
fixed inputs measure dispatch, not the cache (as in the other benches).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.bench.workloads import build_fleet, phased_offsets
from repro.core.fleet import FleetController, FleetPlan, FleetPolicy
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.telemetry import SLOBurnMonitor, Tracer, build_hub
from repro.core.testbed import DLHubTestbed
from repro.core.zoo import sample_input
from repro.gateway import ServingGateway

SERVABLE = "matminer_util"
LIGHT_RATE_RPS = 80.0
#: 10:1 offered-load skew (the acceptance scenario). 880 rps offered
#: against ~710 rps fleet capacity: saturated, so the ungated arm's
#: backlog (and the light tenant's FIFO latency) grows with load.
HOT_RATE_RPS = 800.0
DURATION_S = 3.0
N_WORKERS = 4
MAX_BATCH_SIZE = 8
COALESCE_DELAY_S = 0.005
#: When the contended arm's fleet grows mid-run (virtual seconds after
#: serving starts). Each join re-derives the live slot budget.
SCALE_UP_AT_S = (0.6, 1.2)
TENANTS = ("hot", "light")
#: Each tenant's constant-rate arrival offsets across the run.
OFFSETS = {
    "light": phased_offsets(((DURATION_S, LIGHT_RATE_RPS),)),
    "hot": phased_offsets(((DURATION_S, HOT_RATE_RPS),)),
}
#: The fleet every arm starts from (keywords of ``build_fleet``).
FLEET = {
    "n_workers": N_WORKERS,
    "max_batch_size": MAX_BATCH_SIZE,
    "max_coalesce_delay_s": COALESCE_DELAY_S,
    "copies": N_WORKERS,
    "tenants": TENANTS,
}


def _tenant_arrivals(tokens: dict[str, str], tenants: tuple[str, ...]) -> list:
    """Each tenant's fixed-input requests under its token, by offset."""
    fixed = sample_input(SERVABLE)
    arrivals = [
        (offset, tokens[tenant], TaskRequest(SERVABLE, args=fixed))
        for tenant in tenants
        for offset in OFFSETS[tenant]
    ]
    return sorted(arrivals, key=lambda entry: entry[0])


class _MidRunScaleUp:
    """Serve-loop controller that grows the fleet while traffic flows.

    The control-plane action the live slot budget must track: each
    joining worker re-derives the gateway's outstanding-dispatch budget
    (via the runtime's fleet-change notification) and gains a servable
    copy, becoming routable once its deployment cold start completes.
    """

    def __init__(
        self,
        testbed: DLHubTestbed,
        runtime: ServingRuntime,
        servable_name: str,
        at_offsets: tuple[float, ...],
    ) -> None:
        self.testbed = testbed
        self.runtime = runtime
        self.servable_name = servable_name
        base = testbed.clock.now()
        self._plan = deque(
            (base + offset, i) for i, offset in enumerate(at_offsets)
        )
        self.added: list[str] = []

    def next_wakeup(self) -> float:
        """When the next planned worker joins (``inf`` once all have)."""
        return self._plan[0][0] if self._plan else math.inf

    def on_tick(self) -> None:
        """Add every worker whose join time has come, with a copy."""
        while self._plan and self._plan[0][0] <= self.testbed.clock.now() + 1e-12:
            _, i = self._plan.popleft()
            worker = self.testbed.add_fleet_worker(f"scale-w{i}")
            self.runtime.add_worker(worker)
            self.runtime.add_copy(self.servable_name, worker)
            self.added.append(worker.name)


def _tenant_row(latencies: list[float]) -> dict:
    values = np.asarray(latencies)
    return {
        "served": int(values.size),
        "median_ms": float(np.median(values)) * 1e3,
        "p95_ms": float(np.percentile(values, 95)) * 1e3,
    }


def _run_gateway_arm(seed: int, include_hot: bool, scale_up: bool = False) -> dict:
    fleet, runtime = build_fleet(SERVABLE, seed=seed, **FLEET)
    testbed = fleet.testbed
    # The slot budget is derived live from fleet capacity and
    # re-derived as workers join mid-run.
    gateway = ServingGateway(testbed.auth, runtime, fleet.policies)
    initial_slots = gateway.max_dispatch_slots
    scaler = None
    if scale_up:
        scaler = _MidRunScaleUp(testbed, runtime, SERVABLE, SCALE_UP_AT_S)
        runtime.attach_controller(scaler)
    arrivals = _tenant_arrivals(fleet.tokens, ("light", "hot") if include_hot else ("light",))
    start = testbed.clock.now()
    results = gateway.serve(arrivals)
    assert all(r.admitted and r.ok for r in results)
    by_tenant: dict[str, list[float]] = {}
    for result in results:
        by_tenant.setdefault(result.request.tenant, []).append(result.latency)
    row = {
        "tenants": {t: _tenant_row(lat) for t, lat in sorted(by_tenant.items())},
        "makespan_s": testbed.clock.now() - start,
        "mean_batch_size": runtime.mean_batch_size,
        "admitted": {
            t: gateway.metrics.counters(t).admitted for t in by_tenant
        },
        "slot_budget": {
            "initial": initial_slots,
            "final": gateway.max_dispatch_slots,
        },
        "workers": {
            "initial": N_WORKERS,
            "final": len(runtime.workers),
            "added": list(scaler.added) if scaler is not None else [],
        },
    }
    return row


class _HoldSteadyPolicy(FleetPolicy):
    """Observe-only: plan the fleet exactly as it stands.

    With no ``provision_worker`` and an empty copies plan the
    controller never actuates — it exists to run the observe loop,
    where the shared :class:`SLOBurnMonitor` is checked and fresh
    breaches become ``slo_burn`` fleet events.
    """

    name = "hold-steady"

    def plan(self, observation) -> FleetPlan:
        """Target the current routable fleet; touch no placements."""
        return FleetPlan(
            target_workers=observation.routable_workers, copies={}
        )


def _run_telemetry_arm(seed: int) -> dict:
    """The contended arm re-run fully traced, with SLO burn monitoring.

    100% head sampling means *every* settled request must come back
    with a complete, well-nested span tree, and the span-stage sums
    must reconcile against the :class:`StageLatencyCollector`
    aggregates the untraced path records anyway — the end-to-end proof
    that the deferred settlement-time recording loses nothing. An
    :class:`SLOBurnMonitor` (default knobs: 250 ms SLO, 1 s window,
    burn >= 4x) is shared between the gateway, which feeds it
    settlements, and an observe-only :class:`FleetController`, which
    drains its breaches into ``slo_burn`` events during the induced
    overload (880 rps offered against ~710 rps initial capacity).
    """
    tracer = Tracer(sample_rate=1.0)
    fleet, runtime = build_fleet(SERVABLE, tracer=tracer, seed=seed, **FLEET)
    testbed = fleet.testbed
    slo_monitor = SLOBurnMonitor()
    gateway = ServingGateway(testbed.auth, runtime, fleet.policies, slo_monitor=slo_monitor)
    controller = FleetController(
        runtime,
        policy=_HoldSteadyPolicy(),
        interval_s=0.25,
        max_workers=N_WORKERS + len(SCALE_UP_AT_S),
        autoscale_replicas=False,
        slo_monitor=slo_monitor,
    )
    scaler = _MidRunScaleUp(testbed, runtime, SERVABLE, SCALE_UP_AT_S)
    # The FleetController self-attached at construction; re-attach it
    # behind the mid-run scale-up.
    runtime.attach_controller(scaler, controller)
    hub = build_hub(
        runtime=runtime,
        gateway=gateway,
        controller=controller,
        tracer=tracer,
        monitor=slo_monitor,
    )

    arrivals = _tenant_arrivals(fleet.tokens, ("light", "hot"))
    start = testbed.clock.now()
    results = gateway.serve(arrivals)
    assert all(r.admitted and r.ok for r in results)

    # --- span-tree completeness, request by request -------------------
    complete = 0
    window_sum = 0.0
    # Batch-level spans repeat on every member; dedup by the batch seq
    # attr to reconcile against the collector's one-sample-per-batch
    # records.
    batches: dict[int, tuple[float, float, float]] = {}
    for result in results:
        trace = result.request.trace
        assert trace is not None and trace.finished
        if not trace.missing_stages(gateway=True) and trace.well_formed():
            complete += 1
        (window,) = trace.stages("dispatch_window")
        window_sum += window.duration
        (coalesce,) = trace.stages("coalesce")
        (dispatch,) = trace.stages("dispatch")
        (inference,) = trace.stages("inference")
        batches[coalesce.attrs["batch"]] = (
            # The full batch window (``window_s``), not the member's
            # clamped span — the collector records one per batch.
            coalesce.attrs["window_s"],
            dispatch.duration,
            inference.attrs["batch_inference_s"],
        )

    # --- stage sums vs the untraced collector aggregates --------------
    metrics = runtime.stage_metrics
    reconciliation = {}
    pairs = {
        "queue_wait": window_sum,
        "coalesce_delay": sum(b[0] for b in batches.values()),
        "dispatch": sum(b[1] for b in batches.values()),
        "inference": sum(b[2] for b in batches.values()),
    }
    for stage, span_sum in pairs.items():
        collector_sum = metrics.stage_sum(stage, SERVABLE)
        reconciliation[stage] = {
            "span_sum_s": span_sum,
            "collector_sum_s": collector_sum,
            "delta_s": span_sum - collector_sum,
        }

    burns = controller.events_of("slo_burn")
    snapshot = hub.snapshot()
    return {
        "requests": len(results),
        "complete_span_trees": complete,
        "traces_retained": len(tracer.retained),
        "batches_traced": len(batches),
        "reconciliation": reconciliation,
        "slo_burns": len(burns),
        "first_burn_s": (
            round(burns[0].time - start, 3) if burns else None
        ),
        "burn_tenants": sorted({e.subject for e in burns}),
        "tracer_stats": tracer.stats(),
        "hub_sources": sorted(snapshot["sources"]),
    }


def _run_ungated_arm(seed: int) -> dict:
    """The pre-gateway status quo: everything on one FIFO topic.

    No tenant tags here (tagged requests would get per-tenant lanes);
    the submitter is remembered in ``identity_id`` for attribution only.
    """
    _, runtime = build_fleet(SERVABLE, seed=seed, **FLEET)
    fixed = sample_input(SERVABLE)
    arrivals = [
        (offset, TaskRequest(SERVABLE, args=fixed, identity_id=tenant))
        for tenant in ("light", "hot")
        for offset in OFFSETS[tenant]
    ]
    arrivals.sort(key=lambda pair: pair[0])
    start = runtime.clock.now()
    results = runtime.serve(arrivals)
    assert all(r.result.ok for r in results)
    by_tenant: dict[str, list[float]] = {}
    for result in results:
        by_tenant.setdefault(result.request.identity_id, []).append(result.latency)
    return {
        "tenants": {t: _tenant_row(lat) for t, lat in sorted(by_tenant.items())},
        "makespan_s": runtime.clock.now() - start,
        "mean_batch_size": runtime.mean_batch_size,
    }


def run_experiment(seed: int = 11) -> dict:
    """The three arms plus the fully traced contended re-run."""
    isolated = _run_gateway_arm(seed, include_hot=False)
    gateway = _run_gateway_arm(seed, include_hot=True, scale_up=True)
    ungated = _run_ungated_arm(seed)
    telemetry = _run_telemetry_arm(seed)
    return {
        "params": {
            "servable": SERVABLE,
            "light_rate_rps": LIGHT_RATE_RPS,
            "hot_rate_rps": HOT_RATE_RPS,
            "duration_s": DURATION_S,
            "workers": N_WORKERS,
            "max_batch_size": MAX_BATCH_SIZE,
            "scale_up_at_s": list(SCALE_UP_AT_S),
            "offered_light": len(OFFSETS["light"]),
            "offered_hot": len(OFFSETS["hot"]),
        },
        "arms": {
            "light_isolated": isolated,
            "gateway": gateway,
            "ungated": ungated,
        },
        "telemetry": telemetry,
    }
