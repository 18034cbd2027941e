"""Ablation bench: multi-tenant fairness with and without the gateway.

Runs :mod:`repro.bench.multi_tenant_fairness`: a light tenant and a
10x-hotter tenant share one servable on a saturated fleet, served three
ways — the light tenant alone (isolated baseline), both tenants behind
the serving gateway (admission + WFQ lanes + slot shares + WFQ-tagged
dispatch arbitration), and both tenants straight onto the runtime's
FIFO topic (the pre-gateway status quo).

The gateway arm's slot budget is derived live from fleet capacity,
and the arm grows the fleet by two workers mid-run, so the bench also
guards the budget re-derivation: fairness must hold through a
scale-up, with no slot tuning.

Expected: behind the gateway the light tenant's p95 end-to-end latency
stays within 2x of its isolated baseline while the ungated arm degrades
by an order of magnitude (growing with the hot tenant's backlog), the
hot tenant still gets the bulk of the fleet (work conservation), and
every admitted request is served.

A fourth arm re-runs the contended scenario fully traced (100% head
sampling) with a shared SLO burn monitor: every settled request must
carry a complete well-nested span tree, the span-stage sums must
reconcile against the untraced ``StageLatencyCollector`` aggregates
within float tolerance, and an ``slo_burn`` fleet event must fire
during the induced overload — the tracing acceptance scenario.
"""

import pytest
from conftest import run_once

from repro.bench.multi_tenant_fairness import run_experiment
from repro.bench.report import render, write


@pytest.mark.fast
def test_ablation_multi_tenant_fairness(benchmark):
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    write("multi_tenant_fairness", report)

    params = report["params"]
    arms = report["arms"]
    isolated = arms["light_isolated"]["tenants"]["light"]
    fair_light = arms["gateway"]["tenants"]["light"]
    fair_hot = arms["gateway"]["tenants"]["hot"]
    raw_light = arms["ungated"]["tenants"]["light"]

    # Every offered request is admitted and served in every arm.
    assert isolated["served"] == params["offered_light"]
    assert fair_light["served"] == params["offered_light"]
    assert fair_hot["served"] == params["offered_hot"]
    assert raw_light["served"] == params["offered_light"]

    # The slot budget is live: the mid-run scale-up (two joining
    # workers) must have re-derived it upward, with no manual sizing.
    budget = arms["gateway"]["slot_budget"]
    workers = arms["gateway"]["workers"]
    assert workers["final"] == workers["initial"] + len(workers["added"])
    assert len(workers["added"]) == 2
    assert budget["final"] > budget["initial"]

    # The acceptance bar: under a 10:1 skew — and through the mid-run
    # fleet scale-up, with the dispatch-slot budget derived live — the
    # gateway holds the light tenant's p95 within 2x of its isolated-run
    # p95...
    assert fair_light["p95_ms"] < 2.0 * isolated["p95_ms"]
    # ...while the ungated FIFO path degrades it by an order of
    # magnitude (and unboundedly in offered load — the backlog grows
    # for the whole run).
    assert raw_light["p95_ms"] > 10 * isolated["p95_ms"]
    assert raw_light["p95_ms"] > 4 * fair_light["p95_ms"]

    # Work conservation: fairness must not idle the fleet — the hot
    # tenant's drain (gateway arm) finishes in comparable time to the
    # ungated free-for-all.
    assert arms["gateway"]["makespan_s"] < 1.5 * arms["ungated"]["makespan_s"]

    # Tenant-pure micro-batching still amortizes the hot tenant.
    assert arms["gateway"]["mean_batch_size"] > 2.0

    # --- tracing acceptance (the telemetry arm) -----------------------
    telemetry = report["telemetry"]
    offered = params["offered_light"] + params["offered_hot"]
    # At 100% head sampling every settled request was retained and its
    # span tree is complete and well-nested.
    assert telemetry["requests"] == offered
    assert telemetry["traces_retained"] == offered
    assert telemetry["complete_span_trees"] == offered
    # Stage sums across all span trees reconcile against the untraced
    # StageLatencyCollector aggregates within float tolerance.
    for stage, row in telemetry["reconciliation"].items():
        assert row["collector_sum_s"] > 0, stage
        assert abs(row["delta_s"]) < 1e-6 * max(row["collector_sum_s"], 1.0), (
            stage,
            row,
        )
    # The hot tenant's overload burns its SLO budget: at least one
    # slo_burn fleet event fires while traffic is still flowing.
    assert telemetry["slo_burns"] >= 1
    assert telemetry["first_burn_s"] is not None
    assert telemetry["first_burn_s"] <= params["duration_s"]
    assert "hot" in telemetry["burn_tenants"]
    # The unified hub saw every registered source.
    assert {
        "stage_latency",
        "runtime",
        "tenant_usage",
        "wfq_lanes",
        "fleet_events",
        "tracer",
        "slo_burn",
    } <= set(telemetry["hub_sources"])
