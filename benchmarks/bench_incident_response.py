"""Closed-loop incident response: the observability loop acts, and it helps.

Runs :mod:`repro.bench.incident_response`: one hot tenant bursts to ~7x
its steady rate against an under-provisioned fleet (2 of 4 workers)
while a light tenant keeps a constant trickle. Both arms attach the
full observability loop (hub scrapes into a
:class:`~repro.core.obsloop.SeriesStore`, per-tenant
:class:`~repro.core.obsloop.BurnRateRule` alerts, transitions drained
into fleet events); only the **reactive** arm lets
:class:`~repro.core.obsloop.ReactiveSLOPolicy` act on the alerts
(planning-rate boost while the fleet can grow, admission shedding once
it cannot) with an :class:`~repro.core.obsloop.AdaptiveSampler`
escalating the burning tenant's trace sampling.

Expected (the loop's end-to-end acceptance):

1. the hot tenant's burn alert fires within a bounded number of scrape
   intervals of the incident starting, in both arms;
2. at equal peak worker count, the reactive arm's post-incident
   (recovery-phase) hot-tenant p95 is strictly below the observe arm's;
3. sampling escalates on the burning tenant only — the light tenant's
   rate never leaves base;
4. every reactive intervention reverts once the alert resolves.

Results land in ``BENCH_incident_response.json`` (virtual-time, so the
full run is bit-for-bit deterministic).
"""

import pytest
from conftest import run_once

from repro.bench.incident_response import SCRAPE_INTERVAL_S, run_experiment
from repro.bench.report import render, write


def _check_loop_closed(report: dict) -> None:
    """Assertions shared by the smoke and full runs."""
    params = report["params"]
    observe = report["arms"]["observe"]
    reactive = report["arms"]["reactive"]

    # Both arms served the identical offered schedule.
    assert observe["requests"] == reactive["requests"]
    # Detection: the hot burn alert reached firing in both arms, within
    # the bounded number of scrape intervals of the incident starting
    # (the bound covers monitor warm-up, both rule windows filling with
    # hot samples, and one reconcile to drain the event).
    bound_s = params["firing_bound_scrapes"] * SCRAPE_INTERVAL_S
    for arm in (observe, reactive):
        assert "burn:hot" in arm["alerts"]["firing"]
        assert arm["first_firing_s"] is not None
        assert 0.0 <= arm["first_firing_s"] <= bound_s
        # The light tenant never burned: WFQ isolation held.
        assert "burn:light" not in arm["alerts"]["firing"]
    # Resolution: the incident ends and the alert lifecycle completes.
    assert "burn:hot" in reactive["alerts"]["resolved"]

    # Reaction: the reactive arm boosted while the fleet could grow and
    # shed the burning tenant once it could not; the observe arm, with
    # the same alerts firing, denied nothing.
    assert sum(observe["denied"].values()) == 0
    assert reactive["policy"]["boosts"] >= 1
    assert reactive["policy"]["sheds"] >= 1
    assert sum(reactive["denied"].values()) >= 1
    # Adaptive sampling escalated the burning tenant only, and no
    # intervention outlived the alert: overrides and sheds all lifted.
    base = reactive["sampler"]["base_rate"]
    assert reactive["sampler"]["peak_rates"].get("hot", 0.0) > base
    assert "light" not in reactive["sampler"]["peak_rates"]
    assert reactive["sampler"]["active"] == {}
    assert reactive["policy"]["active_sheds"] == {}
    assert reactive["admission_overrides_live"] == {}

    # Outcome: at equal peak fleet size, acting on the alert left the
    # recovery phase strictly less backlogged than observing it.
    assert observe["peak_workers"] == reactive["peak_workers"]
    hot_observe = observe["phase_p95_ms"]["hot"]
    hot_reactive = reactive["phase_p95_ms"]["hot"]
    assert hot_reactive["recovery"] < hot_observe["recovery"]
    # And the light tenant's service was not sacrificed for it.
    light_observe = observe["phase_p95_ms"]["light"]
    light_reactive = reactive["phase_p95_ms"]["light"]
    assert light_reactive["recovery"] <= light_observe["recovery"] * 1.05


@pytest.mark.fast
def test_incident_response_smoke(benchmark):
    """CI smoke: the full closed-loop scenario (virtual time keeps the
    whole two-arm run under a few wall-clock seconds)."""
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    _check_loop_closed(report)


def test_incident_response_full(benchmark):
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    write("incident_response", report)
    _check_loop_closed(report)
