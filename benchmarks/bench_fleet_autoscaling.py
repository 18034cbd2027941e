"""Ablation bench: static fleet vs reactive vs predictive autoscaling.

Runs :mod:`repro.bench.fleet_autoscaling`: one ramped arrival schedule
(warm -> spike -> cool) served by a static fleet (default one-copy
placement), an oracle-sharded static fleet, a reactive
:class:`~repro.core.fleet.FleetController`
(:class:`~repro.core.fleet.TargetUtilizationPolicy`), and the same
controller wrapped in :class:`~repro.core.fleet.PredictiveScaling`,
all bounded by the same peak worker count.

Expected: both controlled arms sustain the spike far better than the
static fleet at equal peak worker count (container cold starts keep
them above the pre-sharded oracle); the predictive arm's *spike-phase*
p95 queue wait is strictly below the reactive arm's because the
forecaster orders capacity one provisioning lead time ahead of the
demand, and its event log records every pre-provision decision as a
``demand_forecast`` event.

A second test runs the drain-phase ablation
(:func:`~repro.bench.fleet_autoscaling.run_drain_experiment`): spike
into a sustained low tail, asserting zero post-spike re-provisioning
(whiplash) in the reactive and the predictive arm — the empirical
record of why the forecaster needs no trend damping under a
``max(current, forecast)`` planner.
"""

import pytest
from conftest import run_once

from repro.bench.fleet_autoscaling import (
    MAX_WORKERS,
    run_drain_experiment,
    run_experiment,
)
from repro.bench.report import render, write


@pytest.mark.fast
def test_ablation_fleet_autoscaling(benchmark):
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    write("fleet_autoscaling", report)

    arms = report["arms"]
    static, sharded, autoscaled, predictive = (
        arms["static"],
        arms["static_sharded"],
        arms["autoscaled"],
        arms["predictive"],
    )
    offered = report["params"]["offered_requests"]
    # Every arm serves the whole schedule successfully.
    for row in arms.values():
        assert row["served"] == offered
    # Equal peak fleet size: the controllers are allowed no more workers
    # than the static arms own outright.
    assert (
        autoscaled["peak_workers"]
        == predictive["peak_workers"]
        == static["peak_workers"]
        == MAX_WORKERS
    )
    # The control plane sustains the spike far better than the static
    # default placement with the same peak fleet...
    assert autoscaled["p95_queue_wait_ms"] < 0.5 * static["p95_queue_wait_ms"]
    assert autoscaled["throughput_rps"] > static["throughput_rps"]
    # ...while cold starts keep it honest against the pre-sharded oracle.
    assert autoscaled["p95_queue_wait_ms"] > sharded["p95_queue_wait_ms"]
    # Forecasting lands capacity before the spike: requests arriving
    # mid-spike wait strictly less than under the reactive policy.
    assert (
        predictive["spike_p95_queue_wait_ms"]
        < autoscaled["spike_p95_queue_wait_ms"]
    )
    assert predictive["p95_queue_wait_ms"] < autoscaled["p95_queue_wait_ms"]
    # Elasticity: both scale back down after the spike and neither pays
    # for more worker-seconds than the always-on oracle (plus margin).
    for row in (autoscaled, predictive):
        assert row["final_workers"] < row["peak_workers"]
        assert row["worker_seconds"] <= sharded["worker_seconds"] * 1.1
    # The event logs record the scale-up and the drain; the predictive
    # arm additionally records its pre-provision decisions.
    for arm in ("autoscaled", "predictive"):
        kinds = {event["kind"] for event in report["events"][arm]}
        assert "worker_provisioned" in kinds
        assert "worker_draining" in kinds and "worker_retired" in kinds
        assert "copy_added" in kinds
    predictive_kinds = [e["kind"] for e in report["events"]["predictive"]]
    assert "demand_forecast" in predictive_kinds
    # The forecaster's scale-ahead fired before the reactive arm's first
    # provision (that is the whole mechanism).
    first_provision = {
        arm: next(
            e["t"]
            for e in report["events"][arm]
            if e["kind"] == "worker_provisioned"
        )
        for arm in ("autoscaled", "predictive")
    }
    assert first_provision["predictive"] < first_provision["autoscaled"]


@pytest.mark.fast
def test_drain_phase_whiplash(benchmark):
    """Scale-down: no post-spike re-provisioning in either arm.

    The planner floors its rate at ``max(current, forecast)``, so the
    post-burst forecast crash never reaches it and there is no
    whiplash for a damped trend to remove.
    """
    report = run_once(benchmark, run_drain_experiment)
    print("\n" + render(report))
    write("fleet_autoscaling_drain", report)

    arms = report["arms"]
    offered = report["params"]["offered_requests"]
    tail_s = report["params"]["phases"][-1][1]
    for arm, row in arms.items():
        assert row["served"] == offered
        # Zero whiplash: once the spike ends, no arm ever provisions
        # again — capacity only drains.
        assert row["post_spike_provisions"] == 0
        # And the drain completes well inside the sustained tail, not
        # in the post-traffic cooldown.
        assert row["final_workers"] == 1
        assert row["drain_complete_s"] is not None
        assert row["drain_complete_s"] < tail_s
