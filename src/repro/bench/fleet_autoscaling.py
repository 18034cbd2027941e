"""Ablation — static fleet vs reactive vs *predictive* autoscaling.

The paper scales a *static* deployment (Fig. 7: throughput vs replica
count, fixed fleet). This experiment measures what the fleet control
plane (:mod:`repro.core.fleet`) adds when arrival rates move: the same
ramped open-loop schedule (warm -> spike -> cool) is served by

* **static** — the peak-size worker fleet with the data plane's default
  placement (one copy per servable): the PR-1 status quo, where extra
  workers exist but nothing re-shards the hot servable onto them;
* **static_sharded** — the same fleet pre-sharded onto every worker, an
  oracle that knew the spike was coming (upper bound, and permanently
  paying for peak capacity);
* **autoscaled** — one worker plus a :class:`FleetController` running
  the reactive :class:`TargetUtilizationPolicy`, bounded by the same
  peak worker count: it must *detect* the spike, provision workers
  (paying container cold starts), re-shard the hot servable, and drain
  back down afterwards;
* **predictive** — the same controller wrapped in
  :class:`PredictiveScaling`: an :class:`ArrivalForecaster` projects
  demand one provisioning lead time ahead, so the spike's rising edge
  triggers the full scale-up one or more reconciles before the
  reactive EWMA catches up — capacity lands earlier, so requests that
  arrive *during the spike* wait less.

Expected shape: both controlled arms beat the static default placement
at equal peak worker count (cold starts keep them above the oracle);
the predictive arm's spike-phase p95 queue wait is strictly below the
reactive arm's, with `demand_forecast` events logging each
pre-provision decision.

A second experiment (:func:`run_drain_experiment`) flips the question
to scale-*down*: a sustained low tail after the spike, measuring
whether the forecaster's post-burst trend crash whiplashes capacity
back up mid-drain once the planner floors its rate at
``max(current, forecast)``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.workloads import build_fleet, phased_offsets
from repro.core.fleet import (
    FleetController,
    FleetPolicy,
    PredictiveScaling,
    TargetUtilizationPolicy,
)
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.zoo import sample_input

#: (arrival rate rps, duration s) phases: warm, spike, cool-down tail.
ARRIVAL_PHASES = ((150.0, 1.0), (800.0, 5.0), (100.0, 3.0))
#: [start, end) offsets of the spike phase within the schedule.
SPIKE_WINDOW = (
    ARRIVAL_PHASES[0][1],
    ARRIVAL_PHASES[0][1] + ARRIVAL_PHASES[1][1],
)
#: Drain-phase schedule: shorter spike, then a *sustained* low tail long
#: enough that the controllers finish draining while traffic still flows
#: — the regime where post-burst forecast whiplash would re-provision.
DRAIN_PHASES = ((150.0, 1.0), (800.0, 3.0), (60.0, 8.0))
SERVABLE = "matminer_util"
MAX_WORKERS = 4
MAX_BATCH_SIZE = 32
COALESCE_DELAY_S = 0.005
RECONCILE_INTERVAL_S = 0.25
#: Post-schedule reconcile passes that let the controller finish draining.
COOLDOWN_TICKS = 20


def _waits(records, start: float, end: float) -> list[float]:
    """Queue waits of the requests that enqueued in ``[start, end)``."""
    return [
        r.claimed_at - r.enqueued_at for r in records if start <= r.enqueued_at < end
    ]


def _serve(
    runtime: ServingRuntime, servable: str, phases: tuple, spike_window: tuple
) -> tuple[dict, list]:
    """Serve ``(rate, duration)`` phases of fixed-input requests; returns
    the row and the settled records.

    The row is measured when the last request settles, so a controlled
    arm's makespan and throughput exclude its post-traffic cooldown.
    """
    fixed = sample_input(servable)
    start = runtime.clock.now()
    results = runtime.serve(
        [
            (offset, TaskRequest(servable, args=fixed))
            for offset in phased_offsets((d, rate) for rate, d in phases)
        ]
    )
    makespan = runtime.clock.now() - start
    assert all(r.result.ok for r in results)
    waits = np.asarray(runtime.stage_metrics.samples("queue_wait", servable))
    # The waits of requests that arrived mid-spike — the phase a
    # predictive scaler is supposed to rescue.
    spike_waits = _waits(results, start + spike_window[0], start + spike_window[1])
    return {
        "served": len(results),
        "throughput_rps": len(results) / makespan,
        "median_queue_wait_ms": float(np.median(waits)) * 1e3,
        "p95_queue_wait_ms": float(np.percentile(waits, 95)) * 1e3,
        "spike_p95_queue_wait_ms": float(np.percentile(spike_waits, 95)) * 1e3,
        "makespan_s": makespan,
        "mean_batch_size": runtime.mean_batch_size,
    }, results


def _run_static(servable: str, copies: int, seed: int) -> dict:
    _, runtime = build_fleet(
        servable, MAX_WORKERS, MAX_BATCH_SIZE, COALESCE_DELAY_S, copies, seed=seed
    )
    row, _ = _serve(runtime, servable, ARRIVAL_PHASES, SPIKE_WINDOW)
    row.update(
        peak_workers=MAX_WORKERS,
        final_workers=MAX_WORKERS,
        # A static fleet pays for every worker the whole run.
        worker_seconds=MAX_WORKERS * row["makespan_s"],
    )
    return row


def _run_autoscaled(
    servable: str,
    seed: int,
    policy: FleetPolicy | None = None,
    phases: tuple = ARRIVAL_PHASES,
) -> tuple[dict, FleetController]:
    fleet, runtime = build_fleet(servable, 1, MAX_BATCH_SIZE, COALESCE_DELAY_S, seed=seed)
    testbed = fleet.testbed
    controller = FleetController(
        runtime,
        provision_worker=testbed.add_fleet_worker,
        policy=policy or TargetUtilizationPolicy(),
        interval_s=RECONCILE_INTERVAL_S,
        min_workers=1,
        max_workers=MAX_WORKERS,
        # Replica scaling targets streaming workloads (Fig. 7); pod cold
        # starts would only stall the coalesced hot path measured here.
        autoscale_replicas=False,
    )
    spike_window = (phases[0][1], phases[0][1] + phases[1][1])
    start = testbed.clock.now()
    row, records = _serve(runtime, servable, phases, spike_window)
    # Traffic has stopped; keep reconciling so the controller drains the
    # spike capacity back down to min_workers.
    for _ in range(COOLDOWN_TICKS):
        testbed.clock.advance(RECONCILE_INTERVAL_S)
        controller.reconcile()
    end = testbed.clock.now()
    worker_seconds = end - start  # the initial worker, whole run
    lifetimes: dict[str, float] = {}
    for event in controller.events:
        if event.kind == "worker_provisioned":
            lifetimes[event.subject] = event.time
        elif event.kind == "worker_retired" and event.subject in lifetimes:
            worker_seconds += event.time - lifetimes.pop(event.subject)
    worker_seconds += sum(end - born for born in lifetimes.values())
    # Drain-phase diagnostics: a whiplashing controller re-provisions
    # after the spike has ended; a healthy one only drains.
    spike_end = start + spike_window[1]
    tail_end = start + sum(duration for _, duration in phases)
    tail_waits = _waits(records, spike_end, tail_end)
    retires = [
        event.time
        for event in controller.events
        if event.kind == "worker_retired"
    ]
    row.update(
        peak_workers=controller.peak_routable_workers,
        final_workers=len(runtime.alive_workers()),
        worker_seconds=worker_seconds,
        post_spike_provisions=sum(
            1
            for event in controller.events
            if event.kind == "worker_provisioned" and event.time > spike_end
        ),
        drain_complete_s=(max(retires) - spike_end) if retires else None,
        tail_p95_queue_wait_ms=(
            float(np.percentile(tail_waits, 95)) * 1e3 if tail_waits else None
        ),
    )
    return row, controller


def _event_rows(controller: FleetController) -> list[dict]:
    return [
        {
            "t": round(event.time, 3),
            "kind": event.kind,
            "subject": event.subject,
            **event.detail,
        }
        for event in controller.events
    ]


def run_experiment(servable: str = SERVABLE, seed: int = 0) -> dict:
    """Returns ``{"params", "arms": {arm: row}, "events": {arm: [...]}}``."""
    static = _run_static(servable, copies=1, seed=seed)
    sharded = _run_static(servable, copies=MAX_WORKERS, seed=seed)
    autoscaled, reactive_controller = _run_autoscaled(servable, seed=seed)
    predictive, predictive_controller = _run_autoscaled(
        servable,
        seed=seed,
        policy=PredictiveScaling(TargetUtilizationPolicy()),
    )
    offered = sum(int(rate * duration) for rate, duration in ARRIVAL_PHASES)
    return {
        "params": {
            "servable": servable,
            "phases": ARRIVAL_PHASES,
            "spike_window_s": SPIKE_WINDOW,
            "offered_requests": offered,
            "max_workers": MAX_WORKERS,
            "reconcile_interval_s": RECONCILE_INTERVAL_S,
        },
        "arms": {
            "static": static,
            "static_sharded": sharded,
            "autoscaled": autoscaled,
            "predictive": predictive,
        },
        "events": {
            "autoscaled": _event_rows(reactive_controller),
            "predictive": _event_rows(predictive_controller),
        },
    }


def run_drain_experiment(servable: str = SERVABLE, seed: int = 0) -> dict:
    """Scale-*down* ablation: does forecast whiplash defer the drain?

    Serves :data:`DRAIN_PHASES` (short spike, long sustained low tail)
    with the reactive controller and the predictive controller.
    Post-burst, the Holt trend projects the rate far below the real
    settling level; if that downswing reached the planner, the
    subsequent upward over-correction would re-provision capacity the
    drain just shed (whiplash). The metrics that would show it:
    ``post_spike_provisions`` (re-provisions after the spike ends),
    ``drain_complete_s`` (how long past the spike the last worker
    retires), tail-phase p95 wait, and total ``worker_seconds``.

    Empirical finding (why the forecaster needs no trend damping):
    :class:`PredictiveScaling` plans on ``max(current, forecast)``, so a
    crashed forecast is floored at the observed rate and never reaches
    the base policy — and the dt-scaled trend gain recovers the slope
    monotonically, without the sign-flipping oscillation that would push
    projections *above* the observed tail. The predictive arm drains
    with zero whiplash.
    """
    reactive, reactive_controller = _run_autoscaled(
        servable, seed=seed, phases=DRAIN_PHASES
    )
    predictive, predictive_controller = _run_autoscaled(
        servable,
        seed=seed,
        policy=PredictiveScaling(TargetUtilizationPolicy()),
        phases=DRAIN_PHASES,
    )
    offered = sum(int(rate * duration) for rate, duration in DRAIN_PHASES)
    return {
        "params": {
            "servable": servable,
            "phases": DRAIN_PHASES,
            "offered_requests": offered,
            "max_workers": MAX_WORKERS,
            "reconcile_interval_s": RECONCILE_INTERVAL_S,
        },
        "arms": {"reactive": reactive, "predictive": predictive},
        "events": {
            "reactive": _event_rows(reactive_controller),
            "predictive": _event_rows(predictive_controller),
        },
    }
