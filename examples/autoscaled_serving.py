"""An elastic serving fleet run by the control plane.

One Task Manager and a :class:`FleetController` front two servables,
driven by a *predictive* policy: :class:`PredictiveScaling` wraps the
queue-wait SLO policy and projects each servable's arrival rate one
provisioning lead time ahead (trend extrapolation via
:class:`ArrivalForecaster`), so the spike's rising edge triggers
scale-up before the reactive estimate catches up — every pre-provision
decision lands in the event log as ``demand_forecast``. The controller
provisions workers (paying container cold starts), re-shards the hot
servable, and tunes per-host replica counts with the shared capacity
model; after the spike it drains back down. Then a worker crashes:
health tracking spots it, a replacement is provisioned, placements
migrate, and the crashed worker rejoins once it recovers.

Run with::

    python examples/autoscaled_serving.py
"""

from __future__ import annotations

from collections import Counter

from repro import build_testbed, build_zoo, sample_input
from repro.core.fleet import (
    FleetController,
    PredictiveScaling,
    QueueLatencySLOPolicy,
)
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest

INTERVAL_S = 0.25


def ramp(servable: str, rate_rps: float, duration_s: float, start_s: float = 0.0):
    fixed = sample_input(servable)
    return [
        (start_s + i / rate_rps, TaskRequest(servable, args=fixed))
        for i in range(int(rate_rps * duration_s))
    ]


def show_events(controller: FleetController, since: int) -> int:
    for event in controller.events[since:]:
        extra = f"  {event.detail}" if event.detail else ""
        print(f"  t={event.time:>7.3f}s  {event.kind:<18} {event.subject}{extra}")
    return len(controller.events)


def cool_down(testbed, controller, ticks: int = 16) -> None:
    for _ in range(ticks):
        testbed.clock.advance(INTERVAL_S)
        controller.reconcile()


def main() -> None:
    testbed = build_testbed(username="ops_team")
    zoo = build_zoo(oqmd_entries=80, n_estimators=6)

    worker = testbed.add_fleet_worker("fleet-w0")
    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        [worker],
        max_batch_size=16,
        max_coalesce_delay_s=0.005,
    )
    for name in ("matminer_util", "cifar10"):
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image)

    controller = FleetController(
        runtime,
        provision_worker=testbed.add_fleet_worker,
        # Predictive wrapper: plan on demand projected one provisioning
        # lead time ahead, so capacity lands before the spike peaks.
        policy=PredictiveScaling(QueueLatencySLOPolicy(slo_s=0.080)),
        interval_s=INTERVAL_S,
        min_workers=1,
        max_workers=3,
        autoscale_replicas=True,
        max_replicas_per_host=2,
    )

    print("== spike: matminer_util jumps to 500 req/s ==")
    arrivals = sorted(
        ramp("matminer_util", 500.0, 2.5) + ramp("cifar10", 40.0, 2.5),
        key=lambda pair: pair[0],
    )
    results = runtime.serve(arrivals)
    ok = sum(r.result.ok for r in results)
    print(f"served {ok}/{len(results)} requests; "
          f"peak fleet {controller.peak_routable_workers} workers")
    wait = runtime.stage_metrics.summarize("queue_wait", "matminer_util")
    print(f"matminer_util queue wait: median {wait.median * 1e3:.1f} ms, "
          f"p95 {wait.p95 * 1e3:.1f} ms")
    print("fleet events:")
    seen = show_events(controller, 0)

    print("\n== cool-down: traffic stops, the fleet drains ==")
    # A few extra ticks cover the migrations consolidating both
    # servables onto one survivor before the spare workers retire.
    cool_down(testbed, controller, ticks=24)
    stats = runtime.fleet_stats()
    print(f"scaled back down to {len(stats.routable_workers)} worker(s): "
          f"{', '.join(stats.routable_workers)}")
    seen = show_events(controller, seen)

    survivor = runtime.hosts("matminer_util")[0]
    print(f"\n== failure: worker {survivor.name!r} crashes ==")
    survivor.crash()
    testbed.clock.advance(INTERVAL_S)
    controller.reconcile()
    seen = show_events(controller, seen)

    second_wave = ramp("matminer_util", 200.0, 1.0)
    results2 = runtime.serve(second_wave)
    served_by = Counter(r.worker for r in results2)
    print(f"second wave served {sum(r.result.ok for r in results2)}"
          f"/{len(results2)} by {dict(served_by)} "
          "(the crashed worker served none)")
    assert survivor.name not in served_by

    print(f"\n== recovery: {survivor.name!r} comes back ==")
    survivor.recover()
    testbed.clock.advance(INTERVAL_S)
    controller.reconcile()
    cool_down(testbed, controller)
    seen = show_events(controller, seen)

    stats = runtime.fleet_stats()
    print("\nfinal fleet (worker: hosted servables):")
    for worker_stat in stats.workers:
        state = "down" if worker_stat.down else "up"
        print(f"  {worker_stat.name:<12} [{state}]  {', '.join(worker_stat.hosted)}")
    by_kind = Counter(event.kind for event in controller.events)
    print(f"control plane: {controller.reconciles} reconciles, "
          f"events {dict(sorted(by_kind.items()))}")


if __name__ == "__main__":
    main()
