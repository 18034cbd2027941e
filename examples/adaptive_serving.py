"""Extensions walkthrough: profile-sized batching + replica autoscaling (SS VII).

The paper closes with two optimization directions: adaptive batching
driven by servable profiles (after Fig. 6) and "automated tuning of
servable execution" (after Fig. 7). Both build on
``repro.core.adaptive``; this example exercises them against live
deployments. Batching stays the serving runtime's coalescing window:
a :class:`ServableProfile` fitted on a warm-up only picks its cap.

Run with::

    python examples/adaptive_serving.py
"""

from __future__ import annotations

from repro import build_testbed, build_zoo, sample_input
from repro.bench.workloads import build_fleet
from repro.core.adaptive import Autoscaler, ServableProfile
from repro.core.tasks import TaskRequest

SERVABLE = "matminer_featurize"
BUDGET_S = 0.060


def serve_burst(max_batch_size: int, n_requests: int):
    """Offer ``n_requests`` at once to a fresh one-worker runtime that
    batches up to ``max_batch_size``; returns it and the settled records."""
    _, runtime = build_fleet(
        SERVABLE, 1, max_batch_size=max_batch_size, max_coalesce_delay_s=0.0,
        shared_clock=True,
    )
    fixed = sample_input(SERVABLE)
    records = runtime.serve(
        [(0.0, TaskRequest(SERVABLE, args=fixed)) for _ in range(n_requests)]
    )
    return runtime, records


def main() -> None:
    # --- profile-sized batching -------------------------------------------------
    print(f"profile-sized batching (latency budget {BUDGET_S * 1e3:.0f} ms per batch):")
    profile = ServableProfile(SERVABLE)
    for cap in (4, 8):
        _, records = serve_burst(cap, 16)
        for record in records:
            profile.observe(record.batch_size, record.invocation_time)
    intercept, slope = profile.fit()
    profiled = profile.max_batch_for_latency(BUDGET_S)
    print(
        f"  warm-up at caps 4 and 8 fits {intercept * 1e3:.2f} ms + "
        f"{slope * 1e3:.3f} ms/item -> profiled cap {profiled}"
    )
    n = 120
    for label, cap in (("one per batch", 1), ("profiled", profiled), ("whole queue", n)):
        runtime, records = serve_burst(cap, n)
        total = max(r.latency for r in records)
        slowest = max(r.invocation_time for r in records)
        print(
            f"  {label:<14} cap={cap:<4} {runtime.batches_dispatched:>3} batches "
            f"in {total * 1e3:7.1f} ms, slowest {slowest * 1e3:7.1f} ms"
        )

    # --- autoscaling ------------------------------------------------------------
    testbed = build_testbed(memoize_tm=False, username="ops_team")
    zoo = build_zoo(oqmd_entries=120, n_estimators=8)
    testbed.publish_and_deploy(zoo["inception"], replicas=1)
    executor = testbed.parsl_executor
    print("\nautoscaling inception for rising arrival rates:")
    scaler = Autoscaler(executor)
    for rate in (10, 50, 150, 400, 5000):
        decision = scaler.autoscale("inception", float(rate))
        print(
            f"  {rate:>5} req/s -> {decision.recommended_replicas:>2} replicas "
            f"(dispatch bound {decision.dispatch_bound_rps:.0f} req/s)"
        )
    knee = scaler.saturation_replicas("inception")
    print(f"  saturation knee: {knee} replicas — matches Fig. 7's ~15 for Inception")

    # Demonstrate the scaled deployment sustaining its target rate.
    rate = 150.0
    scaler.autoscale("inception", rate)
    n = 600
    makespan = executor.submit_stream("inception", [sample_input("inception")] * n)
    print(
        f"\nvalidation: {n} inferences at {n / makespan:.0f} req/s with "
        f"{executor.replicas('inception')} replicas (target {rate:.0f} req/s)"
    )


if __name__ == "__main__":
    main()
