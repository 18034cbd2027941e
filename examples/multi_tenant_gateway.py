"""A multi-tenant serving gateway in front of the shared fleet.

Three labs share one DLHub deployment:

* ``astro_lab`` — a bulk-inference pipeline (hot, weight 1);
* ``chem_lab`` — an interactive notebook user (light, weight 2);
* ``guest`` — an unvetted account on a strict policy (weight 0.5 and a
  5 req/s token bucket holding 5 tokens).

The walkthrough shows the request path
``client -> gateway -> WFQ lanes -> runtime -> fleet``:

1. every Management Service invocation passes tenant admission (the
   testbed's own Task Manager, outside this fleet, serves nothing);
2. the guest's over-limit traffic gets *typed* denials
   (``rejected_rate_limit``) instead of silent queueing;
3. under a 10:1 open-loop skew, weighted fair queuing keeps the light
   tenant's tail latency close to its isolated baseline while the hot
   tenant absorbs its own backlog.

Run with::

    python examples/multi_tenant_gateway.py
"""

from __future__ import annotations

import numpy as np

from repro import build_testbed, build_zoo, sample_input
from repro.core.client import DLHubClient
from repro.core.tasks import TaskRequest
from repro.gateway import AdmissionRejected, TenantPolicy, TenantPolicyTable


def ramp(servable: str, rate_rps: float, duration_s: float, token: str):
    fixed = sample_input(servable)
    return [
        (i / rate_rps, token, TaskRequest(servable, args=fixed))
        for i in range(int(rate_rps * duration_s))
    ]


def main() -> None:
    testbed = build_testbed(username="ops_team", memoize_tm=False)
    zoo = build_zoo(oqmd_entries=80, n_estimators=6)

    astro, astro_token = testbed.new_user("astro_lab")
    chem, chem_token = testbed.new_user("chem_lab")
    guest, guest_token = testbed.new_user("guest")

    policies = TenantPolicyTable()
    policies.register(TenantPolicy(name="astro", weight=1.0))
    policies.register(TenantPolicy(name="chem", weight=2.0))
    policies.register(
        TenantPolicy(
            name="guest",
            weight=0.5,
            rate_limit_rps=5.0,
            burst=5,
        )
    )
    policies.bind_identity(astro, "astro")
    policies.bind_identity(chem, "chem")
    policies.bind_identity(guest, "guest")

    gateway = testbed.enable_gateway(policies=policies, n_workers=4, max_batch_size=8)
    for name in ("matminer_util", "cifar10"):
        published = testbed.management.publish(testbed.token, zoo[name])
        gateway.runtime.place(zoo[name], published.build.image, copies=2)

    print("== 1. every invocation path goes through the gateway ==")
    chem_client = DLHubClient(testbed.management, chem_token)
    value = chem_client.run("matminer_util", *sample_input("matminer_util"))
    print(f"chem_lab sync run ok (value type {type(value).__name__})")
    print(f"tasks served outside the gateway's fleet: "
          f"{testbed.task_manager.tasks_processed}")
    print(f"runtime items served: {gateway.runtime.items_served}")

    print("\n== 2. the guest's over-limit traffic is denied, typed ==")
    guest_client = DLHubClient(testbed.management, guest_token)
    outcomes = {"ok": 0}
    for i in range(12):  # the bucket holds 5, refilling at 5/s
        try:
            guest_client.run("matminer_util", *sample_input("matminer_util"))
            outcomes["ok"] += 1
        except AdmissionRejected as exc:
            key = exc.decision.outcome.value
            outcomes[key] = outcomes.get(key, 0) + 1
    print(f"guest burst of 12: {outcomes}")
    guest_counters = gateway.metrics.counters("guest")
    print(f"guest counters: admitted={guest_counters.admitted} "
          f"denied={dict(guest_counters.denied)}")

    print("\n== 3. 10:1 skew: WFQ protects the light tenant ==")
    arrivals = sorted(
        ramp("matminer_util", 600.0, 2.0, astro_token)
        + ramp("matminer_util", 60.0, 2.0, chem_token),
        key=lambda entry: entry[0],
    )
    results = gateway.serve(arrivals)
    served = [r for r in results if r.admitted]
    for tenant in ("astro", "chem"):
        latencies = [r.latency for r in served if r.request.tenant == tenant]
        print(f"  {tenant:<6} served {len(latencies):>4}  "
              f"p50 {np.median(latencies) * 1e3:7.2f} ms  "
              f"p95 {np.percentile(latencies, 95) * 1e3:7.2f} ms")
    print(f"  mean micro-batch size: {gateway.runtime.mean_batch_size:.2f} "
          f"(tenant-pure lanes)")

    print("\n== 4. what the fleet controller sees ==")
    for servable, admissions in (
        ("matminer_util", gateway.tenant_admissions("matminer_util")),
    ):
        print(f"  {servable}: admitted per tenant {admissions}")
    for tenant in gateway.metrics.tenants():
        counters = gateway.metrics.counters(tenant)
        print(f"  {tenant:<6} admitted={counters.admitted:<5} "
              f"completed={counters.completed:<5} denied={counters.denied_total}")


if __name__ == "__main__":
    main()
