"""Ablation bench: one batcher, three batch caps.

The runtime's coalescing window is the one batching mechanism, and a
servable profile sizes its cap (the SS V-B3 future work, after Fig. 6).
The same 200 ``matminer_featurize`` requests are offered at t=0 to a
one-worker, shared-clock stack with no coalesce delay, under three
values of ``max_batch_size``:

* **cap 1** — one request per batch (the Fig. 3 path),
* **cap 200** — the whole queue in one batch (the Fig. 5/6 path),
* **profiled** — the largest batch whose fitted invocation time fits a
  60 ms budget. The profile fits ``intercept + slope * n`` to the
  records of a warm-up served at two caps.

Expected: the whole queue finishes first but its one batch blows the
budget; the profiled cap keeps every batch inside the budget, finishes
within 2x of the whole queue, and well before cap 1.
"""

import pytest
from conftest import run_once

from repro.bench.report import render, write
from repro.bench.workloads import build_fleet
from repro.core.adaptive import ServableProfile
from repro.core.tasks import TaskRequest
from repro.core.zoo import sample_input

SERVABLE = "matminer_featurize"
N_REQUESTS = 200
BUDGET_S = 0.060
WARMUP_CAPS = (4, 8)
WARMUP_REQUESTS = 16


def serve_burst(max_batch_size: int, n_requests: int):
    """Offer ``n_requests`` at t=0 to a fresh stack; returns the
    runtime and the settled records."""
    _, runtime = build_fleet(
        SERVABLE, 1, max_batch_size=max_batch_size, max_coalesce_delay_s=0.0,
        shared_clock=True,
    )
    fixed = sample_input(SERVABLE)
    records = runtime.serve(
        [(0.0, TaskRequest(SERVABLE, args=fixed)) for _ in range(n_requests)]
    )
    assert len(records) == n_requests and all(r.ok for r in records)
    return runtime, records


def run_ablation():
    profile = ServableProfile(SERVABLE)
    for cap in WARMUP_CAPS:
        _, records = serve_burst(cap, WARMUP_REQUESTS)
        for record in records:
            profile.observe(record.batch_size, record.invocation_time)
    intercept, slope = profile.fit()
    caps = {
        "cap_1": 1,
        f"cap_{N_REQUESTS}": N_REQUESTS,
        "profiled": profile.max_batch_for_latency(BUDGET_S),
    }
    rows = {}
    for label, cap in caps.items():
        runtime, records = serve_burst(cap, N_REQUESTS)
        rows[label] = {
            "max_batch_size": cap,
            # Every request arrived at t=0: the slowest is the makespan.
            "total_s": max(r.latency for r in records),
            "batches": runtime.batches_dispatched,
            "slowest_batch_s": max(r.invocation_time for r in records),
        }
    return {
        "params": {
            "servable": SERVABLE,
            "n_requests": N_REQUESTS,
            "latency_budget_s": BUDGET_S,
            "warmup_caps": list(WARMUP_CAPS),
            "warmup_requests": WARMUP_REQUESTS,
        },
        "profile": {"intercept_s": intercept, "slope_s_per_item": slope},
        "rows": rows,
    }


@pytest.mark.fast
def test_ablation_batching_caps(benchmark):
    result = run_once(benchmark, run_ablation)
    print("\n" + render(result))
    write("ablation_batching", result)
    rows = result["rows"]
    unbatched, whole, profiled = rows["cap_1"], rows[f"cap_{N_REQUESTS}"], rows["profiled"]
    # Both batched rows beat one request per batch.
    assert whole["total_s"] < unbatched["total_s"]
    assert profiled["total_s"] < unbatched["total_s"]
    # The whole queue's one batch blows the budget; the profiled cap's
    # slowest batch fits inside it.
    assert whole["slowest_batch_s"] > BUDGET_S
    assert profiled["slowest_batch_s"] <= BUDGET_S
    # The profiled cap stays within 2x of the whole-queue optimum.
    assert profiled["total_s"] < 2.0 * whole["total_s"]
