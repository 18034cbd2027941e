"""Ablation bench: batching policies.

Compares three policies on the same 200-request workload:

* **unbatched** — one task per request (the Fig. 3 path),
* **whole-queue** — everything in one batch (the Fig. 5/6 path),
* **adaptive** — profile-driven chunks under a latency budget (the
  SS VII extension).

Expected: whole-queue minimizes total invocation time but its single
batch blows any per-batch latency budget; adaptive lands between —
near-whole-queue throughput while each chunk honours the budget.
"""

from conftest import run_once

from repro.bench.report import render, write
from repro.bench.workloads import build_context
from repro.core.adaptive import AdaptiveBatcher

N_REQUESTS = 200
BUDGET_S = 0.060


def run_ablation():
    ctx = build_context(
        servables=("matminer_featurize",),
        jitter=False,
        memoize=False,
    )
    executor = ctx.testbed.parsl_executor
    fixed = ctx.fixed_input("matminer_featurize")
    workload = [fixed] * N_REQUESTS

    # Unbatched.
    t0 = ctx.clock.now()
    for item in workload:
        executor.invoke("matminer_featurize", item, {})
    unbatched_total = ctx.clock.now() - t0

    # Whole-queue batch.
    whole = executor.invoke_batch("matminer_featurize", [(item, {}) for item in workload])

    # Adaptive.
    batcher = AdaptiveBatcher(
        executor, "matminer_featurize", latency_budget_s=BUDGET_S, bootstrap_batch=4
    )
    t0 = ctx.clock.now()
    outputs = batcher.run(workload)
    adaptive_total = ctx.clock.now() - t0
    assert len(outputs) == N_REQUESTS

    # Per-chunk latencies after the profile warmed up.
    warm = [d.actual_time_s for d in batcher.decisions[2:]]
    return {
        "n_requests": N_REQUESTS,
        "latency_budget_s": BUDGET_S,
        "unbatched_total_s": unbatched_total,
        "whole_queue_total_s": whole.invocation_time,
        "whole_queue_batch_latency_s": whole.invocation_time,
        "adaptive_total_s": adaptive_total,
        "adaptive_max_chunk_latency_s": max(warm) if warm else 0.0,
        "adaptive_chunks": len(batcher.decisions),
    }


def test_ablation_batching_policies(benchmark):
    result = run_once(benchmark, run_ablation)
    print("\n" + render(result))
    write("ablation_batching", result)
    # Batching (either flavour) beats unbatched.
    assert result["whole_queue_total_s"] < result["unbatched_total_s"]
    assert result["adaptive_total_s"] < result["unbatched_total_s"]
    # Whole-queue violates the latency budget; adaptive honours it.
    assert result["whole_queue_batch_latency_s"] > BUDGET_S
    assert result["adaptive_max_chunk_latency_s"] <= BUDGET_S * 1.3
    # Adaptive stays within 2x of the whole-queue optimum.
    assert result["adaptive_total_s"] < 2.0 * result["whole_queue_total_s"]
