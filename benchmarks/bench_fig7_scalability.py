"""Bench target for Fig. 7: 5,000 inferences vs replica count.

Asserts the paper's shape: throughput scales with replicas then
saturates; Inception (heaviest) keeps scaling to ~15 replicas while
lighter servables saturate earlier because serial task dispatch comes to
dominate. Includes the dispatch-cost ablation and a
fast-marked smoke of replica scaling on the *coalesced* serving-runtime
path (replica-aware ``invoke_batch``), so replica-speedup regressions
on the micro-batch hot path fail CI.
"""

import pytest
from conftest import run_once

from repro.bench.fig7_scalability import (
    ablation_dispatch_costs,
    run_coalesced_replicas,
    run_experiment,
)
from repro.bench.report import render, write


def test_fig7_replica_scaling(benchmark):
    results = run_once(benchmark, run_experiment)
    print("\n" + render(results))
    write("fig7_scalability", results)

    for name, data in results.items():
        throughput = data["throughput_rps"]
        replicas = sorted(throughput)
        # Scaling regime: more replicas help substantially at the start.
        assert throughput[replicas[1]] > 1.8 * throughput[replicas[0]], name
        # Saturation regime: the last step adds < 5% throughput.
        assert throughput[replicas[-1]] <= 1.05 * throughput[replicas[-2]], name

    # Inception saturates latest (~15 replicas in the paper).
    sat = {name: data["saturation_replicas"] for name, data in results.items()}
    assert sat["inception"] >= 10, sat
    assert sat["inception"] > sat["cifar10"], sat
    assert sat["inception"] > sat["matminer_featurize"], sat

    # Lighter servables saturate at roughly the same dispatch-bound peak.
    peaks = {n: d["peak_throughput_rps"] for n, d in results.items()}
    assert abs(peaks["cifar10"] - peaks["matminer_featurize"]) / peaks["cifar10"] < 0.2


@pytest.mark.fast
def test_fig7_coalesced_replica_speedup(benchmark):
    """Replicas must matter on the coalesced path: a batch-heavy workload
    at 4 replicas sustains >= 2x the single-replica throughput, because
    the replica-aware ``invoke_batch`` shards each micro-batch across
    pods instead of serializing it on one."""
    results = run_once(benchmark, run_coalesced_replicas, (1, 4))
    print("\n" + render(results))
    write("fig7_coalesced", results)
    assert results["speedup"][4] >= 2.0, results["speedup"]
    # Batching itself is intact: the backlog coalesced into full-ish
    # micro-batches in both arms.
    assert min(results["mean_batch_size"].values()) > 8.0
    # The shared capacity model (per_copy_capacity_rps, ceil(B/R)
    # sharding) predicts the measured coalesced throughput — the
    # entitlement for the fleet controller and the unified Autoscaler
    # to size replicas from the model instead of live profiling.
    for replicas, measured in results["throughput_rps"].items():
        predicted = results["predicted_rps"][replicas]
        assert abs(measured - predicted) / predicted < 0.10, (
            replicas,
            measured,
            predicted,
        )


def test_fig7_dispatch_ablation(benchmark):
    """Halving dispatch cost moves the saturation point to more replicas —
    evidence that dispatch, not compute, caps executor throughput."""
    results = run_once(benchmark, ablation_dispatch_costs, (0.001, 0.004))
    print("\n" + render(results))
    write("fig7_dispatch_ablation", results)
    assert results["1ms"]["saturation_replicas"] > results["4ms"]["saturation_replicas"]
    peak_fast = max(results["1ms"]["throughput_rps"].values())
    peak_slow = max(results["4ms"]["throughput_rps"].values())
    assert peak_fast > 2.0 * peak_slow
