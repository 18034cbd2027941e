"""Bench target for Fig. 3: request/invocation/inference times, 6 servables.

Asserts the paper's qualitative claims on the reproduced numbers:
inference < invocation < request; noop invocation < 20 ms; model
invocations < 40 ms; Inception is the heaviest servable; Inception and
CIFAR-10 carry extra request-side transfer overhead.
"""

from conftest import run_once

from repro.bench.fig3_servables import run_experiment
from repro.bench.report import render, write


def test_fig3_servable_performance(benchmark):
    results = run_once(benchmark, run_experiment)
    print("\n" + render(results))
    write("fig3_servables", results)

    for name, metrics in results.items():
        inference = metrics["inference_time"]["median_ms"]
        invocation = metrics["invocation_time"]["median_ms"]
        request = metrics["request_time"]["median_ms"]
        # Strict ordering of the three tiers.
        assert inference < invocation < request, name
        # Per-tier overhead gaps land in the 10-20 ms band (+RTT for request).
        assert 3.0 <= invocation - inference <= 20.0, name
        assert 20.0 <= request - invocation <= 40.0, name

    # "requests to run models in less than 40 ms and Python-based test
    # functions in less than 20 ms" (invocation times).
    assert results["noop"]["invocation_time"]["median_ms"] < 20.0
    for model in ("inception", "cifar10", "matminer_model"):
        assert results[model]["invocation_time"]["median_ms"] < 40.0

    # Inception is the most expensive servable end to end.
    inception_req = results["inception"]["request_time"]["median_ms"]
    assert inception_req == max(m["request_time"]["median_ms"] for m in results.values())

    # Image servables pay visible input-transfer overhead: the gap between
    # request and invocation is larger for Inception than for noop.
    def gap(n):
        return (
            results[n]["request_time"]["median_ms"]
            - results[n]["invocation_time"]["median_ms"]
        )
    assert gap("inception") > gap("noop")
