"""Microbench: dispatch decision cost vs tenant-lane count.

Runs :mod:`repro.bench.dispatch_overhead` — the repo's first
*wall-clock* benchmark. Every other bench measures virtual time; this
one times the scheduler itself: how long
:meth:`ServingRuntime._next_window` takes to pick the next coalescing
window as the number of tenant lanes grows from 10 to 100k.

Expected: the event-indexed implementation's per-decision cost is ~flat
in the lane count (<= 2x growth over four orders of magnitude, the
O(log n) signature) and beats the retained O(n) reference scan by
>= 10x at 10k lanes — while choosing bit-for-bit the same topics in the
same order. The tracing arm must show the scheduling decision within
5% of tracing-off at 10k lanes and 1% head sampling. Results land in
``BENCH_dispatch_overhead.json``.
"""

import json

import pytest
from conftest import run_once

from repro.bench.dispatch_overhead import TRACE_SAMPLE_RATE, run_experiment
from repro.bench.report import render, write


@pytest.mark.fast
def test_dispatch_overhead_smoke(benchmark):
    """CI smoke: tiny sizes, structure + pick-identity only (timing
    assertions need the full sizes and are too noisy at n=10)."""
    report = run_once(
        benchmark,
        run_experiment,
        sizes=(10, 100),
        scan_sizes=(10, 100),
        decisions=50,
        repeats=1,
        check_size=100,
        trace_sizes=(100,),
        trace_cycles=30,
    )
    print("\n" + render(report))
    assert [row["lanes"] for row in report["heap"]] == [10, 100]
    for row in report["heap"] + report["scan"]:
        assert row["decisions"] == 50
        assert row["per_decision_us"] > 0
    # The index and the reference scan picked identical topics in
    # identical order on identical populations.
    assert report["picks_identical"]
    # The tracing arm ran and measured something in both sub-metrics
    # (ratio assertions need full sizes — too noisy at this scale).
    (trace_row,) = report["tracing"]
    assert trace_row["off_per_decision_us"] > 0
    assert trace_row["on_per_cycle_us"] > 0
    # The closed loop rode along: the adaptive sampler escalated the
    # hot lane above base and the observability loop scraped the hub.
    assert trace_row["escalated_rate"] > trace_row["sample_rate"]
    assert trace_row["loop_scrapes"] >= 1
    # Head sampling is deterministic error diffusion, per accumulator:
    # the escalated lane (one request at depth 1) diffuses through its
    # own override accumulator, the rest share the base one — exactly
    # floor(k * rate) traces survive from each, no RNG flakiness.
    assert trace_row["requests_traced"] >= 1
    expected_kept = int(
        (trace_row["requests_traced"] - 1) * trace_row["sample_rate"]
    ) + int(trace_row["escalated_rate"])
    assert trace_row["traces_retained"] == expected_kept


@pytest.mark.fast
def test_chrome_trace_roundtrip():
    """CI smoke: a traced serve exports valid Chrome trace-event JSON."""
    from repro.bench.workloads import build_fleet
    from repro.core.tasks import TaskRequest
    from repro.core.telemetry import Tracer
    from repro.core.zoo import sample_input

    tracer = Tracer(sample_rate=1.0)
    _, runtime = build_fleet("noop", 1, 4, 0.005, tracer=tracer, shared_clock=True)
    sample = sample_input("noop")
    results = runtime.serve(
        [(i * 0.001, TaskRequest("noop", args=sample)) for i in range(12)]
    )
    assert len(results) == 12
    assert len(tracer.retained) == 12  # 100% sampling keeps everything

    doc = json.loads(tracer.chrome_trace_json())
    events = doc["traceEvents"]
    # One complete ("X") root per trace plus its stage spans, all with
    # microsecond timestamps and positive-or-zero durations.
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) >= 12 * 5
    for event in complete:
        assert event["dur"] >= 0
        assert event["ts"] >= 0
    names = {e["name"] for e in complete}
    assert {"dispatch_window", "coalesce", "dispatch", "inference",
            "settle"} <= names


def test_dispatch_overhead_full(benchmark):
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    write("dispatch_overhead", report)

    # Dispatch-order semantics are unchanged: same picks, same order.
    assert report["picks_identical"]
    # O(log n) flatness: four orders of magnitude more lanes may at
    # most double the per-decision cost.
    assert report["per_decision_growth"] <= 2.0
    # And the index is not just flat but far ahead of the scan where
    # the scan is still tolerable to run.
    assert report["speedup_by_lanes"]["10000"] >= 10.0
    # Tracing acceptance: at 1% head sampling — with the observability
    # loop attached and an adaptive-sampling escalation live — the
    # scheduling decision stays within 5% of tracing-off at the
    # largest traced lane count.
    assert report["tracing"][-1]["lanes"] == 10_000
    assert report["tracing"][-1]["escalated_rate"] > TRACE_SAMPLE_RATE
    assert report["tracing"][-1]["loop_scrapes"] >= 1
    assert report["tracing"][-1]["decision_overhead_ratio"] <= 1.05
