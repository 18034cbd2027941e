"""Bench target for Fig. 4: the impact of memoization.

Asserts the paper's reported ranges (with tolerance for our calibrated
substrate): invocation-time reductions of 95.3-99.8% and request-time
reductions of 24.3-95.4%, and the ~1 ms memoized invocation floor that
Fig. 8 highlights.
"""

from conftest import run_once

from repro.bench.fig4_memoization import run_experiment
from repro.bench.report import render, write


def test_fig4_memoization(benchmark):
    results = run_once(benchmark, run_experiment)
    print("\n" + render(results))
    write("fig4_memoization", results)

    for name, data in results.items():
        inv_red = data["reduction_pct"]["invocation_time"]
        req_red = data["reduction_pct"]["request_time"]
        # Paper: 95.3-99.8% invocation reduction (we allow >= 93).
        assert inv_red >= 93.0, f"{name}: invocation reduction {inv_red:.1f}%"
        assert inv_red <= 99.9, name
        # Paper: 24.3-95.4% request reduction.
        assert 24.0 <= req_red <= 95.5, f"{name}: request reduction {req_red:.1f}%"
        # Memoized invocation is ~1 ms-class (cache at the Task Manager).
        assert data["memo_on"]["invocation_time"]["median_ms"] <= 1.5, name

    # Heavier servables gain the most: Inception's reductions exceed noop's.
    assert (
        results["inception"]["reduction_pct"]["invocation_time"]
        > results["noop"]["reduction_pct"]["invocation_time"]
    )
    assert (
        results["inception"]["reduction_pct"]["request_time"]
        > results["noop"]["reduction_pct"]["request_time"]
    )
