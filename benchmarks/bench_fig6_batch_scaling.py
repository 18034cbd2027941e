"""Bench target for Fig. 6: batched invocation time vs request count to 10k.

Asserts the paper's "roughly linear relationship between invocation time
and number of requests": the least-squares fit explains >= 99.9% of
variance for each servable, and invocation time is monotone in count.
"""

from conftest import run_once

from repro.bench.fig6_batch_scaling import run_experiment
from repro.bench.report import render, write


def test_fig6_batch_scaling(benchmark):
    results = run_once(benchmark, run_experiment)
    print("\n" + render(results))
    write("fig6_batch_scaling", results)

    for name, data in results.items():
        series = data["series"]
        counts = sorted(series)
        # Monotone increasing in request count.
        values = [series[n] for n in counts]
        assert all(a < b for a, b in zip(values, values[1:])), name
        # Roughly linear.
        assert data["r_squared"] >= 0.999, f"{name}: R^2={data['r_squared']:.5f}"
        # Slope ordering follows per-item cost: inception absent here, but
        # cifar10 and featurize cost more per item than noop.
        assert data["slope_ms_per_request"] > 0

    assert (
        results["noop"]["slope_ms_per_request"]
        < results["cifar10"]["slope_ms_per_request"]
    )
    assert (
        results["cifar10"]["slope_ms_per_request"]
        < results["matminer_featurize"]["slope_ms_per_request"]
    )
