"""Bench target for Fig. 5: invocation time with and without batching.

Asserts batching "significantly reduces overall invocation time": the
batched series sits below the unbatched series for every request count
above 1, with a growing absolute gap.
"""

from conftest import run_once

from repro.bench.fig5_batching import run_experiment
from repro.bench.report import render, write


def test_fig5_batching(benchmark):
    results = run_once(benchmark, run_experiment)
    print("\n" + render(results))
    write("fig5_batching", results)

    for name, series in results.items():
        unbatched, batched = series["unbatched"], series["batched"]
        counts = sorted(unbatched)
        for n in counts:
            if n == 1:
                continue
            assert batched[n] < unbatched[n], f"{name} at n={n}"
        # Speedup grows with batch size (overheads amortize).
        speedup_small = unbatched[counts[1]] / batched[counts[1]]
        speedup_large = unbatched[counts[-1]] / batched[counts[-1]]
        assert speedup_large >= speedup_small, name
        # At n=100 the dispatch amortization is substantial (>= 1.3x even
        # for compute-dominated servables).
        assert unbatched[100] / batched[100] >= 1.3, name

    # The lighter the servable, the bigger batching's relative win.
    noop_speedup = results["noop"]["unbatched"][100] / results["noop"]["batched"][100]
    cifar_speedup = (
        results["cifar10"]["unbatched"][100] / results["cifar10"]["batched"][100]
    )
    assert noop_speedup > cifar_speedup
