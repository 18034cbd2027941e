"""Bench target for Fig. 8: the cross-platform serving comparison.

Asserts every qualitative claim of SS V-B5 on the reproduced numbers:

* TF-Serving-core variants outperform the Python-based stacks,
* gRPC beats REST (HTTP overhead),
* DLHub is comparable to the Python-based serving infrastructures,
* with memoization, DLHub's invocation (~1 ms; cache at the Task
  Manager) beats Clipper's (cache at the in-cluster query frontend).

Includes the cache-placement ablation.
"""

from conftest import run_once

from repro.bench.fig8_comparison import ablation_cache_placement, run_experiment
from repro.bench.report import render, write

TFS_CORE = (
    "TFServing-gRPC",
    "TFServing-REST",
    "SageMaker-TFServing-gRPC",
    "SageMaker-TFServing-REST",
)
PYTHON_STACKS = ("SageMaker-Flask", "DLHub")


def test_fig8_serving_comparison(benchmark):
    results = run_once(benchmark, run_experiment)
    print("\n" + render(results))
    write("fig8_comparison", results)

    for model, platforms in results.items():
        inv = {p: d["invocation"]["median_ms"] for p, d in platforms.items()}

        # TF-Serving-core beats every Python-based stack.
        for tfs in TFS_CORE:
            for py in PYTHON_STACKS:
                assert inv[tfs] < inv[py], f"{model}: {tfs} vs {py}"

        # gRPC < REST, within both TFServing and SageMaker-TFServing.
        assert inv["TFServing-gRPC"] < inv["TFServing-REST"], model
        assert (
            inv["SageMaker-TFServing-gRPC"] < inv["SageMaker-TFServing-REST"]
        ), model

        # DLHub is Python-class: within 2.5x of SageMaker-Flask.
        ratio = inv["DLHub"] / inv["SageMaker-Flask"]
        assert 0.4 <= ratio <= 2.5, f"{model}: DLHub/Flask ratio {ratio:.2f}"

        # Memoization: DLHub ~1 ms, beating Clipper's in-cluster cache.
        assert inv["DLHub-memo"] <= 1.5, model
        assert inv["DLHub-memo"] < inv["Clipper-memo"], model
        # Clipper's cache still helps Clipper itself.
        assert inv["Clipper-memo"] < inv["Clipper"], model


def test_fig8_cache_placement_ablation(benchmark):
    """Isolates cache placement: TM-side hits are ~4x+ cheaper than
    in-cluster frontend hits on the same workload."""
    result = run_once(benchmark, ablation_cache_placement)
    print("\n" + render(result))
    write("fig8_cache_placement", result)
    assert result["tm_cache_median_ms"] < result["frontend_cache_median_ms"]
    assert result["frontend_cache_median_ms"] / result["tm_cache_median_ms"] >= 2.0
