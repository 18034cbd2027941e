"""Fig. 8 — serving-system comparison on CIFAR-10 and Inception.

Protocol (SS V-B5): 100 requests per model per platform, average times.
Platforms: TFServing-gRPC, TFServing-REST, SageMaker-TFServing-gRPC,
SageMaker-TFServing-REST, SageMaker-Flask, Clipper (with/without memo),
DLHub via the Parsl executor (with/without memo).

Expected shape:

* TF-Serving-core variants beat the Python-based stacks,
* gRPC slightly beats REST,
* DLHub is comparable to the Python-based stacks,
* with memoization DLHub's invocation (~1 ms, cache at the Task Manager)
  beats Clipper's (cache at the in-cluster query frontend — hits still
  pay the trip to the cluster).

``ablation_cache_placement`` isolates the cache-placement effect: the
same workload against a TM-side cache vs a frontend-side cache.
"""

from __future__ import annotations

from repro.bench.workloads import build_context, percentile_row
from repro.core.zoo import sample_input
from repro.serving.base import ModelSpec

MODELS = ("cifar10", "inception")
N_REQUESTS = 100


def _spec(zoo, name: str) -> ModelSpec:
    servable = zoo[name]
    return ModelSpec.from_calibration(servable.name, servable.key, servable.handler)


def run_experiment(
    n_requests: int = N_REQUESTS,
    models: tuple[str, ...] = MODELS,
    seed: int = 0,
) -> dict:
    """Returns ``{model: {platform: {'invocation': stats, 'request': stats,
    'cache_hits': n}}}``, ``n`` counting the measured requests answered
    from a memoization cache.

    Request time for baseline platforms = MS overhead + MS-TM RTT +
    invocation (all platforms are driven through the Management Service
    and routed by the Task Manager, as in the paper's methodology).
    """
    ctx = build_context(servables=models, seed=seed, memoize=False)
    tb = ctx.testbed
    link = tb.latency.task_manager_to_cluster

    from repro.serving.clipper import ClipperBackend
    from repro.serving.sagemaker import SageMakerBackend
    from repro.serving.tfserving import TFServingBackend

    backends = {
        "TFServing-gRPC": TFServingBackend(tb.clock, tb.cluster, link, "grpc"),
        "TFServing-REST": TFServingBackend(tb.clock, tb.cluster, link, "rest"),
        "SageMaker-TFServing-gRPC": SageMakerBackend(
            tb.clock, tb.cluster, link, "tfserving-grpc"
        ),
        "SageMaker-TFServing-REST": SageMakerBackend(
            tb.clock, tb.cluster, link, "tfserving-rest"
        ),
        "SageMaker-Flask": SageMakerBackend(tb.clock, tb.cluster, link, "flask"),
        "Clipper": ClipperBackend(tb.clock, tb.cluster, link, memoization=False),
        "Clipper-memo": ClipperBackend(tb.clock, tb.cluster, link, memoization=True),
    }

    results: dict = {name: {} for name in models}
    # Overhead the Management Service adds on top of any executor's
    # invocation (handling + enqueue + MS-TM round trip), measured live.
    for model_name in models:
        fixed = sample_input(model_name)

        # Baseline platforms.
        for platform, backend in backends.items():
            backend.deploy(_spec(ctx.zoo, model_name))
            if platform.endswith("-memo"):
                backend.invoke(model_name, *fixed)  # warm the cache
            invocations = []
            requests = []
            hits = 0
            for _ in range(n_requests):
                ms_start = tb.clock.now()
                tb.clock.advance(0.0035 + 0.0012)  # MS handling + enqueue
                tb.latency.management_to_task_manager.charge_send(tb.clock, 1024)
                outcome = backend.invoke(model_name, *fixed)
                tb.latency.management_to_task_manager.charge_send(tb.clock, 512)
                invocations.append(outcome.invocation_time * 1e3)
                requests.append((tb.clock.now() - ms_start) * 1e3)
                hits += outcome.cache_hit
            results[model_name][platform] = {
                "invocation": percentile_row(invocations),
                "request": percentile_row(requests),
                "cache_hits": hits,
            }

        # DLHub via the Parsl executor, memo off (context default).
        records = ctx.run_sequential(model_name, n_requests)
        results[model_name]["DLHub"] = {
            "invocation": percentile_row([r.invocation_time * 1e3 for r in records]),
            "request": percentile_row([r.request_time * 1e3 for r in records]),
            "cache_hits": sum(r.cache_hit for r in records),
        }

    # DLHub with memoization: a fresh context with the TM cache on.
    ctx_memo = build_context(servables=models, seed=seed, memoize=True)
    for model_name in models:
        warm = ctx_memo.run_fixed(model_name)
        assert warm.ok
        records = ctx_memo.run_sequential(model_name, n_requests)
        assert all(r.cache_hit for r in records)
        results[model_name]["DLHub-memo"] = {
            "invocation": percentile_row([r.invocation_time * 1e3 for r in records]),
            "request": percentile_row([r.request_time * 1e3 for r in records]),
            "cache_hits": sum(r.cache_hit for r in records),
        }
    return results


def ablation_cache_placement(n_requests: int = 50, seed: int = 0) -> dict:
    """Cache-placement ablation: TM-side (DLHub) vs in-cluster (Clipper).

    Same model, same workload; the only difference is where the
    memoization cache lives. Returns median hit latencies.
    """
    ctx = build_context(servables=("cifar10",), seed=seed, memoize=True)
    tb = ctx.testbed
    fixed = sample_input("cifar10")

    ctx.run_fixed("cifar10")  # warm TM cache
    tm_hits = [r.invocation_time * 1e3 for r in ctx.run_sequential("cifar10", n_requests)]

    from repro.serving.clipper import ClipperBackend

    clipper = ClipperBackend(
        tb.clock, tb.cluster, tb.latency.task_manager_to_cluster, memoization=True
    )
    clipper.deploy(_spec(ctx.zoo, "cifar10"))
    clipper.invoke("cifar10", *fixed)  # warm frontend cache
    frontend_hits = [
        clipper.invoke("cifar10", *fixed).invocation_time * 1e3
        for _ in range(n_requests)
    ]
    return {
        "tm_cache_median_ms": percentile_row(tm_hits)["median_ms"],
        "frontend_cache_median_ms": percentile_row(frontend_hits)["median_ms"],
    }
