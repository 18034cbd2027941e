"""Fig. 3 — request, invocation, and inference times for six servables.

Protocol (SS V-B1): submit 100 requests with fixed input data to each of
the six servables via the Management Service, memoization disabled, batch
size 1, sequentially. Report median and 5th/95th percentiles of the three
timing metrics per servable.

Expected shape: inference < invocation < request for every servable;
per-tier gaps around 10-20 ms (plus the 20.7 ms MS-TM RTT inside request
time); Inception/CIFAR-10 pay extra input-transfer overhead; noop
invocation < 20 ms, model invocations < 40 ms.
"""

from __future__ import annotations

from repro.bench.workloads import ExperimentContext, build_context, percentile_row
from repro.core.zoo import ZOO_NAMES

N_REQUESTS = 100


def run_experiment(
    n_requests: int = N_REQUESTS,
    servables: tuple[str, ...] = ZOO_NAMES,
    seed: int = 0,
    context: ExperimentContext | None = None,
) -> dict:
    """Returns ``{servable: {metric: {median_ms, p5_ms, p95_ms, ...}}}``."""
    ctx = context or build_context(servables=servables, seed=seed, memoize=False)
    results: dict = {}
    for name in servables:
        records = ctx.run_sequential(name, n_requests)
        assert all(r.ok for r in records), f"failures serving {name}"
        results[name] = {
            "inference_time": percentile_row([r.inference_time * 1e3 for r in records]),
            "invocation_time": percentile_row([r.invocation_time * 1e3 for r in records]),
            "request_time": percentile_row([r.request_time * 1e3 for r in records]),
        }
    return results
