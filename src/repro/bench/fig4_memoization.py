"""Fig. 4 — the performance impact of memoization.

Protocol (SS V-B2): same fixed-input requests as Fig. 3, with memoization
enabled vs disabled. The paper reports memoization reducing invocation
time by 95.3-99.8% and request time by 24.3-95.4% (inference time is not
shown — a hit never executes the model).

Expected shape: memoized invocation collapses to the TM cache lookup
(~1 ms-class); request time keeps paying the MS handling + MS-TM RTT, so
its reduction is smaller.
"""

from __future__ import annotations

from repro.bench.workloads import build_context, percentile_row
from repro.core.zoo import ZOO_NAMES

N_REQUESTS = 100


def run_experiment(
    n_requests: int = N_REQUESTS,
    servables: tuple[str, ...] = ZOO_NAMES,
    seed: int = 0,
) -> dict:
    """Returns per-servable memo-off/memo-on stats plus reduction %."""
    results: dict = {}

    # Memoization disabled (the Fig. 3 baseline).
    ctx_off = build_context(servables=servables, seed=seed, memoize=False)
    for name in servables:
        records = ctx_off.run_sequential(name, n_requests)
        results[name] = {
            "memo_off": {
                "invocation_time": percentile_row(
                    [r.invocation_time * 1e3 for r in records]
                ),
                "request_time": percentile_row([r.request_time * 1e3 for r in records]),
            }
        }

    # Memoization enabled: one warm-up populates the cache, then measure hits.
    ctx_on = build_context(servables=servables, seed=seed, memoize=True)
    for name in servables:
        warmup = ctx_on.run_fixed(name)
        assert warmup.ok
        records = ctx_on.run_sequential(name, n_requests)
        assert all(r.cache_hit for r in records), f"{name}: expected cache hits"
        results[name]["memo_on"] = {
            "invocation_time": percentile_row(
                [r.invocation_time * 1e3 for r in records]
            ),
            "request_time": percentile_row([r.request_time * 1e3 for r in records]),
        }
        off = results[name]["memo_off"]
        on = results[name]["memo_on"]
        results[name]["reduction_pct"] = {
            "invocation_time": 100.0
            * (1 - on["invocation_time"]["median_ms"] / off["invocation_time"]["median_ms"]),
            "request_time": 100.0
            * (1 - on["request_time"]["median_ms"] / off["request_time"]["median_ms"]),
        }
    return results
