"""Fig. 6 — invocation time vs number of requests, with batching, to 10k.

Protocol (SS V-B3): same three servables as Fig. 5, batch sizes scaled to
10,000 requests. The paper observes "a roughly linear relationship
between invocation time and number of requests".

The experiment also fits a least-squares line and reports R^2, so the
linearity claim is checked quantitatively.
"""

from __future__ import annotations

import numpy as np

from repro.bench.workloads import ExperimentContext, build_context

SERVABLES = ("noop", "cifar10", "matminer_featurize")
REQUEST_COUNTS = (100, 500, 1000, 2500, 5000, 10000)


def run_experiment(
    request_counts: tuple[int, ...] = REQUEST_COUNTS,
    servables: tuple[str, ...] = SERVABLES,
    seed: int = 0,
    context: ExperimentContext | None = None,
) -> dict:
    """Returns ``{servable: {'series': {n: ms}, 'r_squared': float, ...}}``."""
    ctx = context or build_context(servables=servables, seed=seed, memoize=False)
    executor = ctx.testbed.parsl_executor
    results: dict = {}
    for name in servables:
        fixed = ctx.fixed_input(name)
        series: dict[int, float] = {}
        for n in request_counts:
            outcome = executor.invoke_batch(name, [(fixed, {})] * n)
            assert len(outcome.value) == n
            series[n] = outcome.invocation_time * 1e3
        xs = np.array(sorted(series))
        ys = np.array([series[n] for n in xs])
        slope, intercept = np.polyfit(xs, ys, 1)
        predicted = slope * xs + intercept
        ss_res = float(((ys - predicted) ** 2).sum())
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        results[name] = {
            "series": series,
            "slope_ms_per_request": float(slope),
            "intercept_ms": float(intercept),
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot else 1.0,
        }
    return results
