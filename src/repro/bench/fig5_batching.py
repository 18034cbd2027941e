"""Fig. 5 — servable invocation time with and without batching.

Protocol (SS V-B3): for request counts in [1, 100], measure total
invocation time for three servables (noop, CIFAR-10, matminer featurize)
submitted individually vs as one batch.

Expected shape: batching amortizes the per-request dispatch overhead, so
batched invocation time is significantly below the unbatched line at
every count > 1, with the gap growing linearly.
"""

from __future__ import annotations

from repro.bench.workloads import ExperimentContext, build_context

SERVABLES = ("noop", "cifar10", "matminer_featurize")
REQUEST_COUNTS = (1, 5, 10, 25, 50, 75, 100)


def run_experiment(
    request_counts: tuple[int, ...] = REQUEST_COUNTS,
    servables: tuple[str, ...] = SERVABLES,
    seed: int = 0,
    context: ExperimentContext | None = None,
) -> dict:
    """Returns ``{servable: {'unbatched': {n: ms}, 'batched': {n: ms}}}``."""
    ctx = context or build_context(servables=servables, seed=seed, memoize=False)
    tm = ctx.testbed.task_manager
    results: dict = {}
    for name in servables:
        unbatched: dict[int, float] = {}
        batched: dict[int, float] = {}
        fixed = ctx.fixed_input(name)
        for n in request_counts:
            # Unbatched: n sequential tasks; sum their invocation times.
            records = ctx.run_sequential(name, n)
            unbatched[n] = sum(r.invocation_time for r in records) * 1e3
            # Batched: one task carrying n inputs.
            inputs = [fixed] * n
            result = ctx.client.management.run_batch(ctx.client.token, name, inputs)
            assert result.ok, result.error
            assert len(result.value) == n
            batched[n] = result.invocation_time * 1e3
        results[name] = {"unbatched": unbatched, "batched": batched}
        tm.cache.clear()
    return results
