"""Fig. 7 — time to process 5,000 inferences vs replica count.

Protocol (SS V-B4): Parsl executor, memoization disabled, batch size 1.
For Inception, CIFAR-10, and Matminer featurize, process 5,000 inferences
at replica counts 1..25 and measure the makespan (Task Manager
throughput).

Expected shape: throughput rises ~linearly with replicas until the Task
Manager's serial dispatch dominates, then saturates. Inception (heaviest)
saturates latest (~15 replicas); lighter servables saturate earlier —
"servables that execute for shorter periods benefit less from additional
replicas".

``ablation_dispatch_costs`` sweeps the dispatch overhead to show the
saturation point is dispatch-bound.
"""

from __future__ import annotations

from repro.bench.workloads import ExperimentContext, build_context, build_fleet
from repro.core.adaptive import per_copy_capacity_rps
from repro.core.tasks import TaskRequest
from repro.core.zoo import sample_input
from repro.sim import calibration as cal

SERVABLES = ("inception", "cifar10", "matminer_featurize")
REPLICA_COUNTS = (1, 2, 5, 10, 15, 20, 25)
N_INFERENCES = 5000


def _saturation_replicas(throughputs: dict[int, float]) -> int:
    """The first replica count reaching 95% of peak throughput."""
    peak = max(throughputs.values())
    return min(r for r, t in sorted(throughputs.items()) if t >= 0.95 * peak)


def run_experiment(
    n_inferences: int = N_INFERENCES,
    replica_counts: tuple[int, ...] = REPLICA_COUNTS,
    servables: tuple[str, ...] = SERVABLES,
    seed: int = 0,
    context: ExperimentContext | None = None,
) -> dict:
    """Returns per-servable makespans and throughputs by replica count."""
    ctx = context or build_context(servables=servables, seed=seed, memoize=False)
    executor = ctx.testbed.parsl_executor
    results: dict = {}
    for name in servables:
        fixed = sample_input(name)
        makespans: dict[int, float] = {}
        throughputs: dict[int, float] = {}
        for replicas in replica_counts:
            executor.scale(name, replicas)
            makespan = executor.submit_stream(name, [fixed] * n_inferences)
            makespans[replicas] = makespan
            throughputs[replicas] = n_inferences / makespan
        results[name] = {
            "makespan_s": makespans,
            "throughput_rps": throughputs,
            "saturation_replicas": _saturation_replicas(throughputs),
            "peak_throughput_rps": max(throughputs.values()),
        }
    return results


def ablation_dispatch_costs(
    dispatch_costs_s: tuple[float, ...] = (0.001, 0.002, 0.004, 0.008),
    n_inferences: int = 2000,
    seed: int = 0,
) -> dict:
    """Ablation: sweep the serial dispatch cost; saturation should move
    inversely (half the dispatch cost -> double the saturating replicas).

    Arms are keyed by the cost in milliseconds (``"1ms"``), a key a
    metric path can name.
    """
    results: dict = {}
    for cost in dispatch_costs_s:
        ctx = build_context(servables=("inception",), seed=seed, memoize=False)
        executor = ctx.testbed.parsl_executor
        pool = executor._pools["inception"]
        pool.dispatch_cost_s = cost
        fixed = sample_input("inception")
        throughputs = {}
        for replicas in (1, 5, 10, 15, 20, 25, 30):
            executor.scale("inception", replicas)
            makespan = executor.submit_stream("inception", [fixed] * n_inferences)
            throughputs[replicas] = n_inferences / makespan
        results[f"{cost * 1e3:g}ms"] = {
            "throughput_rps": throughputs,
            "saturation_replicas": _saturation_replicas(throughputs),
        }
    return results


def run_coalesced_replicas(
    replica_counts: tuple[int, ...] = (1, 4),
    n_requests: int = 256,
    servable: str = "cifar10",
    max_batch_size: int = 32,
    seed: int = 0,
) -> dict:
    """Replica scaling on the *coalesced* (server-batching) hot path.

    The streaming experiment above shows replicas scaling the Fig. 7
    dispatch loop; this one shows them scaling the serving runtime's
    micro-batch path: a batch-heavy backlog (all arrivals at t=0) is
    coalesced into full micro-batches on one worker whose deployment
    runs ``replicas`` pods, and the replica-aware ``invoke_batch``
    shards each batch across them. Throughput at R replicas vs 1 is the
    speedup replica scaling now buys coalesced traffic — before the
    replica-aware dispatch it was exactly 1x (the whole batch ran on a
    single pod).

    Each row also carries the *shared capacity model's* prediction
    (:func:`~repro.core.adaptive.per_copy_capacity_rps` at the same
    batch size and replica count) — the figure the fleet controller
    and the unified :class:`~repro.core.adaptive.Autoscaler` plan
    from. Measured and predicted throughput tracking each other is
    what entitles the control plane to size replicas from the model
    instead of live profiling.
    """
    results: dict = {
        "throughput_rps": {},
        "predicted_rps": {},
        "makespan_s": {},
        "mean_batch_size": {},
    }
    for replicas in replica_counts:
        _, runtime = build_fleet(
            servable, 1, max_batch_size, 0.002, replicas=replicas, seed=seed
        )
        fixed = sample_input(servable)
        arrivals = [
            (0.0, TaskRequest(servable, args=fixed)) for _ in range(n_requests)
        ]
        start = runtime.clock.now()
        served = runtime.serve(arrivals)
        makespan = runtime.clock.now() - start
        assert len(served) == n_requests
        assert all(r.result.ok for r in served)
        results["makespan_s"][replicas] = makespan
        results["throughput_rps"][replicas] = n_requests / makespan
        results["predicted_rps"][replicas] = per_copy_capacity_rps(
            cal.inference_cost(servable), max_batch_size, replicas
        )
        results["mean_batch_size"][replicas] = runtime.mean_batch_size
    base = results["throughput_rps"][min(replica_counts)]
    results["speedup"] = {
        r: results["throughput_rps"][r] / base for r in replica_counts
    }
    results["servable"] = servable
    results["n_requests"] = n_requests
    return results
