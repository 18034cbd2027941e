"""Ablation — where batches are formed: client, server, or not at all.

The paper shows batching amortizes per-request overhead (SS V-B3,
Figs. 5-6), but DLHub proper only batches when the *client* pre-forms the
batch. This experiment compares three dispatch policies serving the same
open-loop arrival schedule (fixed-rate spacing, deterministic):

* **unbatched** — every request dispatched individually
  (:class:`ServingRuntime` with ``max_batch_size=1``),
* **client-batched** — the client collects ``batch_size`` inputs (waiting
  for the last one to arrive) and submits one pre-formed batch task,
* **server-coalesced** — clients send single requests; the runtime
  coalesces them into micro-batches at claim time.

Expected shape: at low rates all policies track the offered load and
server coalescing adds at most ``max_coalesce_delay_s`` of latency; at
high rates unbatched dispatch saturates at ``1 / per_task_cost`` while
both batched policies amortize dispatch overhead — with server
coalescing matching client batching without any client cooperation.
"""

from __future__ import annotations

import numpy as np

from repro.bench.workloads import build_fleet
from repro.core.tasks import TaskRequest
from repro.core.zoo import sample_input

ARRIVAL_RATES_RPS = (50.0, 200.0, 1000.0, 4000.0)
N_REQUESTS = 240
SERVABLE = "noop"
BATCH_SIZE = 32
COALESCE_DELAY_S = 0.010


def _schedule(rate_rps: float, n_requests: int, servable: str) -> list[tuple[float, TaskRequest]]:
    fixed = sample_input(servable)
    spacing = 1.0 / rate_rps
    return [
        (i * spacing, TaskRequest(servable, args=fixed)) for i in range(n_requests)
    ]


def _summarize(latencies_s: list[float], makespan_s: float, mean_batch: float) -> dict:
    arr = np.asarray(latencies_s)
    return {
        "throughput_rps": len(arr) / makespan_s if makespan_s > 0 else float("inf"),
        "median_latency_ms": float(np.median(arr)) * 1e3,
        "p95_latency_ms": float(np.percentile(arr, 95)) * 1e3,
        "mean_batch_size": mean_batch,
    }


def _run_runtime_mode(
    rate_rps: float,
    n_requests: int,
    servable: str,
    max_batch_size: int,
    max_coalesce_delay_s: float,
    seed: int,
) -> dict:
    _, runtime = build_fleet(
        servable, 1, max_batch_size, max_coalesce_delay_s, shared_clock=True, seed=seed
    )
    start = runtime.clock.now()
    results = runtime.serve(_schedule(rate_rps, n_requests, servable))
    assert len(results) == n_requests
    assert all(r.result.ok for r in results)
    makespan = max(r.completed_at for r in results) - start
    return _summarize([r.latency for r in results], makespan, runtime.mean_batch_size)


def _run_client_batched(
    rate_rps: float, n_requests: int, servable: str, batch_size: int, seed: int
) -> dict:
    """The Fig. 5/6 path: the client groups arrivals into pre-formed
    batch tasks, dispatching each batch once its last member arrives."""
    _, runtime = build_fleet(servable, 1, batch_size, 0.0, shared_clock=True, seed=seed)
    (worker,) = runtime.workers
    schedule = _schedule(rate_rps, n_requests, servable)
    clock = runtime.clock
    start = clock.now()
    latencies: list[float] = []
    batches = 0
    for lo in range(0, len(schedule), batch_size):
        chunk = schedule[lo : lo + batch_size]
        last_arrival = start + chunk[-1][0]
        if last_arrival > clock.now():
            clock.advance_to(last_arrival)
        batch_request = TaskRequest(
            servable, batch=[(req.args, req.kwargs) for _, req in chunk]
        )
        result = worker.process(batch_request)
        assert result.ok, result.error
        batches += 1
        done = clock.now()
        latencies.extend(done - (start + offset) for offset, _ in chunk)
    makespan = clock.now() - start
    return _summarize(latencies, makespan, n_requests / batches)


def run_experiment(
    arrival_rates_rps: tuple[float, ...] = ARRIVAL_RATES_RPS,
    n_requests: int = N_REQUESTS,
    servable: str = SERVABLE,
    batch_size: int = BATCH_SIZE,
    coalesce_delay_s: float = COALESCE_DELAY_S,
    seed: int = 0,
) -> dict:
    """Returns ``{"params": {...}, "rates": {label: {policy: row}}}``,
    each rate labelled dot-free for metric paths (``50.0`` -> ``"50rps"``)."""
    rates: dict = {}
    for rate in arrival_rates_rps:
        rates[f"{rate:g}rps"] = {
            "unbatched": _run_runtime_mode(rate, n_requests, servable, 1, 0.0, seed),
            "client_batched": _run_client_batched(
                rate, n_requests, servable, batch_size, seed
            ),
            "server_coalesced": _run_runtime_mode(
                rate, n_requests, servable, batch_size, coalesce_delay_s, seed
            ),
        }
    return {
        "params": {
            "n_requests": n_requests,
            "servable": servable,
            "batch_size": batch_size,
            "coalesce_delay_s": coalesce_delay_s,
        },
        "rates": rates,
    }
