"""Chaos recovery: kill the serving stack at spike peak, prove nothing
is lost and the tail-latency penalty is bounded.

Two arms serve the identical two-tenant phased schedule (quiet ->
spike -> tail) over a journaled stack
(:class:`~repro.durability.chaos.ChaosHarness` over an
:class:`~repro.durability.store.InMemoryDurableStore`):

* **steady** — no fault armed: the baseline cost of serving with the
  write-ahead journal attached.
* **chaos** — one :class:`~repro.durability.chaos.CrashPlan` armed to
  fire at the ``mid_batch`` boundary (worker results computed, nothing
  acked — the worst spot: work done, none of it settled) no earlier
  than the middle of the spike, when the backlog is deepest. The
  harness pays the modelled restart downtime, replays the journal,
  restores the gateway's open requests, and re-offers the unserved
  tail of the schedule.

What the bench must prove (asserted by ``bench_chaos_recovery``):

1. **100% settlement, exactly once** — every admitted request settles
   in precisely one incarnation; no duplicates, no losses, in both
   arms;
2. the crash really landed inside the spike window, at the armed
   boundary, and was followed by exactly one recovery that restored
   open requests;
3. **bounded p99 penalty** — the chaos arm's p99 exceeds the steady
   arm's by at most the restart downtime plus a re-serve slack
   (requests due during the downtime arrive late and the released
   backlog re-drains behind them).

Latencies include crash downtime: arrival timestamps survive recovery,
so a request admitted before the kill and settled after it is charged
for the full gap. Memoization and jitter are off; both arms are
bit-for-bit replayable on the virtual clock.
"""

from __future__ import annotations

import numpy as np

from repro.bench.workloads import phased_offsets, provision_fleet
from repro.core.tasks import TaskRequest
from repro.durability import ChaosHarness, CrashPlan, InMemoryDurableStore

SERVABLE = "noop"
TENANTS = ("alice", "bob")
#: Offered phases: (duration_s, rate_rps) — quiet, spike, tail. The
#: spike is ~6.7x the steady rate; arrivals alternate between tenants.
PHASES = ((0.5, 60.0), (0.5, 400.0), (0.5, 60.0))
N_WORKERS = 2
MAX_BATCH_SIZE = 8
COALESCE_DELAY_S = 0.005
#: Modelled process-restart downtime the chaos arm pays per crash.
RESTART_COST_S = 0.25
SNAPSHOT_EVERY_RECORDS = 64
#: Where the armed crash fires: batch processed, no message acked.
CRASH_POINT = "mid_batch"
#: p99 penalty bound (seconds): one restart downtime plus this
#: re-serve slack for the released backlog draining behind the
#: requests that queued up during the outage.
P99_PENALTY_SLACK_S = 0.5


def spike_window() -> tuple[float, float]:
    """(start, end) offsets of the spike phase."""
    start = PHASES[0][0]
    return start, start + PHASES[1][0]


def _build_harness(store, seed: int) -> tuple[ChaosHarness, list]:
    """A journaled two-tenant serving stack over ``store``."""
    fleet = provision_fleet(SERVABLE, N_WORKERS, tenants=TENANTS, seed=seed)
    harness = ChaosHarness(
        clock=fleet.testbed.clock,
        auth=fleet.testbed.auth,
        policies=fleet.policies,
        workers=fleet.workers,
        placements=[
            {"servable": fleet.servable, "image": fleet.image, "copies": N_WORKERS}
        ],
        store=store,
        restart_cost_s=RESTART_COST_S,
        snapshot_every_records=SNAPSHOT_EVERY_RECORDS,
        runtime_kwargs={
            "max_batch_size": MAX_BATCH_SIZE,
            "max_coalesce_delay_s": COALESCE_DELAY_S,
        },
    )
    return harness, list(fleet.tokens.values())


def _percentiles_ms(latencies: list[float]) -> dict:
    arr = np.asarray(latencies)
    return {
        "p50": float(np.percentile(arr, 50)) * 1e3,
        "p95": float(np.percentile(arr, 95)) * 1e3,
        "p99": float(np.percentile(arr, 99)) * 1e3,
        "max": float(arr.max()) * 1e3,
    }


def _run_arm(crash: bool, seed: int) -> dict:
    harness, tokens = _build_harness(InMemoryDurableStore(), seed)
    arrivals = [
        (offset, tokens[i % len(tokens)], TaskRequest(SERVABLE, args=(i,)))
        for i, offset in enumerate(phased_offsets(PHASES))
    ]
    t0 = harness.clock.now()
    plans: tuple[CrashPlan, ...] = ()
    if crash:
        spike_start, spike_end = spike_window()
        peak = t0 + (spike_start + spike_end) / 2
        plans = (CrashPlan(CRASH_POINT, after_trips=1, not_before_s=peak),)
    outcome = harness.run(arrivals, plans=plans)
    return {
        "requests": len(arrivals),
        "admitted": len(outcome.admitted),
        "settled": len(outcome.settled),
        "denied": len(outcome.denied),
        "duplicates": len(outcome.duplicates),
        "exactly_once": outcome.exactly_once,
        "incarnations": harness.incarnations,
        "crashes": [
            {"point": c.point, "at_s": round(c.at - t0, 6)}
            for c in outcome.crashes
        ],
        "recoveries": [
            {k: v for k, v in rec.items() if k != "dead_open"}
            for rec in outcome.recoveries
        ],
        "makespan_s": round(harness.clock.now() - t0, 6),
        "latency_ms": _percentiles_ms(outcome.latencies()),
        "journal": {
            "records_appended": harness.journal.records_appended,
            "snapshots_taken": harness.journal.snapshots_taken,
            "last_seq": harness.journal.last_seq,
        },
    }


def run_experiment(seed: int = 13) -> dict:
    """Both arms over the identical phased schedule."""
    steady = _run_arm(crash=False, seed=seed)
    chaos = _run_arm(crash=True, seed=seed)
    penalty_s = (
        chaos["latency_ms"]["p99"] - steady["latency_ms"]["p99"]
    ) / 1e3
    return {
        "params": {
            "servable": SERVABLE,
            "tenants": list(TENANTS),
            "phases": [list(phase) for phase in PHASES],
            "spike_window_s": list(spike_window()),
            "n_workers": N_WORKERS,
            "max_batch_size": MAX_BATCH_SIZE,
            "restart_cost_s": RESTART_COST_S,
            "snapshot_every_records": SNAPSHOT_EVERY_RECORDS,
            "crash_point": CRASH_POINT,
            "p99_penalty_bound_s": RESTART_COST_S + P99_PENALTY_SLACK_S,
        },
        "arms": {"steady": steady, "chaos": chaos},
        "p99_penalty_s": round(penalty_s, 6),
    }
