"""Liveness after recovery: the settle rate returns to the pre-crash rate.

Sixteen equal-weight tenants round-robin at 400 rps on ``matminer_util``
(4 own-clock workers, batch 16, 5 ms coalescing); one ``mid_batch``
crash at 2.5 s. A recovered gateway used to start its WFQ scheduler at
virtual time 0 while the requests it restored into the runtime queue
kept the crashed scheduler's tags, so every fresh release outranked
them at dispatch. The restored backlog held a third of the tenants far
over their slot share and the gateway near its budget, and the stack
settled at about two thirds of its pre-crash rate until the new clock
caught up. Recovery now restores the clock first.
"""

from repro.bench.workloads import provision_fleet
from repro.core.tasks import TaskRequest
from repro.durability import ChaosHarness, CrashPlan, InMemoryDurableStore

TENANTS = tuple(f"t{i:02d}" for i in range(16))
RATE_RPS = 400.0
DURATION_S = 6.0
CRASH_AT_S = 2.5


def test_settle_rate_recovers_after_a_crash():
    fleet = provision_fleet("matminer_util", 4, tenants=TENANTS)
    harness = ChaosHarness(
        clock=fleet.testbed.clock,
        auth=fleet.testbed.auth,
        policies=fleet.policies,
        workers=fleet.workers,
        placements=[{"servable": fleet.servable, "image": fleet.image, "copies": 4}],
        store=InMemoryDurableStore(),
        runtime_kwargs={"max_batch_size": 16, "max_coalesce_delay_s": 0.005},
    )
    arrivals = [
        (
            i / RATE_RPS,
            fleet.tokens[TENANTS[i % len(TENANTS)]],
            TaskRequest("matminer_util", args=(f"Fe{i + 1}O3",)),
        )
        for i in range(int(DURATION_S * RATE_RPS))
    ]
    t0 = harness.clock.now()
    outcome = harness.run(
        arrivals, plans=(CrashPlan("mid_batch", not_before_s=t0 + CRASH_AT_S),)
    )
    assert outcome.exactly_once and len(outcome.crashes) == 1
    crash = outcome.crashes[0].at
    restart = crash + harness.restart_cost_s
    settled_at = [r.runtime_result.completed_at for r in outcome.settled.values()]

    def settles(start, end):
        return sum(1 for at in settled_at if start <= at < end)

    before = settles(crash - 1.0, crash)
    after = settles(restart + 0.5, restart + 1.5)
    assert after >= 0.9 * before, (before, after)
