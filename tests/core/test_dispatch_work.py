"""The dispatch decision's work for one fixed gateway schedule, pinned as counts.

A count moves only when the code does, never with the host. One
decision is one ``_next_window`` call: it routes a servable only when
that servable holds a due window, and then once; the dispatch that
follows takes the host the decision routed instead of routing again,
and no global time passes between the two.
"""

from __future__ import annotations

from repro.bench.workloads import build_fleet
from repro.core.tasks import TaskRequest
from repro.core.zoo import sample_input
from repro.gateway import ServingGateway

SERVABLE = "matminer_util"
TENANTS = ("a", "b", "c", "d")
N_REQUESTS = 400
RATE_RPS = 900.0


def test_one_schedule_routes_only_due_decisions_once():
    # One servable on four own-clock hosts, as every e2e workload places
    # it; four tenants near the fleet's knee, so hosts are often busy.
    fleet, runtime = build_fleet(SERVABLE, 4, 4, 0.005, copies=4, tenants=TENANTS)
    gateway = ServingGateway(fleet.testbed.auth, runtime, fleet.policies)
    clock = runtime.clock
    counts = {"decisions": 0, "routes": 0, "dispatches": 0, "routed_decisions": 0}
    decision = {"routes": 0, "now": None, "pick": None}
    in_dispatch = []

    next_window, route, dispatch_topic = (
        runtime._next_window,
        runtime._route,
        runtime._dispatch_topic,
    )

    def counted_next_window(now):
        counts["decisions"] += 1
        decision["routes"], decision["now"] = 0, clock.now()
        topic, host, next_event = next_window(now)
        counts["routed_decisions"] += decision["routes"] > 0
        decision["pick"] = topic, host
        return topic, host, next_event

    def counted_route(name, now):
        assert not in_dispatch, "the dispatch routed a second time"
        assert runtime._window_heaps[name][0], "routed a servable with no due window"
        assert decision["routes"] == 0, "one servable routed twice in a decision"
        counts["routes"] += 1
        decision["routes"] += 1
        return route(name, now)

    def counted_dispatch(topic, worker):
        assert (topic, worker) == decision["pick"]
        assert clock.now() == decision["now"]
        counts["dispatches"] += 1
        in_dispatch.append(topic)
        try:
            dispatch_topic(topic, worker)
        finally:
            in_dispatch.pop()

    runtime._next_window = counted_next_window
    runtime._route = counted_route
    runtime._dispatch_topic = counted_dispatch

    fixed = sample_input(SERVABLE)
    arrivals = [
        (
            i / RATE_RPS,
            fleet.tokens[TENANTS[i % len(TENANTS)]],
            # Explicit ids: the process-wide task counter stays put.
            TaskRequest(SERVABLE, args=fixed, task_uuid=f"work-{i}"),
        )
        for i in range(N_REQUESTS)
    ]
    results = gateway.serve(arrivals)
    assert sum(r.completed for r in results) == N_REQUESTS

    # Half the decisions hold no due window and read no host clock; ten
    # routed ones find every host busy and dispatch nothing.
    assert counts == {
        "decisions": 228,
        "routes": 114,
        "dispatches": 104,
        "routed_decisions": 114,
    }
