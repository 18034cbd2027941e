"""The timer-heap serve loop against the polled loop it replaced.

A random scenario — two servables, tenant lanes that churn, own- and
shared-clock workers, a scripted controller that crashes / recovers /
``mark_down``s workers, ``add_copy``s a cold one and drops copies
mid-run, a second controller that only watches, a claim stranded until
its visibility timeout, a drain deadline short enough to fire — is built twice and
served once by ``ServingGateway.serve`` and once by the polled oracle in
:mod:`tests.core.serve_oracles`. Both must wake at the same virtual
instants, hold the same budget and over-commit state at each of them,
settle the same requests on the same workers in the same order, and
collect the same lanes.
"""

import math
from collections import deque
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import ServingRuntime, ServingRuntimeError
from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable
from repro.messaging.queue import servable_topic
from tests.core.serve_oracles import polled_gateway_serve

SERVABLES = ("noop", "matminer_util")
INPUTS = {"noop": (1, 2, 3), "matminer_util": ("Fe2O3", "NaCl", "SiO2")}
N_TENANTS = 6
#: Workers a scripted action may name: two on private clocks, one on the
#: global clock (serial), and the cold spare that hosts nothing until an
#: ``add_copy`` action.
WORKERS = ("w0", "w1", "s0", "cold")
TICK_S = 1e-4  # offsets are whole ticks, so arrivals, actions and deadlines collide
LANE_TTL_S = 0.04
VISIBILITY_S = 0.06
DRAIN_DEADLINE_S = 0.015
WATCH_INTERVAL_S = 0.025

def _arrivals(first_tick: int, last_tick: int, max_size: int):
    return st.lists(
        st.tuples(
            st.integers(first_tick, last_tick),  # offset, ticks
            st.integers(0, N_TENANTS - 1),
            st.integers(0, len(SERVABLES) - 1),
            st.integers(0, 2),  # input (repeats hit the memo cache)
        ),
        max_size=max_size,
    )


#: Arrivals spread over the first 0.3 s; a burst at the start dense
#: enough to fill the slot budget, which a `mark_down` soon after then
#: shrinks below what is outstanding; and a few stragglers seconds
#: later, so the run outlives an `add_copy` cold start (2.2 s a copy).
ARRIVALS = st.tuples(
    _arrivals(0, 3000, 40), _arrivals(0, 30, 40), _arrivals(20_000, 50_000, 6)
).map(lambda parts: parts[0] + parts[1] + parts[2])
ACTIONS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 3500), st.integers(10, 120)),
        st.sampled_from(
            ("crash", "recover", "mark_down", "mark_down", "mark_up", "add_copy", "drop_copy")
        ),
        st.integers(0, len(WORKERS) - 1),
        st.integers(0, len(SERVABLES) - 1),
    ),
    max_size=12,
)


class ScriptedController:
    """Applies ``(when, kind, worker, servable)`` actions when due, and
    at the end of the script heals the fleet so every scenario drains."""

    def __init__(self, testbed, runtime, actions):
        self.runtime = runtime
        self.clock = testbed.clock
        start = self.clock.now()
        self.plan = deque(
            sorted((start + ticks * TICK_S, kind, WORKERS[w], SERVABLES[s])
                   for ticks, kind, w, s in actions)
        )
        self.heal_at = start + 3600 * TICK_S

    def next_wakeup(self):
        if self.plan:
            return self.plan[0][0]
        return self.heal_at if self.heal_at is not None else math.inf

    def on_tick(self):
        now = self.clock.now() + 1e-12
        while self.plan and self.plan[0][0] <= now:
            _, kind, worker, servable = self.plan.popleft()
            self.apply(kind, worker, servable)
        if not self.plan and self.heal_at is not None and self.heal_at <= now:
            self.heal_at = None
            for worker in self.runtime.workers:
                worker.recover()
                self.runtime.mark_up(worker.name)

    def apply(self, kind, worker, servable):
        runtime = self.runtime
        if kind == "crash":
            runtime.worker(worker).crash()
        elif kind == "recover":
            runtime.worker(worker).recover()
        elif kind == "mark_down":
            runtime.mark_down(worker)
        elif kind == "mark_up":
            runtime.mark_up(worker)
        elif kind == "add_copy" and "cold" not in runtime.placement()[servable]:
            runtime.add_copy(servable, runtime.worker("cold"))
        elif kind == "drop_copy":
            hosts = runtime.placement()[servable]
            if len(hosts) > 1:
                runtime.remove_copy(servable, hosts[0])


class Watcher:
    """A second controller on its own cadence: records what it sees."""

    def __init__(self, testbed, gateway):
        self.clock = testbed.clock
        self.gateway = gateway
        self.next_at = self.clock.now()
        self.seen = []

    def next_wakeup(self):
        return self.next_at

    def on_tick(self):
        now = self.clock.now()
        if now + 1e-12 >= self.next_at:
            self.seen.append(
                (now, self.gateway.max_dispatch_slots, self.gateway.outstanding)
            )
            self.next_at = now + WATCH_INTERVAL_S


class RecordingGateway(ServingGateway):
    """Logs every settlement the runtime hands over, in order."""

    def on_settled(self, settled):
        self.settle_log.extend(
            (r.request.task_uuid, r.worker, r.batch_size, r.enqueued_at, r.completed_at)
            for r in settled
        )
        super().on_settled(settled)


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


def build(zoo, arrivals, actions, strand):
    """One stack for the scenario; everything that happens in it is a
    function of the arguments alone."""
    testbed = build_testbed(jitter=False, memoize_tm=True)
    clock, queue = testbed.clock, testbed.management.queue
    queue.visibility_timeout_s = VISIBILITY_S
    workers = [
        testbed.add_fleet_worker("w0"),
        testbed.add_fleet_worker("w1"),
        testbed.add_task_manager("s0"),
    ]
    runtime = ServingRuntime(
        clock,
        queue,
        workers,
        max_batch_size=3,
        max_coalesce_delay_s=0.004,
        lane_idle_ttl_s=LANE_TTL_S,
    )
    # noop on w0 + w1, matminer_util on all three: the two own-clock
    # workers pay identical cold starts, so their clocks tie and routing
    # has to break the tie by copy order.
    for name, copies in zip(SERVABLES, (2, 3)):
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image, copies=copies)
    runtime.add_worker(testbed.add_fleet_worker("cold"))
    # Start from a warm fleet; the cold starts under test are add_copy's.
    clock.advance_to(max(w.clock.now() for w in runtime.workers))
    policies = TenantPolicyTable()
    tokens = []
    for i in range(N_TENANTS):
        policies.register(TenantPolicy(name=f"t{i}", weight=1.0 + i % 3))
        identity, token = testbed.new_user(f"user{i}")
        policies.bind_identity(identity, f"t{i}")
        tokens.append(token)
    gateway = RecordingGateway(
        testbed.auth, runtime, policies, drain_deadline_s=DRAIN_DEADLINE_S
    )
    gateway.settle_log = []
    watcher = Watcher(testbed, gateway)
    runtime.attach_controller(ScriptedController(testbed, runtime, actions), watcher)
    if strand:
        # A consumer claims a message and dies: it comes back when its
        # visibility timeout lapses, mid-run.
        runtime.submit(TaskRequest("noop", args=(0,), tenant="t0", task_uuid="stranded"))
        queue.claim(servable_topic("noop", lane="tenant-t0"))
    schedule = [
        (
            ticks * TICK_S,
            tokens[tenant],
            TaskRequest(
                SERVABLES[servable],
                args=(INPUTS[SERVABLES[servable]][arg],),
                task_uuid=f"r{index}",
            ),
        )
        for index, (ticks, tenant, servable, arg) in enumerate(arrivals)
    ]
    wakeups = []
    advance_to = clock.advance_to

    def recording_advance_to(target):
        # Global `advance_to` is the loop going to sleep: note when,
        # until when, and what it believes as it does.
        wakeups.append(
            (clock.now(), target, gateway.max_dispatch_slots, gateway.slot_reserve,
             gateway._over_budget_since)
        )
        return advance_to(target)

    clock.advance_to = recording_advance_to
    return testbed, runtime, gateway, watcher, schedule, wakeups


def outcome(zoo, arrivals, actions, strand, serve):
    testbed, runtime, gateway, watcher, schedule, wakeups = build(
        zoo, arrivals, actions, strand
    )
    try:
        log = serve(gateway, schedule)
        error = None
    except ServingRuntimeError as exc:
        log, error = gateway.serve_log, str(exc)
    return {
        "error": error,
        "decisions": [(r.request.task_uuid, r.decision.outcome, r.completed) for r in log],
        "settled": gateway.settle_log,
        "wakeups": wakeups,
        "watched": watcher.seen,
        "lanes_collected": runtime.lanes_collected,
        "reclaimed": gateway.requests_reclaimed,
        "redelivered": runtime.queue.total_redelivered,
        "budget": (gateway.max_dispatch_slots, gateway.slot_reserve),
        "clock": testbed.clock.now(),
        "left_in_queue": len(runtime.queue),
    }


@settings(max_examples=250, deadline=None)
@given(arrivals=ARRIVALS, actions=ACTIONS, strand=st.booleans())
def test_kernel_and_polled_loop_serve_identically(zoo, arrivals, actions, strand):
    kernel = outcome(zoo, arrivals, actions, strand, ServingGateway.serve)
    polled = outcome(zoo, arrivals, actions, strand, polled_gateway_serve)
    for key in polled:
        assert kernel[key] == polled[key], key


def test_scenarios_reach_the_paths_they_are_for(zoo):
    """One hand-written scenario, to show the generator's ingredients do
    what the property relies on: lanes are collected, the stranded claim
    is redelivered, a shrunk budget outlasts the drain deadline, and the
    cold copy's warm-up grows the budget back to where it started."""
    burst = [(i, i % N_TENANTS, i % 2, i % 3) for i in range(30)]
    spread = [(100 + i * 80, i % N_TENANTS, i % 2, i % 3) for i in range(24)]
    late = [(25_000 + i * 500, i % N_TENANTS, i % 2, i % 3) for i in range(6)]
    arrivals = burst + spread + late
    actions = [(40, "mark_down", 0, 0), (45, "mark_down", 1, 0), (60, "add_copy", 3, 0),
               (900, "crash", 2, 0), (1500, "mark_up", 0, 0)]
    result = outcome(zoo, arrivals, actions, True, ServingGateway.serve)
    assert result == outcome(zoo, arrivals, actions, True, polled_gateway_serve)
    assert result["error"] is None and result["left_in_queue"] == 0
    assert len(result["settled"]) == 61 and result["redelivered"] == 1
    assert result["lanes_collected"] > 0 and result["reclaimed"] > 0
    budgets = [budget for budget, _ in groupby(w[2] for w in result["wakeups"])]
    # Two workers marked down and the cold one warming, the script's
    # heal, then — 2.2 s in — the cold copy's warm-up.
    assert budgets == [13, 10, 4, 10, 13]
    assert any(since is not None for *_, since in result["wakeups"])


def test_a_crash_mid_serve_shrinks_the_budget_at_the_instant_it_happens(zoo):
    """``TaskManager.crash()`` tells no one but its liveness watchers, and
    the runtime's only raises flags — yet the budget is smaller by the
    end of the very wake-up the crash happened in, exactly as when the
    polled loop re-derived it on every tick."""
    arrivals = [(i * 100, i % N_TENANTS, 0, i % 3) for i in range(10)]
    crash_tick = 333  # no arrival, completion or deadline falls on it
    actions = [(crash_tick, "crash", 1, 0)]

    def budget_by_wakeup(serve):
        testbed, runtime, gateway, _, schedule, wakeups = build(zoo, arrivals, actions, False)
        start = testbed.clock.now()
        serve(gateway, schedule)
        return start, [(at, budget) for at, _, budget, _, _ in wakeups]

    start, kernel = budget_by_wakeup(ServingGateway.serve)
    assert (start, kernel) == budget_by_wakeup(polled_gateway_serve)
    full = kernel[0][1]
    shrunk_at = next(at for at, budget in kernel if budget < full)
    assert shrunk_at == start + crash_tick * TICK_S
