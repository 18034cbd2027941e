"""The timer-heap serve loop against the polled loop it replaced.

A random scenario — two servables, a lane per tenant, own- and
shared-clock workers, a scripted controller that crashes / recovers /
``mark_down``s workers, ``add_copy``s a cold one and drops copies
over the first seconds, a second controller that only watches, a claim
stranded until the queue's visibility timeout lapses, fleets that stay
shrunk past the gateway's drain deadline, and (drawn on purpose) a
squeeze that fills the budget and then leaves one worker up past that
deadline, so the gateway reclaims released work into its lanes — is
built twice and served once by ``ServingGateway.serve`` and once by the
polled oracle in :mod:`tests.core.serve_oracles`. Both must wake at the same virtual
instants, hold the same budget and over-commit state at each of them,
and settle the same requests on the same workers in the same order.
The script heals the fleet in the end, so no scenario may end in the
stall error: the loop sleeps to controller wake-ups while the gateway
holds work that waits on a heal, and raises only when none is due
within the queue's visibility timeout of the stall's start. A return
means nothing is open: no request the gateway admitted is unsettled,
laned or released into the queue, and no message waits on a runtime
topic. Fleets that nothing heals pin when the raise comes.
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
from repro.gateway.gateway import DRAIN_DEADLINE_S
from repro.messaging.queue import VISIBILITY_TIMEOUT_S, servable_topic
from tests.core.serve_oracles import polled_gateway_serve
from tests.integration.conservation import assert_ledgers_agree

SERVABLES = ("noop", "matminer_util")
INPUTS = {"noop": (1, 2, 3), "matminer_util": ("Fe2O3", "NaCl", "SiO2")}
N_TENANTS = 6
#: Workers a scripted action may name: two on private clocks, one on the
#: global clock (serial), and the cold spare that hosts nothing until an
#: ``add_copy`` action.
WORKERS = ("w0", "w1", "s0", "cold")
TICK_S = 1e-4  # offsets are whole ticks, so arrivals, actions and deadlines collide
WATCH_INTERVAL_S = 0.025
#: When the script heals the fleet: after its last action (3.5 s), so a
#: fleet shrunk in the opening burst can stay shrunk past the drain
#: deadline.
HEAL_TICKS = 36_000

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
#: A stranded claim keeps the loop running until its 30 s visibility
#: timeout lapses.
ARRIVALS = st.tuples(
    _arrivals(0, 3000, 40), _arrivals(0, 30, 40), _arrivals(20_000, 50_000, 6)
).map(lambda parts: parts[0] + parts[1] + parts[2])
#: Scripted actions over the first 3.5 s, some inside the opening burst:
#: a fleet that loses its hosts there and gets none back for 2 s outlasts
#: the drain deadline.
ACTIONS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 35_000), st.integers(10, 120)),
        st.sampled_from(
            ("crash", "recover", "mark_down", "mark_down", "mark_up", "add_copy", "drop_copy")
        ),
        st.integers(0, len(WORKERS) - 1),
        st.integers(0, len(SERVABLES) - 1),
    ),
    max_size=12,
)

#: A squeeze, or ``None``: ``(burst, kept, down_tick, up_after)`` — a
#: one-per-tick burst of ``burst`` arrivals over every tenant and both
#: servables, which fills the slot budget; then every worker but
#: ``WORKERS[kept]`` (``cold`` hosts nothing: then nothing serves)
#: marked down at ``down_tick`` and back up ``up_after`` ticks past the
#: drain deadline. Random scripts alone
#: rarely stay shrunk that long (2 reclaiming examples in 450), and a
#: reclaim is where lanes refill while the fleet is short.
SQUEEZE = st.one_of(
    st.none(),
    st.tuples(
        st.integers(13, 30),
        st.integers(0, len(WORKERS) - 1),
        st.integers(10, 40),
        st.integers(1, 5000),
    ),
)
DRAIN_TICKS = round(DRAIN_DEADLINE_S / TICK_S)


def squeezed(arrivals, actions, squeeze):
    """``arrivals`` and ``actions`` with the squeeze's burst and host
    moves appended (unchanged for ``None``)."""
    if squeeze is None:
        return arrivals, actions
    burst, kept, down_tick, up_after = squeeze
    arrivals = arrivals + [(i, i % N_TENANTS, i % 2, i % 3) for i in range(burst)]
    up_tick = down_tick + DRAIN_TICKS + up_after
    for host in range(len(WORKERS)):
        if host != kept:
            actions = actions + [(down_tick, "mark_down", host, 0), (up_tick, "mark_up", host, 0)]
    return arrivals, actions


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
        self.heal_at = start + HEAL_TICKS * TICK_S

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
    """Logs every settlement the runtime hands over, in order, and checks
    after every serve-loop hook that the open-request counts agree."""

    def on_tick(self, now):
        super().on_tick(now)
        assert_ledgers_agree(self)

    def on_settled(self, settled):
        self.settle_log.extend(
            (r.request.task_uuid, r.worker, r.batch_size, r.enqueued_at, r.completed_at)
            for records in settled
            for r in records
        )
        super().on_settled(settled)
        assert_ledgers_agree(self)


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


def build(zoo, arrivals, actions, strand, watch=True):
    """One stack for the scenario; everything that happens in it is a
    function of the arguments alone. ``actions=None`` attaches no
    scripted controller, ``watch=False`` no watcher."""
    testbed = build_testbed(jitter=False, memoize_tm=True)
    clock, queue = testbed.clock, testbed.management.queue
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
    gateway = RecordingGateway(testbed.auth, runtime, policies)
    gateway.settle_log = []
    watcher = Watcher(testbed, gateway)
    controllers = [] if actions is None else [ScriptedController(testbed, runtime, actions)]
    if watch:
        controllers.append(watcher)
    runtime.attach_controller(*controllers)
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


def outcome(zoo, arrivals, actions, strand, serve, watch=True):
    testbed, runtime, gateway, watcher, schedule, wakeups = build(
        zoo, arrivals, actions, strand, watch
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
        "reclaimed": gateway.requests_reclaimed,
        "redelivered": runtime.queue.total_redelivered,
        "budget": (gateway.max_dispatch_slots, gateway.slot_reserve),
        "clock": testbed.clock.now(),
        "held": gateway.pending(),
        "left_in_queue": len(runtime.queue),
    }


@settings(max_examples=250, deadline=None)
@given(arrivals=ARRIVALS, actions=ACTIONS, strand=st.booleans(), squeeze=SQUEEZE)
def test_kernel_and_polled_loop_serve_identically(zoo, arrivals, actions, strand, squeeze):
    arrivals, actions = squeezed(arrivals, actions, squeeze)
    kernel = outcome(zoo, arrivals, actions, strand, ServingGateway.serve)
    polled = outcome(zoo, arrivals, actions, strand, polled_gateway_serve)
    for key in polled:
        assert kernel[key] == polled[key], key
    # The script heals every scenario by HEAL_TICKS, so a stall error
    # here is the loop giving up on a fleet that would have healed; and
    # a return means nothing is open, in the gateway or in the queue.
    assert kernel["error"] is None
    assert kernel["held"] == 0 and kernel["left_in_queue"] == 0


#: A one-per-tick burst over every tenant and both servables.
BURST = [(i, i % N_TENANTS, i % 2, i % 3) for i in range(30)]


def stall_error(held, stalled_s):
    return f"{held} request(s) held open with no next event after {stalled_s:.3f} s stalled"


def test_a_heal_after_many_quiet_controller_ticks_is_waited_for(zoo):
    """noop's two hosts go down inside the burst and come back 2.01 s
    later. Meanwhile the watcher wakes the stalled loop some 80 times
    and nothing changes; the loop still waits, since the heal is due
    well within the visibility timeout, and serves everything."""
    actions = [(25, "mark_down", 0, 0), (25, "mark_down", 1, 0),
               (20_125, "mark_up", 0, 0), (20_125, "mark_up", 1, 0)]
    result = outcome(zoo, BURST, actions, False, ServingGateway.serve)
    assert result == outcome(zoo, BURST, actions, False, polled_gateway_serve)
    assert result["error"] is None and len(result["settled"]) == 30
    start = result["wakeups"][0][0]
    quiet = [at for at, _, _ in result["watched"]
             if start + 25 * TICK_S < at < start + 20_125 * TICK_S]
    assert len(quiet) > 64


def marked_down(serve):
    """``serve`` on a fleet with every host marked down first."""

    def run(gateway, schedule):
        for name in ("w0", "w1", "s0"):
            gateway.runtime.mark_down(name)
        return serve(gateway, schedule)

    return run


def unhealable(zoo, watch):
    """The burst on a fleet that nothing can bring back: both loops raise
    the same error at the same instant. The stall starts when the last
    arrival is offered; the message counts what the gateway holds open,
    laned or released into the queue (the budget's one-worker floor let
    four through), and that is every request: nothing is dropped."""
    result = outcome(zoo, BURST, None, False, marked_down(ServingGateway.serve), watch)
    assert result == outcome(zoo, BURST, None, False, marked_down(polled_gateway_serve), watch)
    assert result["held"] == len(BURST) and result["left_in_queue"] == 4
    assert result["settled"] == []
    start = result["wakeups"][0][0]
    return result, start, start + (len(BURST) - 1) * TICK_S


def test_an_unhealable_fleet_without_a_controller_raises_at_the_first_stalled_sleep(zoo):
    result, _, stalled_since = unhealable(zoo, watch=False)
    assert result["clock"] == stalled_since
    assert result["error"] == stall_error(30, 0.0)


def test_an_unhealable_fleet_under_a_watcher_raises_at_the_visibility_timeout(zoo):
    """The watcher keeps ticking and never changes the fleet: the loop
    sleeps to it until its next tick lies past ``stalled_since +
    VISIBILITY_TIMEOUT_S``, and raises at the last one at or before."""
    result, start, stalled_since = unhealable(zoo, watch=True)
    last_tick = result["watched"][-1][0]
    assert result["clock"] == last_tick
    assert last_tick <= stalled_since + VISIBILITY_TIMEOUT_S < last_tick + WATCH_INTERVAL_S
    # The watcher's 1,200th tick: 30 s after the start, 29.997 s stalled.
    assert last_tick - start == pytest.approx(30.0)
    assert result["error"] == stall_error(30, 29.997)


#: noop's two hosts crash at tick 0, and one noop request arrives at
#: 2.0 s: it is admitted and released into a queue no live host drains.
CRASHED_NOOP = [(0, "crash", 0, 0), (0, "crash", 1, 0)]
LONE = [(20_000, 0, 0, 0)]


def test_released_work_that_waits_for_a_heal_is_waited_for(zoo):
    """No lane holds ``r0``, but it is open in the queue: the loop
    sleeps to the script's heal 1.6 s later instead of returning at
    2.0 s, and ``r0`` settles on a healed host."""
    result = outcome(zoo, LONE, CRASHED_NOOP, False, ServingGateway.serve, watch=False)
    assert result == outcome(zoo, LONE, CRASHED_NOOP, False, polled_gateway_serve, watch=False)
    assert result["error"] is None
    assert result["held"] == 0 and result["left_in_queue"] == 0
    start = result["wakeups"][0][0]
    ((uuid, worker, _, enqueued_at, completed_at),) = result["settled"]
    assert uuid == "r0" and worker in ("w0", "w1")
    assert enqueued_at == pytest.approx(start + 2.0)
    assert completed_at > start + HEAL_TICKS * TICK_S


def crashed(serve):
    """``serve`` on a fleet whose noop hosts crashed first."""

    def run(gateway, schedule):
        for name in ("w0", "w1"):
            gateway.runtime.worker(name).crash()
        return serve(gateway, schedule)

    return run


def test_released_work_on_an_unhealable_fleet_raises_at_the_visibility_timeout(zoo):
    """``r0``'s twin with nothing to heal the fleet, only the watcher:
    the loop sleeps to it for the visibility timeout after ``r0``
    arrives, then raises, counting ``r0``, which is still queued."""
    result = outcome(zoo, LONE, None, False, crashed(ServingGateway.serve))
    assert result == outcome(zoo, LONE, None, False, crashed(polled_gateway_serve))
    assert result["held"] == 1 and result["left_in_queue"] == 1
    assert result["settled"] == []
    start = result["wakeups"][0][0]
    stalled_since = start + LONE[0][0] * TICK_S
    last_tick = result["watched"][-1][0]
    assert result["clock"] == last_tick
    assert last_tick <= stalled_since + VISIBILITY_TIMEOUT_S < last_tick + WATCH_INTERVAL_S
    assert last_tick - start == pytest.approx(32.0)
    assert result["error"] == stall_error(1, 30.0)


def test_work_put_past_the_gateway_is_open_too(zoo):
    """A request submitted to the runtime directly, with the gateway
    attached, is none of the gateway's, but it is open: on crashed
    noop hosts with nothing to heal them, both loops raise at once
    rather than return with it queued."""

    def direct(serve):
        def run(gateway, schedule):
            gateway.runtime.submit(
                TaskRequest("noop", args=(0,), tenant="t0", task_uuid="direct")
            )
            return serve(gateway, schedule)

        return crashed(run)

    result = outcome(zoo, [], None, False, direct(ServingGateway.serve), watch=False)
    assert result == outcome(zoo, [], None, False, direct(polled_gateway_serve), watch=False)
    assert result["error"] == stall_error(1, 0.0)
    assert result["held"] == 0 and result["left_in_queue"] == 1


def test_scenarios_reach_the_paths_they_are_for(zoo):
    """One hand-written scenario, to show the generator's ingredients do
    what the property relies on: the stranded claim is redelivered, a
    shrunk budget outlasts the drain deadline, and the cold copy's
    warm-up grows the budget."""
    spread = [(100 + i * 80, i % N_TENANTS, i % 2, i % 3) for i in range(24)]
    late = [(25_000 + i * 500, i % N_TENANTS, i % 2, i % 3) for i in range(6)]
    arrivals = BURST + spread + late
    # w0 and w1 marked down and s0 crashed inside the burst: no worker
    # counts (the one-worker floor), nothing settles, and the over-commit
    # outlasts the drain deadline. w0 comes back after it has fired.
    actions = [(40, "mark_down", 0, 0), (45, "mark_down", 1, 0), (60, "add_copy", 3, 0),
               (100, "crash", 2, 0), (21_000, "mark_up", 0, 0)]
    result = outcome(zoo, arrivals, actions, True, ServingGateway.serve)
    assert result == outcome(zoo, arrivals, actions, True, polled_gateway_serve)
    assert result["error"] is None and result["left_in_queue"] == 0
    assert len(result["settled"]) == 61 and result["redelivered"] == 1
    assert result["reclaimed"] > 0
    start = result["wakeups"][0][0]
    over = [(target, since) for _, target, _, _, since in result["wakeups"] if since]
    # Over-committed from the first mark_down on; the loop's last sleep
    # in that state ends exactly at the drain deadline, which fires.
    assert [since for _, since in over] == [pytest.approx(start + 40 * TICK_S)] * len(over)
    assert over[-1][0] == pytest.approx(over[-1][1] + DRAIN_DEADLINE_S)
    # The stranded claim came back when its visibility timeout lapsed.
    assert result["clock"] > start + VISIBILITY_TIMEOUT_S
    budgets = [budget for budget, _ in groupby(w[2] for w in result["wakeups"])]
    # w0 marked down; then no countable worker (the floor: one worker's
    # slots); w0 back, still one worker; the cold copy's warm-up, 2.2 s
    # in (two workers); the script's heal.
    assert budgets == [13, 10, 4, 7, 13]


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
