"""Tenant lane lifecycle: idle lanes GC out of the topic scan.

Per-tenant sub-topics used to accumulate in ``ServingRuntime._lanes``
forever; with thousands of churning tenants every ``_next_window`` scan
(and ``queue_depth``) paid for all of history. A lane is collected once
its topic is empty, nothing claimed from it is still in flight, and the
tenant has been idle past ``lane_idle_ttl_s``.
"""

from unittest import mock

import pytest

from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.zoo import build_zoo
from repro.messaging.queue import servable_topic
from tests.core.lane_oracles import (
    assert_lane_index_consistent,
    reference_collectable_lanes,
)


def build_runtime(**kwargs):
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        [testbed.task_manager],
        max_batch_size=4,
        **kwargs,
    )
    published = testbed.management.publish(testbed.token, zoo["noop"])
    runtime.place(zoo["noop"], published.build.image)
    return testbed, runtime


def lanes_of(runtime, servable="noop"):
    return set(runtime._lanes.get(servable, set()))


class TestLaneGC:
    def test_idle_tenant_lane_is_collected(self):
        testbed, runtime = build_runtime(lane_idle_ttl_s=1.0)
        runtime.submit(TaskRequest("noop", tenant="ephemeral"))
        runtime.drain()
        assert "tenant-ephemeral" in lanes_of(runtime)

        # Not yet idle long enough.
        testbed.clock.advance(0.5)
        assert runtime.gc_lanes() == 0
        testbed.clock.advance(1.0)
        assert runtime.gc_lanes() == 1
        assert lanes_of(runtime) == {"requests"}
        assert runtime.lanes_collected == 1

    def test_default_lane_never_collected(self):
        testbed, runtime = build_runtime(lane_idle_ttl_s=0.1)
        runtime.submit(TaskRequest("noop"))
        runtime.drain()
        testbed.clock.advance(10.0)
        assert runtime.gc_lanes() == 0
        assert lanes_of(runtime) == {"requests"}

    def test_lane_with_ready_work_survives(self):
        testbed, runtime = build_runtime(lane_idle_ttl_s=0.1)
        runtime.submit(TaskRequest("noop", tenant="parked"))
        testbed.clock.advance(10.0)
        assert runtime.gc_lanes() == 0
        assert "tenant-parked" in lanes_of(runtime)
        # Once served and idle again, it goes.
        runtime.drain()
        testbed.clock.advance(10.0)
        assert runtime.gc_lanes() == 1

    def test_lane_with_inflight_claim_survives(self):
        testbed, runtime = build_runtime(lane_idle_ttl_s=0.1)
        runtime.submit(TaskRequest("noop", tenant="ghost"))
        topic = servable_topic("noop", lane="tenant-ghost")
        # A consumer claims and dies: the message is in flight, not
        # ready — the lane must survive so redelivery lands on a
        # scanned topic.
        runtime.queue.claim(topic)
        testbed.clock.advance(10.0)
        assert runtime.gc_lanes() == 0
        assert "tenant-ghost" in lanes_of(runtime)

    def test_serve_loop_runs_gc(self):
        testbed, runtime = build_runtime(lane_idle_ttl_s=0.05)
        runtime.submit(TaskRequest("noop", tenant="bursty"))
        runtime.drain()
        # A later schedule advances the clock past the TTL; the loop's
        # periodic sweep collects the idle lane without an explicit call.
        results = runtime.serve([(0.5, TaskRequest("noop"))])
        assert len(results) == 1
        assert lanes_of(runtime) == {"requests"}

    def test_submit_bounds_tracked_lanes(self):
        testbed, runtime = build_runtime(lane_idle_ttl_s=0.1)
        # Churn tenants one at a time; each round drains and goes idle
        # before the next tenant's first submit arrives.
        for i in range(12):
            runtime.submit(TaskRequest("noop", tenant=f"t{i}"))
            runtime.drain()
            testbed.clock.advance(0.2)
        # Tracking a new lane collects whatever has idled out, with no
        # bound to configure: only the default lane and the newest
        # tenant are left, instead of 13 lanes.
        assert len(lanes_of(runtime)) <= 2
        assert runtime.lanes_collected >= 8


def pump(runtime):
    """Dispatch every due window and settle it, without the serve loop
    (which would sleep through to a stranded claim's visibility expiry)."""
    while (topic := runtime._next_window(runtime.clock.now())[0]) is not None:
        runtime._dispatch_topic(topic)
    runtime._settle(runtime.clock.now())


def test_stranded_claim_lane_neither_goes_nor_shields_the_lanes_behind_it():
    testbed, runtime = build_runtime(lane_idle_ttl_s=0.1, max_coalesce_delay_s=0.0)
    runtime.submit(TaskRequest("noop", tenant="ghost"))
    # The ghost lane's consumer claims and dies; two younger lanes are
    # served normally behind it in the idle order.
    runtime.queue.claim(servable_topic("noop", lane="tenant-ghost"))
    testbed.clock.advance(0.01)
    runtime.submit(TaskRequest("noop", tenant="a"))
    runtime.submit(TaskRequest("noop", tenant="b"))
    pump(runtime)
    assert_lane_index_consistent(runtime)
    assert next(iter(runtime._lane_active)) == ("noop", "tenant-ghost")

    testbed.clock.advance(1.0)
    assert reference_collectable_lanes(runtime, testbed.clock.now()) == {
        ("noop", "tenant-a"),
        ("noop", "tenant-b"),
    }
    assert runtime.gc_lanes() == 2
    assert lanes_of(runtime) == {"requests", "tenant-ghost"}
    # Still stranded, still stepped over.
    assert runtime.gc_lanes() == 0

    # The claim's visibility timeout lapses: the serve loop redelivers
    # and settles it, and the lane then idles out like any other.
    testbed.clock.advance(runtime.queue.visibility_timeout_s)
    assert len(runtime.drain()) == 1
    assert "tenant-ghost" in lanes_of(runtime)
    testbed.clock.advance(1.0)
    assert runtime.gc_lanes() == 1
    assert lanes_of(runtime) == {"requests"}
    assert runtime.lanes_collected == 3
    assert_lane_index_consistent(runtime)


@pytest.mark.parametrize("action", ["new_lane_submit", "gc_lanes"])
def test_lane_gc_touches_only_lanes_past_the_ttl(action):
    """With 2,000 live lanes tracked, collection probes the queue once
    per *expired* lane — a count, not a stopwatch."""
    n_live, n_expired, ttl, gap = 2_000, 3, 10_000.0, 100.0
    testbed, runtime = build_runtime(lane_idle_ttl_s=ttl, max_coalesce_delay_s=0.0)
    for i in range(n_expired):
        runtime.submit(TaskRequest("noop", args=(i,), tenant=f"old{i}"))
    pump(runtime)
    old_idle_since = testbed.clock.now()
    testbed.clock.advance(gap)
    for i in range(n_live):
        runtime.submit(TaskRequest("noop", args=(i,), tenant=f"live{i}"))
    pump(runtime)
    # The old lanes are past the TTL; every live lane — drained, settled,
    # collectable but for its age — is still inside it.
    testbed.clock.advance_to(old_idle_since + ttl + gap / 2)
    assert len(lanes_of(runtime)) == 1 + n_expired + n_live
    assert len(reference_collectable_lanes(runtime, testbed.clock.now())) == n_expired

    queue = runtime.queue
    with (
        mock.patch.object(queue, "ready_count", wraps=queue.ready_count) as ready,
        mock.patch.object(
            queue, "inflight_count_for", wraps=queue.inflight_count_for
        ) as inflight,
    ):
        if action == "new_lane_submit":
            runtime.submit(TaskRequest("noop", tenant="newcomer"))
        else:
            assert runtime.gc_lanes() == n_expired
    assert runtime.lanes_collected == n_expired
    # One probe per expired lane, plus the new lane's own baseline read.
    assert ready.call_count <= n_expired + 1
    assert inflight.call_count <= n_expired
