"""Property test: the lane-lifecycle and in-flight indices vs their oracles.

Random interleavings of tenant submits, dispatches, settles, clock
advances, consumer crashes that strand claims, acks/nacks and expiry
sweeps drive one runtime; after every step the indexed structures must
answer exactly as the linear reference passes in
:mod:`tests.core.lane_oracles` do — lane GC collects the oracle's set,
and ``inflight_count_for`` / ``next_inflight_expiry`` /
``expire_inflight`` match a brute-force pass over ``dump_state()``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.messaging.queue import servable_topic
from tests.core.lane_oracles import (
    assert_inflight_index_consistent,
    assert_lane_index_consistent,
    checked_expire_inflight,
    reference_collectable_lanes,
    tracked_tenant_lanes,
)

SERVABLES = ("noop", "matminer_util")
N_TENANTS = 10
LANE_TTL_S = 0.5
VISIBILITY_S = 2.0
#: Clock steps: inside a coalescing window, around the lane TTL, and
#: around the visibility timeout.
ADVANCES = (0.0, 0.004, 0.2, LANE_TTL_S, 0.7, VISIBILITY_S, 2.5)

SUBMIT = st.tuples(
    st.just("submit"),
    st.integers(0, len(SERVABLES) - 1),
    st.integers(-1, N_TENANTS - 1),
    # Clock step taken *before* the submit, with no GC in between: the
    # new-lane path then has idled-out lanes of its own to drop.
    st.sampled_from(ADVANCES),
)
OPS = st.one_of(
    SUBMIT,
    SUBMIT,
    SUBMIT,
    st.tuples(st.just("dispatch"), st.integers(1, 3)),
    st.tuples(st.just("dispatch"), st.integers(1, 3)),
    st.tuples(st.just("settle")),
    st.tuples(st.just("advance"), st.sampled_from(ADVANCES)),
    st.tuples(st.just("strand"), st.integers(0, 63), st.integers(1, 3)),
    st.tuples(st.just("ack"), st.integers(0, 63)),
    st.tuples(st.just("nack"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("expire")),
)


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


def build_runtime(zoo):
    testbed = build_testbed(jitter=False, memoize_tm=False)
    queue = testbed.management.queue
    queue.visibility_timeout_s = VISIBILITY_S
    # Fleet workers run on private clocks, so a dispatched batch parks
    # on the pending list until global time reaches its completion.
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(2)]
    runtime = ServingRuntime(
        testbed.clock,
        queue,
        workers,
        max_batch_size=3,
        max_coalesce_delay_s=0.005,
        lane_idle_ttl_s=LANE_TTL_S,
    )
    for name in SERVABLES:
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image, copies=2)
    return testbed, runtime


def collected_by(runtime, action):
    """The tenant lanes ``action`` dropped."""
    before = tracked_tenant_lanes(runtime)
    action()
    return before - tracked_tenant_lanes(runtime)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(OPS, min_size=30, max_size=90))
def test_indexed_lane_gc_and_inflight_table_match_their_oracles(zoo, ops):
    testbed, runtime = build_runtime(zoo)
    clock, queue = testbed.clock, runtime.queue
    stranded = []  # claims whose consumer died before settling them
    for op, *params in ops:
        if op == "submit":
            servable, tenant, step = params
            clock.advance(step)
            request = TaskRequest(SERVABLES[servable], args=("x",))
            request.tenant = None if tenant < 0 else f"t{tenant}"
            lane = "requests" if tenant < 0 else f"tenant-t{tenant}"
            new_lane = lane not in runtime._lanes.get(request.servable_name, {"requests"})
            expected = (
                reference_collectable_lanes(runtime, clock.now()) if new_lane else set()
            )
            assert collected_by(runtime, lambda: runtime.submit(request)) == expected
        elif op == "dispatch":
            for _ in range(params[0]):
                topic, _ = runtime._next_window(clock.now())
                if topic is None:
                    break
                runtime._dispatch_topic(topic)
        elif op == "settle":
            runtime._settle(clock.now(), {})
        elif op == "advance":
            clock.advance(params[0])
        elif op == "strand":
            topics = sorted(t for t in queue.topics() if t in runtime._owned_topics)
            if topics:
                topic = topics[params[0] % len(topics)]
                stranded.extend(queue.claim_many(topic, n=params[1]))
        elif op in ("ack", "nack"):
            live = [m for m in stranded if m.delivery_tag in queue._inflight]
            if live:
                message = live[params[0] % len(live)]
                if op == "ack":
                    queue.ack(message.delivery_tag)
                else:
                    queue.nack(message.delivery_tag, requeue=params[1])
        elif op == "expire":
            checked_expire_inflight(queue)

        assert_inflight_index_consistent(
            queue,
            topic_sets=[
                runtime._owned_topics,
                {servable_topic(SERVABLES[0], lane=f"tenant-t{i}") for i in range(3)},
            ],
        )
        assert_lane_index_consistent(runtime)
        expected = reference_collectable_lanes(runtime, clock.now())
        assert collected_by(runtime, runtime.gc_lanes) == expected
        assert_lane_index_consistent(runtime)
