"""Property test: the queue's in-flight index vs its oracles.

Random interleavings of tenant submits, dispatches, settles, clock
advances, consumer crashes that strand claims, acks/nacks and expiry
sweeps drive one runtime; after every step ``next_inflight_expiry`` and
``expire_inflight`` must answer exactly as the linear reference passes
in :mod:`tests.core.lane_oracles` do over ``dump_state()``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.messaging.queue import VISIBILITY_TIMEOUT_S, servable_topic
from tests.core.lane_oracles import (
    assert_inflight_index_consistent,
    checked_expire_inflight,
)

SERVABLES = ("noop", "matminer_util")
N_TENANTS = 10
#: Clock steps: inside a coalescing window, and around the visibility
#: timeout (fractions of it, all of it, and more).
ADVANCES = (
    0.0,
    0.004,
    0.2,
    VISIBILITY_TIMEOUT_S / 4,
    VISIBILITY_TIMEOUT_S * 0.35,
    VISIBILITY_TIMEOUT_S,
    VISIBILITY_TIMEOUT_S * 1.25,
)

SUBMIT = st.tuples(
    st.just("submit"),
    st.integers(0, len(SERVABLES) - 1),
    st.integers(-1, N_TENANTS - 1),
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
    # Fleet workers run on private clocks, so a dispatched batch parks
    # on the pending list until global time reaches its completion.
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(2)]
    runtime = ServingRuntime(
        testbed.clock,
        queue,
        workers,
        max_batch_size=3,
        max_coalesce_delay_s=0.005,
    )
    for name in SERVABLES:
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image, copies=2)
    return testbed, runtime


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(OPS, min_size=30, max_size=90))
def test_inflight_table_matches_its_oracles(zoo, ops):
    testbed, runtime = build_runtime(zoo)
    clock, queue = testbed.clock, runtime.queue
    stranded = []  # claims whose consumer died before settling them
    for op, *params in ops:
        if op == "submit":
            servable, tenant = params
            request = TaskRequest(SERVABLES[servable], args=("x",))
            request.tenant = None if tenant < 0 else f"t{tenant}"
            runtime.submit(request)
        elif op == "dispatch":
            for _ in range(params[0]):
                topic, host, _ = runtime._next_window(clock.now())
                if topic is None:
                    break
                runtime._dispatch_topic(topic, host)
        elif op == "settle":
            runtime._settle(clock.now())
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
