"""Regression: visibility-timeout reclaim vs journal replay.

A delivery claimed before a crash is re-released by the journal replay
(the ``recover`` record). The visibility-timeout reclaim pass must not
release it a *second* time after restart — each delivery id is released
by exactly one mechanism. The recovered queue materializes with an
empty in-flight table, so :meth:`TaskQueue.expire_inflight` has nothing
to reclaim no matter how much downtime elapsed.
"""

from __future__ import annotations

from repro.durability import (
    InMemoryDurableStore,
    Journal,
    begin_recovery,
    materialize_queue,
)
from repro.messaging.queue import TaskQueue
from repro.sim.clock import VirtualClock
from tests.core.lane_oracles import (
    assert_inflight_index_consistent,
    checked_expire_inflight,
)

from .conftest import request


def build_queue(clock, store, *, visibility_timeout_s=5.0, max_deliveries=3):
    queue = TaskQueue(
        clock,
        visibility_timeout_s=visibility_timeout_s,
        max_deliveries=max_deliveries,
    )
    queue.attach_journal(Journal(store))
    return queue


def test_replayed_release_is_idempotent_with_visibility_reclaim():
    clock = VirtualClock()
    store = InMemoryDurableStore()
    queue = build_queue(clock, store)
    payload = request(0)
    queue.put(payload, topic="t")
    claimed = queue.claim("t")
    assert claimed.deliveries == 1

    # Crash: the queue object dies; the store and the clock survive.
    # Downtime far exceeds the visibility timeout, so a naive restart
    # would *also* reclaim the delivery the replay already released.
    del queue
    clock.advance(60.0)

    state, _journal, report = begin_recovery(store, max_deliveries=3)
    assert report.released == 1
    recovered = materialize_queue(
        state, clock, visibility_timeout_s=5.0, max_deliveries=3
    )

    # The reclaim pass finds a clean in-flight table — zero re-releases —
    # and the rebuilt queue's in-flight index agrees that it is empty.
    assert_inflight_index_consistent(recovered)
    assert checked_expire_inflight(recovered) == 0
    assert recovered.ready_count("t") == 1
    assert len(recovered) == 1

    # Exactly one copy, carrying the crashed delivery's attempt count.
    msg = recovered.claim("t")
    assert msg.body == payload
    assert msg.deliveries == 2
    assert recovered.ready_count("t") == 0
    assert recovered.inflight_count == 1
    assert_inflight_index_consistent(recovered)
    assert recovered.dump_state()["total_redelivered"] == 1


def test_recovery_honours_the_delivery_budget():
    """A claim that already burned ``max_deliveries`` attempts is
    dead-lettered by recovery, exactly as a live nack would do —
    never silently re-released for a fourth attempt."""
    clock = VirtualClock()
    store = InMemoryDurableStore()
    queue = build_queue(clock, store)
    payload = request(0)
    queue.put(payload, topic="t")
    for _ in range(2):
        msg = queue.claim("t")
        queue.nack(msg.delivery_tag, requeue=True)
    final = queue.claim("t")
    assert final.deliveries == 3  # budget exhausted mid-flight

    del queue
    clock.advance(60.0)

    state, _journal, report = begin_recovery(store, max_deliveries=3)
    assert report.released == 0
    assert report.dead_lettered == 1
    recovered = materialize_queue(
        state, clock, visibility_timeout_s=5.0, max_deliveries=3
    )
    assert recovered.expire_inflight() == 0
    assert recovered.ready_count("t") == 0
    assert [m.body for m in recovered.dead_letters] == [payload]
