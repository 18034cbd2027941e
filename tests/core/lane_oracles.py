"""Reference checks for the runtime's lane tables and the queue's in-flight index.

``TaskQueue`` keeps its in-flight table in claim order, so
``next_inflight_expiry`` and ``expire_inflight`` cost what changed
rather than what exists. The passes below are the linear ones they
replaced, kept here (not in ``src/``) as oracles: each answers the same
question from first principles — every entry of
:meth:`TaskQueue.dump_state` — and the tests require the indexed answer
to match exactly. ``assert_lane_index_consistent`` checks that the
runtime's two lane tables describe the same lanes.
"""

from __future__ import annotations

from repro.messaging.queue import VISIBILITY_TIMEOUT_S, servable_topic

#: The slack ``TaskQueue.expire_inflight`` allows for float accumulation.
EXPIRY_EPSILON = 1e-9


def assert_lane_index_consistent(runtime) -> None:
    """The runtime's two lane tables agree: every owned topic is a lane
    of a placed servable, and every lane a submit has named maps to the
    owned topic of that servable and tenant."""
    for topic, (name, lane) in runtime._owned_topics.items():
        assert name in runtime._hosts
        assert topic == servable_topic(name, lane=lane)
    for (name, tenant), topic in runtime._submit_lane.items():
        lane = "requests" if tenant is None else f"tenant-{tenant}"
        assert runtime._owned_topics[topic] == (name, lane)


def assert_inflight_index_consistent(queue, topic_sets=()) -> None:
    """``inflight_count`` and ``next_inflight_expiry`` agree with a
    brute-force pass over ``dump_state()``.

    ``topic_sets`` are extra topic filters to probe ``next_inflight_expiry``
    with, beyond ``None``, each single topic, and a filter matching nothing.
    """
    state = queue.dump_state()
    claims = [(doc["claimed_at"], doc["topic"]) for _, doc in state["inflight"]]
    assert queue.inflight_count == len(claims)
    topics = {topic for _, topic in claims} | set(state["ready"])
    filters = [None, {"servable/none/unclaimed"}, *({t} for t in sorted(topics))]
    for topic_filter in [*filters, *topic_sets]:
        relevant = [
            claimed_at
            for claimed_at, topic in claims
            if topic_filter is None or topic in topic_filter
        ]
        expected = min(relevant) + VISIBILITY_TIMEOUT_S if relevant else None
        assert queue.next_inflight_expiry(topic_filter) == expected


def checked_expire_inflight(queue) -> int:
    """Run ``expire_inflight`` and require that it redelivered exactly
    the claims a full pass over the in-flight table finds lapsed."""
    now = queue.clock.now()
    before = queue.dump_state()["inflight"]
    lapsed = {
        tag
        for tag, doc in before
        if now - doc["claimed_at"] >= VISIBILITY_TIMEOUT_S - EXPIRY_EPSILON
    }
    expired = queue.expire_inflight()
    after = {tag for tag, _ in queue.dump_state()["inflight"]}
    assert expired == len(lapsed)
    assert after == {tag for tag, _ in before} - lapsed
    return expired
