"""Reference scans the lane-lifecycle and in-flight indices are tested against.

``ServingRuntime`` keeps tenant lanes in idle order and ``TaskQueue``
keeps its in-flight table in claim order with a per-topic count, so
lane GC, ``inflight_count_for``, ``next_inflight_expiry`` and
``expire_inflight`` cost what changed rather than what exists. These
are the linear passes they replaced, kept here (not in ``src/``) as
oracles: each answers the same question from first principles — every
tracked lane, every entry of :meth:`TaskQueue.dump_state` — and the
tests require the indexed answer to match exactly.
"""

from __future__ import annotations

from repro.messaging.queue import servable_topic

#: The slack ``TaskQueue.expire_inflight`` allows for float accumulation.
EXPIRY_EPSILON = 1e-9


def reference_collectable_lanes(runtime, now: float) -> set[tuple[str, str]]:
    """The ``(servable, lane)`` pairs a lane GC at ``now`` must drop.

    The scan ``ServingRuntime`` ran per servable before lanes were kept
    in idle order: every tracked tenant lane is tested for ready work, a
    parked batch, a claim in flight, and its idle clock.
    """
    state = runtime.queue.dump_state()
    inflight_topics = {doc["topic"] for _, doc in state["inflight"]}
    pending_topics = {
        record.topic for _, _, records, _ in runtime._pending for record in records
    }
    collectable = set()
    for name, lanes in runtime._lanes.items():
        for lane in sorted(lanes):
            if lane == "requests":
                continue
            topic = servable_topic(name, lane=lane)
            if topic in state["ready"]:
                continue
            if topic in pending_topics or topic in inflight_topics:
                continue
            active = runtime._lane_active.get((name, lane), now)
            if now - active < runtime.lane_idle_ttl_s:
                continue
            collectable.add((name, lane))
    return collectable


def tracked_tenant_lanes(runtime) -> set[tuple[str, str]]:
    """Every tenant lane the runtime currently tracks."""
    return {
        (name, lane)
        for name, lanes in runtime._lanes.items()
        for lane in lanes
        if lane != "requests"
    }


def assert_lane_index_consistent(runtime) -> None:
    """The idle order covers exactly the tracked tenant lanes, oldest
    activity first, and the parked-batch counter matches ``_pending``."""
    assert set(runtime._lane_active) == tracked_tenant_lanes(runtime)
    stamps = list(runtime._lane_active.values())
    assert stamps == sorted(stamps)
    parked: dict[str, int] = {}
    for _, _, records, _ in runtime._pending:
        topic = records[0].topic
        assert {record.topic for record in records} == {topic}
        parked[topic] = parked.get(topic, 0) + 1
    assert runtime._pending_by_topic == parked


def assert_inflight_index_consistent(queue, topic_sets=()) -> None:
    """``inflight_count_for`` and ``next_inflight_expiry`` agree with a
    brute-force pass over ``dump_state()``.

    ``topic_sets`` are extra topic filters to probe ``next_inflight_expiry``
    with, beyond ``None``, each single topic, and a filter matching nothing.
    """
    state = queue.dump_state()
    claims = [(doc["claimed_at"], doc["topic"]) for _, doc in state["inflight"]]
    assert queue.inflight_count == len(claims)
    topics = {topic for _, topic in claims} | set(state["ready"])
    for topic in topics | {"servable/none/unclaimed"}:
        expected = sum(1 for _, claimed_topic in claims if claimed_topic == topic)
        assert queue.inflight_count_for(topic) == expected
    filters = [None, {"servable/none/unclaimed"}, *({t} for t in sorted(topics))]
    for topic_filter in [*filters, *topic_sets]:
        relevant = [
            claimed_at
            for claimed_at, topic in claims
            if topic_filter is None or topic in topic_filter
        ]
        expected = min(relevant) + queue.visibility_timeout_s if relevant else None
        assert queue.next_inflight_expiry(topic_filter) == expected


def checked_expire_inflight(queue) -> int:
    """Run ``expire_inflight`` and require that it redelivered exactly
    the claims a full pass over the in-flight table finds lapsed."""
    now = queue.clock.now()
    before = queue.dump_state()["inflight"]
    lapsed = {
        tag
        for tag, doc in before
        if now - doc["claimed_at"] >= queue.visibility_timeout_s - EXPIRY_EPSILON
    }
    expired = queue.expire_inflight()
    after = {tag for tag, _ in queue.dump_state()["inflight"]}
    assert expired == len(lapsed)
    assert after == {tag for tag, _ in before} - lapsed
    return expired
