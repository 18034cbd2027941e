"""Unit tests for the reliable task queue (at-least-once semantics)."""

import pytest

from repro.messaging.queue import (
    MAX_DELIVERIES,
    VISIBILITY_TIMEOUT_S,
    QueueEmpty,
    TaskQueue,
    UnknownDelivery,
    servable_topic,
)
from repro.sim.clock import VirtualClock


@pytest.fixture
def queue():
    return TaskQueue(VirtualClock())


class TestBasicFlow:
    def test_put_claim_ack(self, queue):
        queue.put({"task": 1})
        msg = queue.claim()
        assert msg.body == {"task": 1}
        queue.ack(msg.delivery_tag)
        assert len(queue) == 0
        assert queue.inflight_count == 0
        assert queue.total_acked == 1

    def test_fifo_order(self, queue):
        for i in range(3):
            queue.put(i)
        assert [queue.claim().body for _ in range(3)] == [0, 1, 2]

    def test_claim_empty_raises(self, queue):
        with pytest.raises(QueueEmpty):
            queue.claim()

    def test_topics_are_independent(self, queue):
        queue.put("a", topic="alpha")
        queue.put("b", topic="beta")
        assert queue.claim("beta").body == "b"
        assert queue.ready_count("alpha") == 1
        with pytest.raises(QueueEmpty):
            queue.claim("beta")

    def test_len_counts_all_topics(self, queue):
        queue.put(1, topic="a")
        queue.put(2, topic="b")
        assert len(queue) == 2


class TestClaimMany:
    def test_claims_up_to_n_in_fifo_order(self, queue):
        for i in range(5):
            queue.put(i)
        msgs = queue.claim_many(n=3)
        assert [m.body for m in msgs] == [0, 1, 2]
        assert queue.inflight_count == 3
        assert len(queue) == 2

    def test_returns_fewer_when_queue_short(self, queue):
        queue.put("only")
        msgs = queue.claim_many(n=10)
        assert [m.body for m in msgs] == ["only"]

    def test_empty_topic_raises(self, queue):
        with pytest.raises(QueueEmpty):
            queue.claim_many(n=4)

    def test_n_must_be_positive(self, queue):
        queue.put(1)
        with pytest.raises(ValueError):
            queue.claim_many(n=0)

    def test_each_message_settles_independently(self, queue):
        """A partially-failed batch acks the successes and nacks the rest."""
        for i in range(3):
            queue.put(i)
        msgs = queue.claim_many(n=3)
        queue.ack(msgs[0].delivery_tag)
        queue.nack(msgs[1].delivery_tag)
        queue.nack(msgs[2].delivery_tag, requeue=False)
        assert queue.total_acked == 1
        assert queue.claim().body == 1  # requeued
        assert [m.body for m in queue.dead_letters] == [2]

    def test_respects_topic_boundaries(self, queue):
        queue.put("a", topic=servable_topic("noop"))
        queue.put("b", topic=servable_topic("noop"))
        queue.put("c", topic=servable_topic("cifar10"))
        msgs = queue.claim_many(servable_topic("noop"), n=10)
        assert [m.body for m in msgs] == ["a", "b"]
        assert queue.ready_count(servable_topic("cifar10")) == 1


class TestPeek:
    def test_oldest_ready_peeks_without_claiming(self, queue):
        queue.put("head")
        queue.put("tail")
        head = queue.oldest_ready()
        assert head is not None and head.body == "head"
        assert queue.inflight_count == 0
        assert len(queue) == 2

    def test_oldest_ready_empty_returns_none(self, queue):
        assert queue.oldest_ready("nothing-here") is None

    def test_servable_topic_is_stable(self):
        assert servable_topic("noop") == servable_topic("noop")
        assert servable_topic("noop") != servable_topic("cifar10")

    def test_servable_topic_lanes_are_disjoint(self):
        """The sync dispatch lane never collides with the coalescing
        lane, even for the same servable."""
        assert servable_topic("noop", lane="sync") != servable_topic("noop")

    def test_next_inflight_expiry(self, queue):
        assert queue.next_inflight_expiry() is None
        queue.put("a")
        queue.put("b")
        first = queue.claim()
        queue.clock.advance(2.0)
        queue.claim()
        # Earliest claim governs the next expiry.
        assert queue.next_inflight_expiry() == pytest.approx(
            first.claimed_at + VISIBILITY_TIMEOUT_S
        )
        queue.ack(first.delivery_tag)
        assert queue.next_inflight_expiry() == pytest.approx(
            2.0 + VISIBILITY_TIMEOUT_S
        )


class TestAckNack:
    def test_double_ack_rejected(self, queue):
        queue.put(1)
        msg = queue.claim()
        queue.ack(msg.delivery_tag)
        with pytest.raises(UnknownDelivery):
            queue.ack(msg.delivery_tag)

    @pytest.mark.parametrize("bad", ["unknown", "repeated"])
    def test_batch_ack_is_all_or_nothing(self, queue, bad):
        for i in range(3):
            queue.put(i)
        tags = [m.delivery_tag for m in queue.claim_many(n=3)]
        with pytest.raises(UnknownDelivery):
            queue.ack(tags[0], 999 if bad == "unknown" else tags[0])
        assert queue.inflight_count == 3 and queue.total_acked == 0
        queue.ack(*tags)
        assert queue.inflight_count == 0 and queue.total_acked == 3
        with pytest.raises(ValueError):
            queue.ack()

    def test_nack_requeues_at_front(self, queue):
        queue.put("first")
        queue.put("second")
        msg = queue.claim()
        queue.nack(msg.delivery_tag)
        assert queue.claim().body == "first"  # requeued ahead of "second"

    def test_nack_without_requeue_dead_letters(self, queue):
        queue.put("poison")
        msg = queue.claim()
        queue.nack(msg.delivery_tag, requeue=False)
        assert len(queue) == 0
        assert [m.body for m in queue.dead_letters] == ["poison"]

    def test_max_deliveries_dead_letters(self, queue):
        queue.put("flaky")
        for _ in range(MAX_DELIVERIES - 1):
            queue.nack(queue.claim().delivery_tag)
        assert len(queue) == 1 and not queue.dead_letters
        queue.nack(queue.claim().delivery_tag)  # the last delivery
        assert len(queue) == 0
        assert len(queue.dead_letters) == 1
        assert queue.dead_letters[0].deliveries == MAX_DELIVERIES


class TestVisibilityTimeout:
    def test_expired_inflight_redelivered(self, queue):
        """A claimed-but-never-acked task is redelivered after the
        visibility timeout — 'ensures tasks are received and executed'."""
        queue.put("important")
        msg = queue.claim()
        assert queue.inflight_count == 1
        queue.clock.advance(VISIBILITY_TIMEOUT_S)
        redelivered = queue.expire_inflight()
        assert redelivered == 1
        again = queue.claim()
        assert again.body == "important"
        assert again.deliveries == 2
        assert again.message_id == msg.message_id

    def test_unexpired_not_redelivered(self, queue):
        queue.put("x")
        queue.claim()
        queue.clock.advance(VISIBILITY_TIMEOUT_S - 0.001)
        assert queue.expire_inflight() == 0
        assert queue.inflight_count == 1

    def test_redelivery_counter(self, queue):
        queue.put("x")
        queue.claim()
        queue.clock.advance(VISIBILITY_TIMEOUT_S)
        queue.expire_inflight()
        assert queue.total_redelivered == 1


class TestValidation:
    def test_bad_construction(self):
        # The redelivery policy is not the constructor's to change: it is
        # the one pair of constants crash recovery shares.
        assert VISIBILITY_TIMEOUT_S > 0 and MAX_DELIVERIES >= 1
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            TaskQueue(VirtualClock(), max_deliveries=2)

    def test_unknown_nack(self, queue):
        with pytest.raises(UnknownDelivery):
            queue.nack(999)

    def test_topics_listing(self, queue):
        queue.put(1, topic="x")
        queue.put(2, topic="y")
        queue.claim("x")
        assert queue.topics() == ["y"]


class TestTopicCounters:
    def test_enqueued_count_per_topic(self, queue):
        for _ in range(3):
            queue.put("a", topic="x")
        queue.put("b", topic="y")
        assert queue.enqueued_count("x") == 3
        assert queue.enqueued_count("y") == 1
        assert queue.enqueued_count("ghost") == 0

    def test_enqueued_count_monotonic_across_redelivery(self, queue):
        """Redeliveries are not arrivals: the counter only moves on put,
        so rate estimators reading deltas never double-count."""
        queue.put("a", topic="x")
        queue.claim("x")
        queue.clock.advance(VISIBILITY_TIMEOUT_S)
        queue.expire_inflight()
        assert queue.enqueued_count("x") == 1
        queue.claim("x")  # redelivered message
        assert queue.enqueued_count("x") == 1


class TestWithdraw:
    def test_withdraw_newest_takes_from_the_tail(self, queue):
        for i in range(4):
            queue.put(f"m{i}", topic="x")
        withdrawn = queue.withdraw_newest("x", 2)
        assert [m.body for m in withdrawn] == ["m3", "m2"]
        assert queue.ready_count("x") == 2
        # FIFO order of the survivors is untouched.
        assert queue.claim("x").body == "m0"

    def test_withdraw_more_than_ready_returns_what_exists(self, queue):
        queue.put("only", topic="x")
        withdrawn = queue.withdraw_newest("x", 10)
        assert [m.body for m in withdrawn] == ["only"]
        assert queue.withdraw_newest("x", 1) == []

    def test_withdraw_does_not_roll_back_arrival_counter(self, queue):
        queue.put("a", topic="x")
        queue.withdraw_newest("x", 1)
        assert queue.enqueued_count("x") == 1

    def test_restore_returns_message_with_original_enqueue_time(self, queue):
        queue.put("a", topic="x")
        msg = queue.withdraw_newest("x", 1)[0]
        queue.clock.advance(5.0)
        queue.restore(msg)
        head = queue.oldest_ready("x")
        assert head is msg
        assert head.enqueued_at == msg.enqueued_at
        assert queue.enqueued_count("x") == 1

    def test_withdraw_validation(self, queue):
        with pytest.raises(ValueError):
            queue.withdraw_newest("x", 0)

    def test_backdated_put_does_not_recount_arrival(self, queue):
        queue.put("a", topic="x")
        msg = queue.withdraw_newest("x", 1)[0]
        queue.clock.advance(2.0)
        resub = queue.put("a", topic="x", enqueued_at=msg.enqueued_at)
        assert resub.enqueued_at == msg.enqueued_at
        # One real arrival, one re-submission: the counter saw one.
        assert queue.enqueued_count("x") == 1
        assert queue.total_enqueued == 1

    def test_backdated_put_rejects_future_timestamps(self, queue):
        with pytest.raises(ValueError):
            queue.put("a", topic="x", enqueued_at=queue.clock.now() + 1.0)
