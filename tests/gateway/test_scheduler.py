"""Unit tests: weighted fair queuing across tenant lanes."""

import pytest

from repro.gateway.scheduler import SchedulerError, WeightedFairScheduler


class TestWFQOrdering:
    def test_fifo_within_a_lane(self):
        wfq = WeightedFairScheduler()
        for i in range(5):
            wfq.enqueue("t", 1.0, i)
        assert [e.item for e in wfq.drain()] == [0, 1, 2, 3, 4]

    def test_equal_weights_interleave_backlogged_lanes(self):
        wfq = WeightedFairScheduler()
        for i in range(4):
            wfq.enqueue("a", 1.0, f"a{i}")
        for i in range(4):
            wfq.enqueue("b", 1.0, f"b{i}")
        order = [e.item for e in wfq.drain()]
        # Tags tie pairwise; seq breaks ties toward the earlier enqueue,
        # then strict alternation takes over.
        assert order.index("b0") < order.index("a2")
        assert order.index("a1") < order.index("b2")

    def test_weights_skew_service_proportionally(self):
        wfq = WeightedFairScheduler()
        for i in range(9):
            wfq.enqueue("heavy", 2.0, ("heavy", i))
        for i in range(9):
            wfq.enqueue("light", 1.0, ("light", i))
        first_six = [wfq.dequeue().tenant for _ in range(6)]
        assert first_six.count("heavy") == 4
        assert first_six.count("light") == 2

    def test_newly_active_lane_is_not_punished_for_idling(self):
        wfq = WeightedFairScheduler()
        for i in range(100):
            wfq.enqueue("hot", 1.0, i)
        for _ in range(50):
            wfq.dequeue()
        # A light tenant shows up after the hot lane pushed virtual time
        # ahead: its first request must not wait out the whole backlog.
        wfq.enqueue("light", 1.0, "first")
        next_two = [wfq.dequeue() for _ in range(2)]
        assert "first" in {e.item for e in next_two}

    def test_work_conserving(self):
        wfq = WeightedFairScheduler()
        wfq.enqueue("only", 0.25, "x")
        assert wfq.dequeue().item == "x"
        with pytest.raises(SchedulerError):
            wfq.dequeue()


class TestDequeueFrom:
    def test_restricts_to_eligible_lanes(self):
        wfq = WeightedFairScheduler()
        wfq.enqueue("a", 1.0, "a0")
        wfq.enqueue("b", 1.0, "b0")
        wfq.set_eligible("b", True)
        assert wfq.dequeue_eligible().item == "b0"
        # The heap's stale entry for b0 must not break later dequeues.
        assert wfq.dequeue().item == "a0"

    def test_eligible_set_with_no_work_raises(self):
        wfq = WeightedFairScheduler()
        wfq.enqueue("a", 1.0, "a0")
        wfq.set_eligible("b", True)
        with pytest.raises(SchedulerError):
            wfq.dequeue_eligible()

    def test_min_tag_among_eligible(self):
        wfq = WeightedFairScheduler()
        wfq.enqueue("a", 1.0, "a0")
        wfq.enqueue("b", 2.0, "b0")
        wfq.enqueue("c", 1.0, "c0")
        # b has the smallest tag (weight 2); among {a, c}, seq decides.
        for tenant in ("a", "c"):
            wfq.set_eligible(tenant, True)
        assert wfq.dequeue_eligible().item == "a0"


class TestBookkeeping:
    def test_depths_and_counters(self):
        wfq = WeightedFairScheduler()
        wfq.enqueue("a", 1.0, 1)
        wfq.enqueue("a", 1.0, 2)
        wfq.enqueue("b", 1.0, 3)
        assert len(wfq) == 3
        assert wfq.depth("a") == 2
        assert wfq.depths() == {"a": 2, "b": 1}
        assert wfq.tenants() == ["a", "b"]
        wfq.drain()
        assert wfq.enqueued == 3 and wfq.dequeued == 3
        assert len(wfq) == 0

    def test_snapshot_is_scalars_with_the_eligible_set_as_a_count(self):
        wfq = WeightedFairScheduler()
        wfq.enqueue("a", 1.0, 1)
        wfq.enqueue("a", 1.0, 2)
        wfq.enqueue("b", 2.0, 3)
        wfq.enqueue("b", 2.0, 4)
        wfq.set_eligible("a", True)
        wfq.set_eligible("b", True)
        wfq.set_eligible("idle", True)
        assert wfq.dequeue().item == 3
        assert wfq.snapshot() == {
            "depths": {"a": 2, "b": 1},
            "eligible": 3,
            "virtual_time": 0.5,
            "enqueued": 4,
            "dequeued": 1,
        }

    def test_invalid_enqueue_parameters(self):
        wfq = WeightedFairScheduler()
        with pytest.raises(SchedulerError):
            wfq.enqueue("t", 0.0, "x")
        with pytest.raises(SchedulerError):
            wfq.enqueue("t", 1.0, "x", cost=0.0)


class TestRequeueFront:
    def test_front_entry_dequeues_before_existing_lane(self):
        from repro.gateway.scheduler import WeightedFairScheduler

        scheduler = WeightedFairScheduler()
        scheduler.enqueue("t", 1.0, "first")
        scheduler.enqueue("t", 1.0, "second")
        released = scheduler.dequeue()
        assert released.item == "first"
        # Take "first" back: it must come out again before "second".
        scheduler.requeue_front("t", "first")
        assert scheduler.dequeue().item == "first"
        assert scheduler.dequeue().item == "second"

    def test_front_requeue_does_not_double_charge_fair_share(self):
        from repro.gateway.scheduler import WeightedFairScheduler

        scheduler = WeightedFairScheduler()
        scheduler.enqueue("t", 1.0, "a")
        before = scheduler._last_finish["t"]
        scheduler.requeue_front("t", "b")
        # The tenant's WFQ frontier is untouched: the re-queued item's
        # cost was charged at its original enqueue.
        assert scheduler._last_finish["t"] == before

    def test_front_requeue_into_empty_lane_is_immediately_served(self):
        from repro.gateway.scheduler import WeightedFairScheduler

        scheduler = WeightedFairScheduler()
        scheduler.enqueue("hot", 1.0, "x")
        scheduler.dequeue()
        scheduler.requeue_front("hot", "x")
        scheduler.enqueue("cold", 1.0, "y")
        # The reclaimed item (oldest in system) wins the next dequeue.
        assert scheduler.dequeue().item == "x"

    def test_front_ordering_across_multiple_requeues(self):
        from repro.gateway.scheduler import WeightedFairScheduler

        scheduler = WeightedFairScheduler()
        for name in ("a", "b", "c"):
            scheduler.enqueue("t", 1.0, name)
        a, b = scheduler.dequeue(), scheduler.dequeue()
        # Taking back newest-first (b then a) must restore FIFO: a, b, c.
        scheduler.requeue_front("t", b.item)
        scheduler.requeue_front("t", a.item)
        assert [scheduler.dequeue().item for _ in range(3)] == ["a", "b", "c"]
