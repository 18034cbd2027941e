"""Property tests for the WFQ scheduler's eligible-tenant index.

``dequeue_eligible`` must pick exactly what the reference head scan
over the eligible tenants (``tests/gateway/scheduler_oracles.py``)
would — same ``(finish_tag, seq)`` arbitration — while
``has_eligible_work`` must match the plain predicate "some eligible
tenant has a non-empty lane". The index keeps
stale entries (lazy invalidation), so the tests deliberately create
them: global dequeues that consume an eligible tenant's head,
eligibility toggles, and ``requeue_front`` re-inserts.
"""

import random

import pytest

from repro.gateway.scheduler import SchedulerError, WeightedFairScheduler
from tests.gateway.scheduler_oracles import reference_dequeue_from, reference_pick


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_eligible_pick_matches_reference_scan(self, seed):
        """Random enqueue/dequeue/toggle/requeue sequences: every
        eligible pop equals the reference scan, every ``has_eligible_work``
        equals the predicate."""
        rng = random.Random(seed)
        scheduler = WeightedFairScheduler()
        tenants = [f"t{i}" for i in range(6)]
        weights = {t: rng.choice((0.5, 1.0, 2.0, 4.0)) for t in tenants}
        served = []
        for _ in range(400):
            op = rng.random()
            if op < 0.45:
                tenant = rng.choice(tenants)
                scheduler.enqueue(
                    tenant,
                    weights[tenant],
                    object(),
                    cost=rng.choice((0.5, 1.0, 2.0)),
                )
            elif op < 0.6 and len(scheduler):
                served.append(scheduler.dequeue())
            elif op < 0.75:
                scheduler.set_eligible(rng.choice(tenants), rng.random() < 0.5)
            elif op < 0.85 and served and rng.random() < 0.5:
                entry = served.pop()
                scheduler.requeue_front(entry.tenant, entry.item, cost=entry.cost)
            elif scheduler.has_eligible_work():
                expected = reference_pick(scheduler, scheduler._eligible)
                got = scheduler.dequeue_eligible()
                assert (got.tenant, got.seq) == (expected.tenant, expected.seq)
            expected = reference_pick(scheduler, scheduler._eligible)
            assert scheduler.has_eligible_work() == (expected is not None)

    @pytest.mark.parametrize("seed", range(4))
    def test_twin_schedulers_serve_identically(self, seed):
        """A scheduler drained via the index and a twin drained via the
        reference head scan produce the same service order."""
        rng = random.Random(100 + seed)
        ops = []
        for _ in range(120):
            tenant = f"t{rng.randrange(4)}"
            ops.append((tenant, rng.choice((1.0, 2.0)), rng.choice((0.5, 1.0))))
        eligible = {f"t{i}" for i in range(4) if rng.random() < 0.7} or {"t0"}

        def build():
            s = WeightedFairScheduler()
            for tenant, weight, cost in ops:
                s.enqueue(tenant, weight, (tenant, cost), cost=cost)
            for tenant in eligible:
                s.set_eligible(tenant, True)
            return s

        indexed, reference = build(), build()
        order_indexed, order_reference = [], []
        while indexed.has_eligible_work():
            order_indexed.append(indexed.dequeue_eligible().seq)
            order_reference.append(reference_dequeue_from(reference, eligible).seq)
        assert order_indexed == order_reference
        with pytest.raises(SchedulerError):
            reference_dequeue_from(reference, eligible)


class TestStaleEntries:
    def test_global_dequeue_leaves_stale_eligible_entries(self):
        """``dequeue`` consuming an eligible tenant's head leaves a stale
        index entry; the index skips it instead of double-serving."""
        scheduler = WeightedFairScheduler()
        scheduler.set_eligible("a", True)
        scheduler.set_eligible("b", True)
        first = scheduler.enqueue("a", 1.0, "a1")
        scheduler.enqueue("a", 1.0, "a2")
        scheduler.enqueue("b", 1.0, "b1")
        # Global pop takes a's head (smallest tag) around the index.
        assert scheduler.dequeue().seq == first.seq
        assert scheduler.has_eligible_work()
        picks = [scheduler.dequeue_eligible().item for _ in range(2)]
        # b1 (tag 1.0) now outranks a2 (tag 2.0); a's stale entry from
        # before the global pop is skipped, not served twice.
        assert picks == ["b1", "a2"]
        assert not scheduler.has_eligible_work()

    def test_unmarking_strands_entries_until_remarked(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_eligible("a", True)
        scheduler.enqueue("a", 1.0, "a1")
        scheduler.set_eligible("a", False)
        assert not scheduler.has_eligible_work()
        with pytest.raises(SchedulerError):
            scheduler.dequeue_eligible()
        # Re-marking revalidates: the head is indexed again (the stale
        # twin from before the toggle is deduplicated by lazy skip).
        scheduler.set_eligible("a", True)
        assert scheduler.has_eligible_work()
        assert scheduler.dequeue_eligible().item == "a1"
        assert len(scheduler) == 0

    def test_eligibility_on_empty_lane_is_harmless(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_eligible("ghost", True)
        assert not scheduler.has_eligible_work()
        scheduler.enqueue("ghost", 1.0, "g1")
        assert scheduler.has_eligible_work()
        assert scheduler.dequeue_eligible().item == "g1"


class TestRequeueFrontInteraction:
    def test_requeued_head_wins_its_ties_in_the_index(self):
        """A front re-queue inherits the displaced head's finish tag with
        a negative seq, so the index must serve it first — before the
        entry it ties with."""
        scheduler = WeightedFairScheduler()
        scheduler.set_eligible("a", True)
        taken = scheduler.enqueue("a", 1.0, "a1")
        scheduler.enqueue("a", 1.0, "a2")
        assert scheduler.dequeue_eligible().item == "a1"
        scheduler.requeue_front("a", taken.item, cost=taken.cost)
        expected = reference_pick(scheduler, scheduler._eligible)
        got = scheduler.dequeue_eligible()
        assert got.item == "a1" and got.seq < 0
        assert (got.tenant, got.seq) == (expected.tenant, expected.seq)
        assert scheduler.dequeue_eligible().item == "a2"

    def test_requeue_front_into_ineligible_lane_stays_hidden(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_eligible("a", True)
        scheduler.enqueue("a", 1.0, "a1")
        scheduler.enqueue("b", 1.0, "b1")
        entry = scheduler.dequeue()
        assert entry.item == "a1"
        scheduler.set_eligible("a", False)
        scheduler.requeue_front("a", entry.item, cost=entry.cost)
        # b is not eligible either: the index sees nothing, though the
        # global heap still serves both in tag order.
        assert not scheduler.has_eligible_work()
        assert scheduler.dequeue().item == "a1"
        assert scheduler.dequeue().item == "b1"

    def test_size_counter_tracks_requeues(self):
        scheduler = WeightedFairScheduler()
        scheduler.enqueue("a", 1.0, "a1")
        entry = scheduler.dequeue()
        assert len(scheduler) == 0
        scheduler.requeue_front("a", entry.item, cost=entry.cost)
        assert len(scheduler) == 1
        scheduler.dequeue()
        assert len(scheduler) == 0
