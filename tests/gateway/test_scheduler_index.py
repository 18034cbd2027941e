"""Property tests for the WFQ scheduler's under-share pick.

``dequeue_eligible`` walks the lane-head heap to the first head whose
tenant is below its slot share. It must pick exactly what the reference
head scan over the fresh under-share set
(``tests/gateway/scheduler_oracles.py``) would — same ``(finish_tag,
seq)`` arbitration — while ``has_eligible_work`` must match the plain
predicate "some under-share tenant has a non-empty lane". The heap
keeps stale entries (lazy invalidation) and the walk sets over-share
heads aside, so the tests deliberately create both: reclaims that
displace a lane head, budget shrinks, and backlogs deep enough that
tenants sit at their shares.
"""

import random

import pytest

from repro.gateway.scheduler import WeightedFairScheduler
from tests.gateway.scheduler_oracles import FreshSlotShares, reference_pick, under_share


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_eligible_pick_matches_reference_scan(self, seed):
        """Random enqueue/release/settle/reclaim/resize sequences: every
        release with under-share work queued equals the reference scan,
        every ``has_eligible_work`` equals the predicate."""
        rng = random.Random(seed)
        scheduler = WeightedFairScheduler()
        tenants = [f"t{i}" for i in range(6)]
        weights = {t: rng.choice((0.5, 1.0, 2.0, 4.0)) for t in tenants}
        released = {t: [] for t in tenants}
        budget = asked = (8, 1)
        for _ in range(400):
            busy = [t for t in tenants if released[t]]
            op = rng.random()
            if op < 0.4:
                tenant = rng.choice(tenants)
                scheduler.enqueue(
                    tenant,
                    weights[tenant],
                    object(),
                    cost=rng.choice((0.5, 1.0, 2.0)),
                )
            elif op < 0.5:
                reserve = rng.randint(0, 2)
                budget = (rng.randint(1, 10) + reserve, reserve)
            elif op < 0.65 and busy:
                tenant = rng.choice(busy)
                released[tenant].pop(0)
                scheduler.settle(tenant)
            elif op < 0.75 and busy:
                tenant = rng.choice(busy)
                scheduler.reclaim(tenant, released[tenant].pop())
            else:
                asked = budget
                under = under_share(
                    scheduler, weights, scheduler.outstanding_by_tenant, *asked
                )
                expected = reference_pick(scheduler, under)
                room = scheduler.outstanding < asked[0]
                got = scheduler.pop_next(*asked)
                if expected is not None and room:
                    assert (got.tenant, got.seq) == (expected.tenant, expected.seq)
                if got is not None:
                    released[got.tenant].append(got.item)
            under = under_share(scheduler, weights, scheduler.outstanding_by_tenant, *asked)
            expected = reference_pick(scheduler, under)
            assert scheduler.has_eligible_work() == (expected is not None)

    @pytest.mark.parametrize("seed", range(4))
    def test_twin_schedulers_serve_identically(self, seed):
        """A scheduler released through its pick and a twin released
        through the reference head scan over fresh under-share sets
        produce the same order, settling oldest-first whenever the
        budget stops them."""
        rng = random.Random(100 + seed)
        weights = {f"t{i}": rng.choice((1.0, 2.0)) for i in range(4)}
        ops = []
        for _ in range(120):
            tenant = f"t{rng.randrange(4)}"
            ops.append((tenant, rng.choice((0.5, 1.0))))
        reserve = rng.randint(0, 2)
        budget = (rng.randint(2, 6) + reserve, reserve)

        indexed = WeightedFairScheduler()
        reference = FreshSlotShares(WeightedFairScheduler())
        for tenant, cost in ops:
            indexed.enqueue(tenant, weights[tenant], (tenant, cost), cost=cost)
            reference.scheduler.enqueue(tenant, weights[tenant], (tenant, cost), cost=cost)
            reference.weights[tenant] = weights[tenant]
        order_indexed, order_reference, in_flight = [], [], []
        while len(indexed) or in_flight:
            got = indexed.pop_next(*budget)
            want = reference.pop_next(*budget)
            if got is None:
                assert want is None
                tenant = in_flight.pop(0)
                indexed.settle(tenant)
                reference.settle(tenant)
                continue
            order_indexed.append(got.seq)
            order_reference.append(want.seq)
            in_flight.append(got.tenant)
        assert order_indexed == order_reference
        assert len(order_indexed) == len(ops)
        assert len(reference.scheduler) == 0


class TestStaleEntries:
    def test_walk_drops_stale_heads(self):
        """A reclaim displaces a lane head, leaving its heap entry
        stale; the walk drops it instead of serving anything twice."""
        scheduler = WeightedFairScheduler()
        scheduler.enqueue("a", 1.0, "a1")
        scheduler.enqueue("a", 1.0, "a2")
        scheduler.enqueue("b", 1.0, "b1")
        released = scheduler.pop_next(6, 1)
        assert released.item == "a1"
        scheduler.reclaim("a", released.item)
        # a1 re-enters at a2's tag with a negative seq; b1 (tag 1) leads.
        picks = [scheduler.pop_next(6, 1).item for _ in range(3)]
        assert picks == ["b1", "a1", "a2"]
        assert not scheduler.has_eligible_work()
        assert scheduler._heap == []

    def test_eligibility_on_empty_lane_is_harmless(self):
        """A tenant contending only through a slot it holds is under
        its share with nothing queued, until work arrives."""
        scheduler = WeightedFairScheduler()
        scheduler.restore_released("ghost", 1.0, 0.0)
        assert scheduler.pop_next(4, 1) is None
        assert scheduler.snapshot()["eligible"] == 1
        assert not scheduler.has_eligible_work()
        scheduler.enqueue("ghost", 1.0, "g1")
        assert scheduler.has_eligible_work()
        assert scheduler.dequeue_eligible().item == "g1"


class TestParkedHeads:
    """The walk parks the heads of tenants with no free share. Each
    test leaves only the reserve free, so the work-conserving fallback
    cannot release a parked head: only the event that gives its tenant
    room again can."""

    def test_a_settle_returns_the_tenants_head(self):
        wfq = WeightedFairScheduler()
        for tenant, slots in (("a", 3), ("c", 2)):
            for _ in range(slots):
                wfq.restore_released(tenant, 1.0, 0.0)
        wfq.enqueue("a", 1.0, "a0")
        # Budget 6, reserve 2: shares of 3 each, and a holds 3.
        assert wfq.pop_next(6, 2) is None
        wfq.settle("a")
        assert wfq.pop_next(6, 2).item == "a0"

    def test_a_leave_returns_every_head(self):
        wfq = WeightedFairScheduler()
        for tenant, weight, slots in (("a", 1.0, 2), ("b", 2.0, 1), ("c", 1.0, 4)):
            for _ in range(slots):
                wfq.restore_released(tenant, weight, 0.0)
        wfq.enqueue("a", 1.0, "a0")
        # Budget 8, reserve 2, weights 1:2:1: a's share is 2, all held.
        assert wfq.pop_next(8, 2) is None
        wfq.settle("b")  # b leaves, and a's share grows to 4
        assert wfq.pop_next(8, 2).item == "a0"

    def test_a_budget_change_returns_every_head(self):
        wfq = WeightedFairScheduler()
        for tenant, slots in (("a", 2), ("c", 1)):
            for _ in range(slots):
                wfq.restore_released(tenant, 1.0, 0.0)
        wfq.enqueue("a", 1.0, "a0")
        # Budget 4, reserve 1: shares of 2 each, and a holds 2.
        assert wfq.pop_next(4, 1) is None
        # Budget 6, reserve 3: shares of 3 each.
        assert wfq.pop_next(6, 3).item == "a0"

    def test_global_dequeue_sees_parked_heads(self):
        wfq = WeightedFairScheduler()
        wfq.restore_released("a", 1.0, 0.0)
        wfq.enqueue("a", 1.0, "a0")
        wfq.enqueue("b", 1.0, "b0")
        # Shares of one slot: a's head (the smaller tag) is parked.
        assert wfq.pop_next(2, 1).item == "b0"
        assert wfq.dequeue().item == "a0"
        assert len(wfq) == 0


class TestRequeueFrontInteraction:
    def test_requeued_head_wins_its_ties_in_the_index(self):
        """A reclaimed item inherits the displaced head's finish tag
        with a negative seq, so the pick must serve it first — before
        the entry it ties with."""
        scheduler = WeightedFairScheduler()
        scheduler.enqueue("a", 1.0, "a1")
        scheduler.enqueue("a", 1.0, "a2")
        taken = scheduler.pop_next(4, 1)
        assert taken.item == "a1"
        scheduler.reclaim("a", taken.item)
        under = under_share(scheduler, {"a": 1.0}, scheduler.outstanding_by_tenant, 4, 1)
        expected = reference_pick(scheduler, under)
        got = scheduler.dequeue_eligible()
        assert got.item == "a1" and got.seq < 0
        assert (got.tenant, got.seq) == (expected.tenant, expected.seq)
        assert scheduler.dequeue_eligible().item == "a2"

    def test_requeue_front_into_ineligible_lane_stays_hidden(self):
        scheduler = WeightedFairScheduler()
        for tenant in ("a", "b"):
            scheduler.enqueue(tenant, 1.0, f"{tenant}1")
            scheduler.enqueue(tenant, 1.0, f"{tenant}2")
        assert [scheduler.pop_next(5, 1).item for _ in range(3)] == ["a1", "b1", "a2"]
        # The budget shrinks to 3, which three releases already fill.
        assert scheduler.pop_next(3, 1) is None
        scheduler.reclaim("a", "a2")
        # Shares of 3 are one slot each, and a and b each still hold
        # one: the pick sees nothing and the reserve guard holds, though
        # the global heap still serves both in tag order.
        assert not scheduler.has_eligible_work()
        assert scheduler.pop_next(3, 1) is None
        assert scheduler.dequeue().item == "a2"
        assert scheduler.dequeue().item == "b2"

    def test_size_counter_tracks_requeues(self):
        scheduler = WeightedFairScheduler()
        scheduler.enqueue("a", 1.0, "a1")
        entry = scheduler.dequeue()
        assert len(scheduler) == 0
        scheduler.requeue_front("a", entry.item, cost=entry.cost)
        assert len(scheduler) == 1
        scheduler.dequeue()
        assert len(scheduler) == 0
