"""References the WFQ scheduler's picks are tested against.

``WeightedFairScheduler.dequeue_eligible`` walks the lane-head heap to
the first head whose tenant is below its slot share. ``reference_pick``
is the linear head scan over a given tenant set, kept here (not in
``src/``) as the oracle: the minimum ``(finish_tag, seq)`` lane head
among those tenants, found by looking at every one of them.
``under_share`` is the brute-force set it is pointed at: every share
computed fresh from the weights, the ledger and the budget.

Two slot-share rules drive a plain scheduler through its primitives:

* ``FreshSlotShares`` recomputes everything at every question — the
  contending set, the shares, the under-share set, the eligible count;
* ``ParentSlotShares`` is the rule as the gateway kept it before
  ``WeightedFairScheduler.pop_next`` owned it: cached shares, a dirty
  flag and per-tenant eligibility deltas.
"""

from __future__ import annotations

from repro.gateway.scheduler import ScheduledItem, SchedulerError


def reference_pick(scheduler, tenants) -> ScheduledItem | None:
    """The smallest-tag lane head among ``tenants``, or ``None`` when
    none of them has queued work."""
    best = None
    for tenant in tenants:
        lane = scheduler._lanes.get(tenant)
        if not lane:
            continue
        head = lane[0]
        if best is None or (head.finish_tag, head.seq) < (
            best.finish_tag,
            best.seq,
        ):
            best = head
    return best


def reference_dequeue_from(scheduler, tenants) -> ScheduledItem:
    """Pop the smallest-tag entry among the given tenants' lanes."""
    best = reference_pick(scheduler, tenants)
    if best is None:
        raise SchedulerError(f"no queued work for tenants {sorted(tenants)}")
    return scheduler._pop_head(best.tenant)


def shares(weights, contending, budget: int, reserve: int) -> dict[str, int]:
    """Each contending tenant's weighted part of ``budget``, at least one
    slot and at most ``budget - reserve``."""
    contending = sorted(contending)
    total = sum(weights[t] for t in contending)
    cap = max(1, budget - reserve)
    return {t: min(cap, max(1, int(budget * weights[t] / total))) for t in contending}


def under_share(scheduler, weights, outstanding, budget: int, reserve: int) -> set[str]:
    """The tenants, backlogged in ``scheduler`` or holding slots in
    ``outstanding``, that are below their fresh share of ``budget``."""
    contending = {
        t for t in weights if scheduler.depth(t) > 0 or outstanding.get(t, 0) > 0
    }
    share = shares(weights, contending, budget, reserve)
    return {t for t in contending if outstanding.get(t, 0) < share[t]}


class FreshSlotShares:
    """The slot-share rule by brute force, over a plain scheduler.

    Keeps its own weights and outstanding ledger and remembers the last
    budget it was asked under; every pick and every :meth:`snapshot`
    derives the shares from scratch. ``pop_next`` is never called on the
    wrapped scheduler.
    """

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.weights: dict[str, float] = {}
        self.outstanding: dict[str, int] = {}
        self.budget = (0, 0)

    def enqueue(self, tenant: str, weight: float, item) -> ScheduledItem:
        self.weights[tenant] = weight
        return self.scheduler.enqueue(tenant, weight, item)

    def under_share(self) -> set[str]:
        return under_share(self.scheduler, self.weights, self.outstanding, *self.budget)

    def pop_next(self, budget: int, reserve: int) -> ScheduledItem | None:
        self.budget = (budget, reserve)
        total = sum(self.outstanding.values())
        if not len(self.scheduler) or total >= budget:
            return None
        under = self.under_share()
        if reference_pick(self.scheduler, under) is not None:
            entry = reference_dequeue_from(self.scheduler, under)
        elif total >= budget - reserve:
            return None
        else:
            entry = reference_dequeue_from(self.scheduler, list(self.scheduler._lanes))
        self.outstanding[entry.tenant] = self.outstanding.get(entry.tenant, 0) + 1
        return entry

    def settle(self, tenant: str) -> None:
        self.outstanding[tenant] -= 1

    def reclaim(self, tenant: str, item) -> None:
        self.scheduler.requeue_front(tenant, item)
        self.settle(tenant)

    def restore_released(self, tenant: str, weight: float, dispatch_tag: float) -> None:
        # The wrapped scheduler's own restore call would count the slot
        # in its ledger too, so the clock move is done here.
        self.scheduler._virtual_time = max(self.scheduler._virtual_time, dispatch_tag)
        self.weights[tenant] = weight
        self.outstanding[tenant] = self.outstanding.get(tenant, 0) + 1

    def snapshot(self) -> dict:
        """What ``WeightedFairScheduler.snapshot`` must report."""
        return {**self.scheduler.snapshot(), "eligible": len(self.under_share())}


class ParentSlotShares:
    """The gateway's slot-share bookkeeping before the scheduler took it
    over, driving a plain scheduler through its primitives.

    The contending set, the cached shares, the dirty flag and the
    per-tenant eligibility deltas into ``eligible`` are kept exactly as
    the gateway kept them. The pick itself is brute force: the fresh
    under-share set (asserted equal to ``eligible``), then a head scan
    over it, then the reserve guard, then a head scan over every lane.
    ``pop_next`` is never called on the wrapped scheduler.
    """

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.weights: dict[str, float] = {}
        self.outstanding: dict[str, int] = {}
        self.contending: set[str] = set()
        self.shares: dict[str, int] = {}
        self.eligible: set[str] = set()
        self.dirty = True
        self.budget = (0, 0)

    def enqueue(self, tenant: str, weight: float, item) -> ScheduledItem:
        self.weights[tenant] = weight
        entry = self.scheduler.enqueue(tenant, weight, item)
        self._note(tenant)
        return entry

    def pop_next(self, budget: int, reserve: int) -> ScheduledItem | None:
        if (budget, reserve) != self.budget:
            self.budget = (budget, reserve)
            self.dirty = True
        total = sum(self.outstanding.values())
        if not len(self.scheduler) or total >= budget:
            return None
        if self.dirty:
            self._refresh()
        under = under_share(self.scheduler, self.weights, self.outstanding, budget, reserve)
        assert under == self.eligible
        if reference_pick(self.scheduler, under) is not None:
            entry = reference_dequeue_from(self.scheduler, under)
        elif total >= budget - reserve:
            return None
        else:
            entry = reference_dequeue_from(self.scheduler, list(self.scheduler._lanes))
        self.outstanding[entry.tenant] = self.outstanding.get(entry.tenant, 0) + 1
        self._note(entry.tenant)
        return entry

    def settle(self, tenant: str) -> None:
        self.outstanding[tenant] -= 1
        self._note(tenant)

    def reclaim(self, tenant: str, item) -> None:
        self.scheduler.requeue_front(tenant, item)
        self.settle(tenant)

    def restore_released(self, tenant: str, weight: float, dispatch_tag: float) -> None:
        # Recovery moves the clock past the restored tags; the wrapped
        # scheduler's own restore call is not used, so it is done here.
        self.scheduler._virtual_time = max(self.scheduler._virtual_time, dispatch_tag)
        self.weights[tenant] = weight
        self.outstanding[tenant] = self.outstanding.get(tenant, 0) + 1
        self._note(tenant)

    def _mark(self, tenant: str, eligible: bool) -> None:
        if eligible:
            self.eligible.add(tenant)
        else:
            self.eligible.discard(tenant)

    def _note(self, tenant: str) -> None:
        active = (
            self.scheduler.depth(tenant) > 0 or self.outstanding.get(tenant, 0) > 0
        )
        if active != (tenant in self.contending):
            if active:
                self.contending.add(tenant)
            else:
                self.contending.discard(tenant)
                self._mark(tenant, False)
            self.dirty = True
        elif active and not self.dirty:
            self._mark(tenant, self.outstanding.get(tenant, 0) < self.shares.get(tenant, 0))

    def _refresh(self) -> None:
        self.shares = shares(self.weights, self.contending, *self.budget)
        for tenant in self.contending:
            self._mark(tenant, self.outstanding.get(tenant, 0) < self.shares[tenant])
        self.dirty = False
