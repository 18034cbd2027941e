"""References the WFQ scheduler's indexed picks are tested against.

``WeightedFairScheduler.dequeue_eligible`` serves the slot-share pick
from a secondary heap in O(log T). ``reference_pick`` is the linear
head scan it replaced, kept here (not in ``src/``) as the oracle: the
minimum ``(finish_tag, seq)`` lane head among a set of tenants, found by
looking at every one of them.

``ParentSlotShares`` is the slot-share rule as the gateway kept it
before ``WeightedFairScheduler.pop_next`` owned it, the oracle for
``pop_next``.
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


class ParentSlotShares:
    """The gateway's slot-share bookkeeping before the scheduler took it
    over, driving a plain scheduler through its primitives.

    The contending set, the cached shares, the dirty flag and the
    per-tenant eligibility deltas are kept exactly as the gateway kept
    them, so the wrapped scheduler's ``snapshot()`` is what the gateway's
    was. The pick itself is brute force: the fresh under-share set, then
    a head scan over it, then the reserve guard, then a head scan over
    every lane. ``pop_next`` is never called on the wrapped scheduler,
    so its own share state stays dirty and never touches the index.
    """

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.weights: dict[str, float] = {}
        self.outstanding: dict[str, int] = {}
        self.contending: set[str] = set()
        self.shares: dict[str, int] = {}
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
        under_share = {
            t for t in self.contending if self.outstanding.get(t, 0) < self.shares[t]
        }
        assert under_share == self.scheduler._eligible
        if reference_pick(self.scheduler, under_share) is not None:
            entry = reference_dequeue_from(self.scheduler, under_share)
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

    def _note(self, tenant: str) -> None:
        active = (
            self.scheduler.depth(tenant) > 0 or self.outstanding.get(tenant, 0) > 0
        )
        if active != (tenant in self.contending):
            if active:
                self.contending.add(tenant)
            else:
                self.contending.discard(tenant)
                self.scheduler.set_eligible(tenant, False)
            self.dirty = True
        elif active and not self.dirty:
            self.scheduler.set_eligible(
                tenant, self.outstanding.get(tenant, 0) < self.shares.get(tenant, 0)
            )

    def _refresh(self) -> None:
        budget, reserve = self.budget
        contending = sorted(self.contending)
        total_weight = sum(self.weights[t] for t in contending)
        cap = max(1, budget - reserve)
        self.shares = {
            t: min(cap, max(1, int(budget * self.weights[t] / total_weight)))
            for t in contending
        }
        for tenant in self.contending:
            self.scheduler.set_eligible(
                tenant, self.outstanding.get(tenant, 0) < self.shares[tenant]
            )
        self.dirty = False
