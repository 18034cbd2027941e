"""Reference scan the WFQ scheduler's eligible-tenant index is tested against.

``WeightedFairScheduler.dequeue_eligible`` serves the gateway pump's
slot-share pick from a secondary heap in O(log T). This is the linear
head scan it replaced, kept here (not in ``src/``) as the oracle: the
minimum ``(finish_tag, seq)`` lane head among a set of tenants, found by
looking at every one of them.
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
