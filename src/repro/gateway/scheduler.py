"""Weighted fair queuing across tenant lanes (virtual-clock WFQ).

Admitted requests wait in per-tenant FIFO lanes; the gateway drains
lanes into the serving runtime's queue topics in *weighted fair* order,
so a hot tenant's thousand-deep backlog cannot starve a light tenant of
dispatch slots. Each enqueued item is stamped with a virtual finish tag

    ``finish = max(V, last_finish[tenant]) + cost / weight``

(the classic virtual-clock WFQ discipline); :meth:`dequeue` always
serves the globally smallest tag. A backlogged tenant's tags run ahead
of the scheduler's virtual time in proportion to ``1/weight``, so while
several tenants are backlogged their dispatch bandwidth converges to
their weight ratio — and because tags are only compared, not waited on,
the scheduler is work-conserving: whenever any lane is non-empty,
:meth:`dequeue` returns work immediately.

The scheduler also owns the gateway's *slot shares*: it counts each
tenant's released-but-unsettled items against a dispatch budget, and
:meth:`pop_next` serves the smallest tag among tenants below their
weighted share of that budget — so a hot tenant can never occupy every
dispatch slot while a light tenant's request waits. Eligibility is
decided at the pick: the lane-head heap is walked in tag order and the
first head whose tenant is under its share goes. A head walked past is
*parked*: its tenant holds at least one outstanding slot, so a pick
parks fewer than ``budget`` heads however many lanes exist, and the
head stays off the heap until its tenant frees a slot or a tenant
leaves or the budget moves — the only events that can give its tenant
room again. When only over-share tenants have work they still run
(work conservation beats reservation), but never into the budget's last
``reserve`` slots, so a newly active tenant's first request always
finds instant headroom.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any


class SchedulerError(RuntimeError):
    """Raised on invalid scheduler operations (e.g. dequeue when empty)."""


@dataclass(frozen=True)
class ScheduledItem:
    """One lane entry: the payload plus its fair-queuing bookkeeping."""

    tenant: str
    item: Any
    cost: float
    finish_tag: float
    seq: int


class WeightedFairScheduler:
    """Virtual-clock WFQ over per-tenant FIFO lanes."""

    def __init__(self) -> None:
        self._lanes: dict[str, deque[ScheduledItem]] = {}
        self._last_finish: dict[str, float] = {}
        self._virtual_time = 0.0
        self._seq = itertools.count(1)
        #: Decreasing sequence for front re-queues: ties on finish tag
        #: resolve by seq, so a negative seq always outranks normal
        #: enqueues at the same tag.
        self._front_seq = itertools.count(-1, -1)
        #: Lane heads, ordered by (finish_tag, seq) — rebuilt lazily.
        self._heap: list[tuple[float, int, str]] = []
        #: Heads the pick walked past because their tenant had no free
        #: share, by tenant, out of ``_heap`` until that can change: the
        #: tenant frees a slot, or every share may grow (a tenant leaves,
        #: the budget moves).
        self._parked: dict[str, tuple[float, int, str]] = {}
        self._size = 0
        self.enqueued = 0
        self.dequeued = 0
        #: Per-tenant count of WFQ *charges* — ``_last_finish`` advances
        #: billed to the tenant. :meth:`requeue_front` deliberately does
        #: not charge (the item already paid at its original enqueue),
        #: which makes "no double WFQ charge" an observable invariant
        #: the chaos suite can assert across crash-recovery cycles.
        self.charges: dict[str, int] = {}
        #: Released items not yet settled, per tenant and in total.
        self.outstanding_by_tenant: defaultdict[str, int] = defaultdict(int)
        self.outstanding = 0
        #: Slot-share state: each tenant's weight (pinned at its first
        #: enqueue or restore), the contending set (backlogged or
        #: outstanding tenants), their summed weight — ``None`` from a
        #: membership change until the next share needs it — and the
        #: budget and reserve :meth:`pop_next` was last given.
        self._weights: dict[str, float] = {}
        self._contending: set[str] = set()
        self._total_weight: float | None = None
        self._budget = 0
        self._reserve = 0

    # -- introspection ------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def depth(self, tenant: str) -> int:
        return len(self._lanes.get(tenant, ()))

    def depths(self) -> dict[str, int]:
        return {t: len(lane) for t, lane in self._lanes.items() if lane}

    def tenants(self) -> list[str]:
        return sorted(t for t, lane in self._lanes.items() if lane)

    @property
    def virtual_time(self) -> float:
        return self._virtual_time

    def charge_count(self, tenant: str) -> int:
        """How many WFQ charges the tenant has paid (front re-queues
        are free — they were billed at the original enqueue)."""
        return self.charges.get(tenant, 0)

    def snapshot(self) -> dict:
        """The WFQ state as one JSON-able document (a telemetry-hub
        pull source): per-tenant lane depths, how many contending
        tenants are below their share of the last budget, the fair
        virtual time, and lifetime flow counters."""
        outstanding = self.outstanding_by_tenant
        return {
            "depths": self.depths(),
            "eligible": sum(
                1 for t in self._contending if outstanding.get(t, 0) < self._share(t)
            ),
            "virtual_time": self._virtual_time,
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
        }

    # -- the discipline -----------------------------------------------------------
    def enqueue(
        self, tenant: str, weight: float, item: Any, cost: float = 1.0
    ) -> ScheduledItem:
        """Append ``item`` to the tenant's lane with a WFQ finish tag.

        ``cost`` is the item's service demand in arbitrary units
        (requests by default; callers may pass estimated inference cost
        to make the shares byte/compute-proportional instead of
        count-proportional). ``weight`` must be the one the tenant was
        first seen with.
        """
        if weight <= 0:
            raise SchedulerError("weight must be > 0")
        if cost <= 0:
            raise SchedulerError("cost must be > 0")
        self._pin_weight(tenant, weight)
        start = max(self._virtual_time, self._last_finish.get(tenant, 0.0))
        finish = start + cost / weight
        self._last_finish[tenant] = finish
        self.charges[tenant] = self.charges.get(tenant, 0) + 1
        entry = ScheduledItem(
            tenant=tenant,
            item=item,
            cost=cost,
            finish_tag=finish,
            seq=next(self._seq),
        )
        lane = self._lanes.setdefault(tenant, deque())
        lane.append(entry)
        if len(lane) == 1:
            heapq.heappush(self._heap, (entry.finish_tag, entry.seq, tenant))
        self._size += 1
        self.enqueued += 1
        self._note(tenant)
        return entry

    def requeue_front(
        self, tenant: str, item: Any, cost: float = 1.0
    ) -> ScheduledItem:
        """Re-insert previously dequeued work at the *head* of its lane.

        For callers taking back work they already released (the
        gateway's over-commit reclamation): the item was the tenant's
        oldest, so it must run before the lane's younger entries, and
        its fair-share cost was already charged at the original
        :meth:`enqueue` — ``_last_finish`` is deliberately left alone
        so the tenant is not billed twice for one request. The entry
        inherits the current head's finish tag (or the virtual-time
        frontier on an empty lane) with a negative sequence number, so
        it wins exactly the ties it needs to and no more.
        """
        if cost <= 0:
            raise SchedulerError("cost must be > 0")
        lane = self._lanes.setdefault(tenant, deque())
        finish = lane[0].finish_tag if lane else self._virtual_time
        entry = ScheduledItem(
            tenant=tenant,
            item=item,
            cost=cost,
            finish_tag=finish,
            seq=next(self._front_seq),
        )
        lane.appendleft(entry)
        self._parked.pop(tenant, None)  # no longer the lane's head
        heapq.heappush(self._heap, (entry.finish_tag, entry.seq, tenant))
        self._size += 1
        self.enqueued += 1
        return entry

    def dequeue(self) -> ScheduledItem:
        """Pop the entry with the smallest finish tag across all lanes,
        parked heads included."""
        heap = self._heap
        while heap:
            _, seq, tenant = heap[0]
            lane = self._lanes.get(tenant)
            if lane and lane[0].seq == seq:
                break
            heapq.heappop(heap)  # stale heap entry (lane head already served)
        parked = min(self._parked.values(), default=None)
        if parked is not None and (not heap or parked < heap[0]):
            return self._pop_head(parked[2])
        if not heap:
            raise SchedulerError("dequeue from an empty scheduler")
        return self._pop_head(heapq.heappop(heap)[2])

    # -- the under-share pick -----------------------------------------------------
    def set_eligible(self, tenant: str, eligible: bool) -> None:
        """Gone: eligibility is read off the slot shares at the pick,
        so there is no set to mark a tenant in or out of.

        The stub stays only because the end-to-end benchmark's tracer
        wraps this name; ROADMAP's benchmark-only queue item "Trace the
        release decision" unwraps it and deletes the stub.
        """
        raise SchedulerError("eligibility follows the slot shares; set_eligible is gone")

    def has_eligible_work(self) -> bool:
        """Whether any tenant below its slot share has a queued item."""
        return self._pick_under_share(False) is not None

    def dequeue_eligible(self) -> ScheduledItem:
        """Pop the smallest-tag head among tenants below their share of
        the last budget given to :meth:`pop_next`.

        :meth:`pop_next`'s under-share pick. Same (finish_tag, seq)
        arbitration as :meth:`dequeue`; property tests cross-check it
        against a linear head scan over the fresh under-share set
        (``tests/gateway/scheduler_oracles.py``).
        """
        tenant = self._pick_under_share(True)
        if tenant is None:
            raise SchedulerError("no tenant below its slot share has queued work")
        return self._pop_head(tenant)

    def _pick_under_share(self, take: bool) -> str | None:
        """Walk the lane heads in (finish_tag, seq) order to the first
        whose tenant is below its share, and return that tenant (or
        ``None``); with ``take``, its heap entry is popped as well.

        Stale entries met on the way are dropped, and heads of tenants
        at or over their share are parked. Such a tenant holds at least
        one outstanding slot, so a walk parks fewer than ``budget``
        heads, and a parked head is not walked again until its tenant
        could be under its share.
        """
        heap, lanes = self._heap, self._lanes
        while heap:
            _, seq, tenant = heap[0]
            lane = lanes.get(tenant)
            if not lane or lane[0].seq != seq:
                heapq.heappop(heap)
            elif self.outstanding_by_tenant.get(tenant, 0) < self._share(tenant):
                if take:
                    heapq.heappop(heap)
                return tenant
            else:
                self._parked[tenant] = heapq.heappop(heap)
        return None

    def _unpark(self) -> None:
        """Put every parked head back on the heap: shares may have grown."""
        for head in self._parked.values():
            heapq.heappush(self._heap, head)
        self._parked.clear()

    def _pop_head(self, tenant: str) -> ScheduledItem:
        self._parked.pop(tenant, None)  # the head leaves, parked or not
        lane = self._lanes[tenant]
        entry = lane.popleft()
        if lane:
            head = lane[0]
            heapq.heappush(self._heap, (head.finish_tag, head.seq, tenant))
        # Virtual time tracks the service frontier; max() guards
        # against regression when an idle tenant re-enters with a
        # tag below an already-served backlogged tenant's.
        self._virtual_time = max(self._virtual_time, entry.finish_tag)
        self._size -= 1
        self.dequeued += 1
        return entry

    def drain(self) -> list[ScheduledItem]:
        """Dequeue everything, in fair order (mostly for tests)."""
        return [self.dequeue() for _ in range(len(self))]

    # -- slot shares ----------------------------------------------------------------
    def pop_next(self, budget: int, reserve: int) -> ScheduledItem | None:
        """Release the next item under a ``budget`` of outstanding
        slots, or ``None`` when nothing may go now.

        The pick is :meth:`dequeue_eligible`, the smallest tag among
        tenants below their share of this budget; with no such work the
        global :meth:`dequeue` runs instead unless that would eat into
        the last ``reserve`` slots. The released item counts as
        outstanding until :meth:`settle` or :meth:`reclaim`. A budget
        or reserve other than the last one returns every parked head.
        """
        if budget != self._budget or reserve != self._reserve:
            self._budget, self._reserve = budget, reserve
            self._unpark()
        if not self._size or self.outstanding >= budget:
            return None
        if self.has_eligible_work():
            entry = self.dequeue_eligible()
        elif self.outstanding >= budget - reserve:
            return None
        else:
            entry = self.dequeue()
        self.outstanding_by_tenant[entry.tenant] += 1
        self.outstanding += 1
        self._note(entry.tenant)
        return entry

    def settle(self, tenant: str) -> None:
        """One of the tenant's released items finished: free its slot."""
        self.outstanding_by_tenant[tenant] -= 1
        self.outstanding -= 1
        head = self._parked.pop(tenant, None)
        if head is not None:  # the tenant may have room again
            heapq.heappush(self._heap, head)
        self._note(tenant)

    def reclaim(self, tenant: str, item: Any) -> None:
        """Take a released, unclaimed item back to the head of its lane
        (:meth:`requeue_front`) and free its slot."""
        self.requeue_front(tenant, item)
        self.outstanding_by_tenant[tenant] -= 1
        self.outstanding -= 1

    def restore_released(self, tenant: str, weight: float, dispatch_tag: float) -> None:
        """Count an item released by a previous incarnation, which
        recovery found still queued, as outstanding. ``weight`` is the
        tenant's, which its lane may not hold yet. The virtual time
        moves up to the item's ``dispatch_tag``, so everything tagged
        from now on ranks after the restored backlog, as it would have
        before the crash."""
        self._pin_weight(tenant, weight)
        self._virtual_time = max(self._virtual_time, dispatch_tag)
        self.outstanding_by_tenant[tenant] += 1
        self.outstanding += 1
        self._note(tenant)

    def _pin_weight(self, tenant: str, weight: float) -> None:
        """Fix the tenant's weight at first sight. Shares are relative
        and the total is cached, so a later change is refused."""
        pinned = self._weights.setdefault(tenant, weight)
        if pinned != weight:
            raise SchedulerError(
                f"tenant {tenant!r} has weight {pinned}; cannot change it to {weight}"
            )

    def _note(self, tenant: str) -> None:
        """Fold one tenant's backlog/occupancy change into the
        contending set. Joining or leaving drops the cached total
        weight, which moves every share: down on a join, up on a leave."""
        outstanding = self.outstanding_by_tenant.get(tenant, 0)
        active = bool(self._lanes.get(tenant)) or outstanding > 0
        if active != (tenant in self._contending):
            if active:
                self._contending.add(tenant)
            else:
                self._contending.discard(tenant)
                self._unpark()
            self._total_weight = None

    def _share(self, tenant: str) -> int:
        """The tenant's weighted part of the last budget, at least one
        slot and at most ``budget - reserve``: even a tenant contending
        alone leaves the reserve free. The contending tenants' summed
        weight is cached until the set changes, and summed in sorted
        order so the float does not depend on the order they joined in."""
        total = self._total_weight
        if total is None:
            weights = self._weights
            total = self._total_weight = sum(map(weights.__getitem__, sorted(self._contending)))
        budget = self._budget
        share = int(budget * self._weights[tenant] / total)
        cap = budget - self._reserve
        return min(share, cap) if share > 1 and cap > 1 else 1
