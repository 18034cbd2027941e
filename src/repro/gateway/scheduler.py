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
dispatch slot while a light tenant's request waits. When only
over-share tenants have work they still run (work conservation beats
reservation), but never into the budget's last ``reserve`` slots, so a
newly active tenant's first request always finds instant headroom.
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
        #: Tenants marked dispatch-eligible (below their slot share),
        #: and the secondary heap of their lane heads. Entries are
        #: lazily invalidated exactly like ``_heap``, plus an
        #: eligibility check on pop — so :meth:`dequeue_eligible` is an
        #: O(log T) pop, not a linear scan over the eligible tenants'
        #: lane heads.
        self._eligible: set[str] = set()
        self._eligible_heap: list[tuple[float, int, str]] = []
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
        #: Slot-share state: each tenant's weight, the contending set
        #: (backlogged or outstanding tenants), the shares over it for
        #: ``_budget``, and a dirty flag raised only when membership or
        #: the budget changes — per-release work is then an O(1)
        #: eligibility delta for the one tenant whose occupancy moved.
        self._weights: dict[str, float] = {}
        self._contending: set[str] = set()
        self._shares: dict[str, int] = {}
        self._budget = (0, 0)
        self._dirty = True

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
        pull source): per-tenant lane depths, the size of the
        dispatch-eligible set, the fair virtual time, and lifetime flow
        counters."""
        return {
            "depths": self.depths(),
            "eligible": len(self._eligible),
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
        count-proportional).
        """
        if weight <= 0:
            raise SchedulerError("weight must be > 0")
        if cost <= 0:
            raise SchedulerError("cost must be > 0")
        start = max(self._virtual_time, self._last_finish.get(tenant, 0.0))
        finish = start + cost / weight
        self._last_finish[tenant] = finish
        self._weights[tenant] = weight
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
            self._push_eligible_head(tenant, entry)
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
        heapq.heappush(self._heap, (entry.finish_tag, entry.seq, tenant))
        self._push_eligible_head(tenant, entry)
        self._size += 1
        self.enqueued += 1
        return entry

    def dequeue(self) -> ScheduledItem:
        """Pop the entry with the smallest finish tag across all lanes."""
        while self._heap:
            finish_tag, seq, tenant = heapq.heappop(self._heap)
            lane = self._lanes.get(tenant)
            if not lane or lane[0].seq != seq:
                continue  # stale heap entry (lane head already served)
            return self._pop_head(tenant)
        raise SchedulerError("dequeue from an empty scheduler")

    # -- eligible-tenant index ----------------------------------------------------
    def set_eligible(self, tenant: str, eligible: bool) -> None:
        """Mark one tenant in or out of the dispatch-eligible set.

        Marking a tenant eligible pushes its current lane head onto the
        secondary heap; unmarking leaves stale entries to be skipped
        lazily on pop. Eligibility with an empty lane is allowed and
        harmless — head validation filters it.
        """
        if eligible:
            if tenant not in self._eligible:
                self._eligible.add(tenant)
                lane = self._lanes.get(tenant)
                if lane:
                    self._push_eligible_head(tenant, lane[0])
        else:
            self._eligible.discard(tenant)

    def _push_eligible_head(self, tenant: str, head: ScheduledItem) -> None:
        if tenant in self._eligible:
            heapq.heappush(
                self._eligible_heap, (head.finish_tag, head.seq, tenant)
            )

    def _clean_eligible(self) -> bool:
        """Drop stale eligible-heap tops; True iff a valid head remains."""
        while self._eligible_heap:
            _, seq, tenant = self._eligible_heap[0]
            lane = self._lanes.get(tenant)
            if tenant not in self._eligible or not lane or lane[0].seq != seq:
                heapq.heappop(self._eligible_heap)
                continue
            return True
        return False

    def has_eligible_work(self) -> bool:
        """Whether any eligible tenant has a queued item."""
        return self._clean_eligible()

    def dequeue_eligible(self) -> ScheduledItem:
        """Pop the smallest-tag head among eligible tenants.

        :meth:`pop_next`'s under-share pick. Same (finish_tag, seq)
        arbitration as :meth:`dequeue`, served in
        O(log T) from the secondary heap; property tests cross-check it
        against a linear head scan
        (``tests/gateway/scheduler_oracles.py``). Stale ``_heap``
        entries left behind are skipped by :meth:`dequeue` later.
        """
        if not self._clean_eligible():
            raise SchedulerError(
                f"no queued work for eligible tenants {sorted(self._eligible)}"
            )
        _, _, tenant = heapq.heappop(self._eligible_heap)
        return self._pop_head(tenant)

    def _pop_head(self, tenant: str) -> ScheduledItem:
        lane = self._lanes[tenant]
        entry = lane.popleft()
        if lane:
            head = lane[0]
            heapq.heappush(self._heap, (head.finish_tag, head.seq, tenant))
            self._push_eligible_head(tenant, head)
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

        The eligible index holds exactly the backlogged tenants below
        their slot share, so the pick is :meth:`dequeue_eligible`; with
        no eligible work the global :meth:`dequeue` runs instead unless
        that would eat into the last ``reserve`` slots. The released
        item counts as outstanding until :meth:`settle` or
        :meth:`reclaim`. A changed budget invalidates the shares; the
        caller passes every re-derived budget here before it reports
        any settle.
        """
        if (budget, reserve) != self._budget:
            self._budget = (budget, reserve)
            self._dirty = True
        if not self._size or self.outstanding >= budget:
            return None
        if self._dirty:
            self._refresh_shares()
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
        self._note(tenant)

    def reclaim(self, tenant: str, item: Any) -> None:
        """Take a released, unclaimed item back to the head of its lane
        (:meth:`requeue_front`) and free its slot.

        Only a caller over budget reclaims, and only a budget shrink
        (possibly not yet passed to :meth:`pop_next`) or a restore since
        the last refresh puts it there: the shares are stale, so they
        are marked dirty instead of consulted.
        """
        self.requeue_front(tenant, item)
        self.outstanding_by_tenant[tenant] -= 1
        self.outstanding -= 1
        self._dirty = True

    def restore_released(self, tenant: str, weight: float, dispatch_tag: float) -> None:
        """Count an item released by a previous incarnation, which
        recovery found still queued, as outstanding. ``weight`` is the
        tenant's, which its lane may not hold yet. The virtual time
        moves up to the item's ``dispatch_tag``, so everything tagged
        from now on ranks after the restored backlog, as it would have
        before the crash."""
        self._virtual_time = max(self._virtual_time, dispatch_tag)
        self._weights[tenant] = weight
        self.outstanding_by_tenant[tenant] += 1
        self.outstanding += 1
        self._note(tenant)

    def _note(self, tenant: str) -> None:
        """Fold one tenant's backlog/occupancy change into the shares.

        Joining or leaving the contending set marks every share dirty
        (weighted shares are relative); a change *within* the set only
        moves this tenant's own under-share eligibility.
        """
        outstanding = self.outstanding_by_tenant.get(tenant, 0)
        active = bool(self._lanes.get(tenant)) or outstanding > 0
        if active != (tenant in self._contending):
            if active:
                self._contending.add(tenant)
            else:
                self._contending.discard(tenant)
                self.set_eligible(tenant, False)
            self._dirty = True
        elif active and not self._dirty:
            self.set_eligible(tenant, outstanding < self._shares.get(tenant, 0))

    def _refresh_shares(self) -> None:
        """Recompute every contending tenant's share and eligibility.

        A share is the tenant's weighted part of the budget, at least
        one slot and at most ``budget - reserve``: even a tenant
        contending alone leaves the reserve free. O(contending), paid
        only on a membership or budget change.
        """
        budget, reserve = self._budget
        contending = sorted(self._contending)
        total_weight = sum(self._weights[t] for t in contending)
        cap = max(1, budget - reserve)
        self._shares = {
            t: min(cap, max(1, int(budget * self._weights[t] / total_weight)))
            for t in contending
        }
        for tenant in self._contending:
            self.set_eligible(
                tenant,
                self.outstanding_by_tenant.get(tenant, 0) < self._shares[tenant],
            )
        self._dirty = False
