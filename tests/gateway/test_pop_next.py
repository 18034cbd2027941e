"""Property tests: ``WeightedFairScheduler.pop_next`` against two rules.

The scheduler owns the slot-share decision the gateway's pump used to
spell out (contending set, weighted shares over the budget with the
reserve cap, under-share pick, reserve guard, work-conserving
fallback). Random sequences of enqueue, release, settle, reclaim,
in-queue restore and budget/reserve changes drive it beside an oracle
from ``tests/gateway/scheduler_oracles.py``: every release must return
the same entry or ``None``, the outstanding ledgers must agree, and
after every step ``snapshot()`` must report the fresh eligible count.

* Beside ``ParentSlotShares`` the sequences keep to the orders the
  gateway produces, the only ones the cached shares were right in:
  in-queue restores come first (recovery restores a fresh gateway
  before it serves), a budget change is followed by a release (the
  gateway pumps after every re-derivation, before any settle), and a
  reclaim happens only while more is outstanding than the budget allows
  (the drain valve).
* Beside ``FreshSlotShares`` any order goes: settles, enqueues,
  reclaims and restores may fall between a budget change and the next
  release.

A third property drives ``enqueue_or_release`` beside ``enqueue`` then
``pop_next`` (what the gateway's door did for every admission before it
could release one on the spot): the same entries, and the same state
after every step.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gateway.scheduler import SchedulerError, WeightedFairScheduler
from tests.gateway.scheduler_oracles import FreshSlotShares, ParentSlotShares, under_share

TENANTS = ("t0", "t1", "t2", "t3")

#: Enqueues and releases outnumber the rest, so lanes back up, tenants
#: reach their shares and the reserve guard gets to decide.
_ops = st.one_of(
    st.tuples(st.just("enqueue"), st.sampled_from(TENANTS)),
    st.tuples(st.just("enqueue"), st.sampled_from(TENANTS[:2])),
    st.tuples(st.just("release")),
    st.tuples(st.just("release")),
    st.tuples(st.just("resize"), st.integers(1, 12), st.integers(1, 3)),
    st.tuples(st.just("settle"), st.integers(0, 20)),
    st.tuples(st.just("reclaim"), st.integers(0, 20)),
)
_any_order_ops = st.one_of(
    _ops,
    st.tuples(st.just("shrink"), st.integers(1, 4), st.integers(0, 2)),
    st.tuples(st.just("restore"), st.sampled_from(TENANTS), st.integers(0, 40)),
)
_EQUAL = [1.0] * len(TENANTS)
_weights = st.lists(
    st.sampled_from((0.5, 1.0, 2.0, 3.0)), min_size=len(TENANTS), max_size=len(TENANTS)
)

#: One tenant fills its share up to the reserve, then the budget grows.
_SATURATE_THEN_GROW = [("enqueue", "t0")] * 12 + [("release",)] * 9 + [("resize", 12, 1)]
#: Two tenants fill the budget, it shrinks, the valve reclaims, and
#: settles reopen it.
_SHRINK_AND_RECLAIM = (
    [("enqueue", "t0"), ("enqueue", "t1")] * 6
    + [("release",)] * 9
    + [("resize", 2, 1)]
    + [("reclaim", 0), ("reclaim", 1)] * 3
    + [("settle", 0), ("settle", 1), ("release",)] * 2
)
#: Budget (4, 1), equal shares of 2: t0 holds both of its slots, then
#: t1 settles its only one and leaves t0 a share of 3 — one slot free.
_LEAVE_THEN_SCRAPE = [("enqueue", "t0"), ("enqueue", "t0"), ("enqueue", "t1")] + [
    ("resize", 3, 1),
    ("release",),
    ("release",),
    ("settle", 1),
]


def _key(entry):
    if entry is None:
        return None
    return (entry[2], entry[3], entry[1], entry[0])


class _Drive:
    """Applies one op list to the scheduler under test and an oracle
    side by side, checking after every step."""

    def __init__(self, weights, oracle, check) -> None:
        self.weight = dict(zip(TENANTS, weights))
        self.owned = WeightedFairScheduler()
        self.oracle = oracle
        self.check = check
        #: Released items per tenant, oldest first: settles take the
        #: oldest, reclaims the newest (the drain valve withdraws newest).
        self.released: dict[str, list] = {t: [] for t in TENANTS}
        self.budget = (9, 1)

    def restore(self, tenant: str, tag: float, name: str) -> None:
        self.released[tenant].append(name)
        self.owned.restore_released(tenant, self.weight[tenant], tag)
        self.oracle.restore_released(tenant, self.weight[tenant], tag)

    def release(self) -> None:
        got = self.owned.pop_next(*self.budget)
        want = self.oracle.pop_next(*self.budget)
        assert _key(got) == _key(want)
        if got is not None:
            self.released[got[2]].append(got[3])

    def step(self, n: int, op, any_order: bool) -> None:
        busy = sorted(t for t in TENANTS if self.released[t])
        if op[0] == "enqueue":
            self.owned.enqueue(op[1], self.weight[op[1]], f"r{n}")
            self.oracle.enqueue(op[1], self.weight[op[1]], f"r{n}")
        elif op[0] == "release":
            self.release()
        elif op[0] in ("resize", "shrink"):
            self.budget = (op[1] + op[2], op[2])
            self.release()
        elif op[0] == "restore":
            self.restore(op[1], op[2] / 4, f"restored{n}")
        elif op[0] == "settle" and busy:
            tenant = busy[op[1] % len(busy)]
            self.released[tenant].pop(0)
            self.owned.settle(tenant)
            self.oracle.settle(tenant)
        elif op[0] == "reclaim" and busy and (any_order or self.owned.outstanding > self.budget[0]):
            tenant = busy[op[1] % len(busy)]
            item = self.released[tenant].pop()
            self.owned.reclaim(tenant, item)
            self.oracle.reclaim(tenant, item)
        self.check(self.owned, self.oracle)


def _ledgers_match(owned, oracle) -> None:
    assert owned.outstanding_by_tenant == oracle.outstanding
    assert owned.outstanding == sum(oracle.outstanding.values())


@settings(max_examples=200, deadline=None)
@example(weights=_EQUAL, restores=[], ops=_SATURATE_THEN_GROW)
@example(weights=_EQUAL, restores=[], ops=_SHRINK_AND_RECLAIM)
@example(weights=_EQUAL, restores=[], ops=_LEAVE_THEN_SCRAPE)
# The budget is exactly full while a backlogged tenant is under share.
@example(
    weights=_EQUAL,
    restores=[("t0", 3.0), ("t0", 4.0), ("t1", 2.5)],
    ops=[("enqueue", "t2"), ("resize", 2, 1)],
)
@given(
    weights=_weights,
    restores=st.lists(
        st.tuples(st.sampled_from(TENANTS), st.integers(0, 40).map(lambda n: n / 4)),
        max_size=12,
    ),
    ops=st.lists(_ops, max_size=120),
)
def test_pop_next_matches_the_parent_rule(weights, restores, ops):
    def check(owned, parent):
        fresh = under_share(parent.scheduler, parent.weights, parent.outstanding, *parent.budget)
        assert owned.snapshot() == {**parent.scheduler.snapshot(), "eligible": len(fresh)}
        _ledgers_match(owned, parent)

    drive = _Drive(weights, ParentSlotShares(WeightedFairScheduler()), check)
    for n, (tenant, tag) in enumerate(restores):
        drive.restore(tenant, tag, f"restored{n}")
        check(drive.owned, drive.oracle)
    for n, op in enumerate(ops):
        drive.step(n, op, any_order=False)


@settings(max_examples=200, deadline=None)
@example(weights=_EQUAL, ops=_LEAVE_THEN_SCRAPE)
# A shrink finds the budget full, so nothing is released; a settle and
# an enqueue land before the next release, under the new budget.
@example(
    weights=_EQUAL,
    ops=[("enqueue", "t0")] * 3
    + [("enqueue", "t1")] * 2
    + [("release",)] * 5
    + [("shrink", 1, 1), ("settle", 0), ("enqueue", "t2"), ("settle", 1), ("release",)],
)
@given(weights=_weights, ops=st.lists(_any_order_ops, max_size=120))
def test_pop_next_matches_fresh_shares_in_any_order(weights, ops):
    def check(owned, fresh):
        assert owned.snapshot() == fresh.snapshot()
        _ledgers_match(owned, fresh)

    drive = _Drive(weights, FreshSlotShares(WeightedFairScheduler()), check)
    for n, op in enumerate(ops):
        drive.step(n, op, any_order=True)


#: Fresh admissions outnumber the rest; settles are as common as
#: enqueues so the budget keeps reopening, and lanes fill and drain.
_door_ops = st.one_of(
    st.tuples(st.just("fresh"), st.sampled_from(TENANTS)),
    st.tuples(st.just("fresh"), st.sampled_from(TENANTS[:2])),
    st.tuples(st.just("enqueue"), st.sampled_from(TENANTS)),
    st.tuples(st.just("release")),
    st.tuples(st.just("budget"), st.integers(1, 8), st.integers(0, 3)),
    st.tuples(st.just("settle"), st.integers(0, 20)),
    st.tuples(st.just("settle"), st.integers(0, 20)),
    st.tuples(st.just("reclaim"), st.integers(0, 20)),
)


def _state(scheduler: WeightedFairScheduler) -> dict:
    """Everything ``enqueue_or_release`` must leave as ``enqueue`` then
    ``pop_next`` would. Left out: the heap, where the two may differ
    only by stale entries, and the cached weight sum, which is summed
    again from the contending set on demand."""
    return {
        "lanes": {t: list(lane) for t, lane in scheduler._lanes.items() if lane},
        "size": len(scheduler),
        "parked": scheduler._parked,
        "last_finish": scheduler._last_finish,
        "charges": scheduler.charges,
        "virtual_time": scheduler.virtual_time,
        "flow": (scheduler.enqueued, scheduler.dequeued),
        "outstanding": (dict(scheduler.outstanding_by_tenant), scheduler.outstanding),
        "contending": scheduler._contending,
        "weights": scheduler._weights,
        "budget": (scheduler._budget, scheduler._reserve),
        "snapshot": scheduler.snapshot(),
    }


class _Door:
    """Two schedulers under one op list: ``fast`` takes each fresh item
    through ``enqueue_or_release`` (pumping once if it was laned), as the
    gateway's door does; ``pair`` through ``enqueue`` then ``pop_next``."""

    def __init__(self, weights) -> None:
        self.weight = dict(zip(TENANTS, weights))
        self.fast = WeightedFairScheduler()
        self.pair = WeightedFairScheduler()
        self.released: dict[str, list] = {t: [] for t in TENANTS}
        self.budget = (6, 1)
        self.at_once = 0

    def step(self, n: int, op) -> None:
        fast, pair = self.fast, self.pair
        busy = sorted(t for t in TENANTS if self.released[t])
        got = want = None
        if op[0] == "fresh":
            tenant = op[1]
            got = fast.enqueue_or_release(tenant, self.weight[tenant], f"r{n}", *self.budget)
            self.at_once += got is not None
            if got is None:
                got = fast.pop_next(*self.budget)
            pair.enqueue(tenant, self.weight[tenant], f"r{n}")
            want = pair.pop_next(*self.budget)
        elif op[0] == "enqueue":
            got = fast.enqueue(op[1], self.weight[op[1]], f"r{n}")
            want = pair.enqueue(op[1], self.weight[op[1]], f"r{n}")
        elif op[0] == "release":
            got, want = fast.pop_next(*self.budget), pair.pop_next(*self.budget)
        elif op[0] == "budget":
            self.budget = (op[1] + op[2], op[2])
        elif op[0] == "settle" and busy:
            tenant = busy[op[1] % len(busy)]
            self.released[tenant].pop(0)
            fast.settle(tenant)
            pair.settle(tenant)
        elif op[0] == "reclaim" and busy:
            tenant = busy[op[1] % len(busy)]
            item = self.released[tenant].pop()
            fast.reclaim(tenant, item)
            pair.reclaim(tenant, item)
        assert got == want
        if op[0] != "enqueue" and got is not None:
            self.released[got[2]].append(got[3])
        assert _state(fast) == _state(pair)


@settings(max_examples=300, deadline=None)
# A budget change with nothing to release, then an admission released
# at once under it: the release must record the new budget.
@example(weights=_EQUAL, ops=[("budget", 3, 2), ("fresh", "t0"), ("settle", 0)])
# Lanes back up, drain, and the next admission finds them empty again.
@example(
    weights=[1.0, 2.0, 0.5, 3.0],
    ops=[("fresh", "t0")] * 6
    + [("fresh", "t1"), ("settle", 0), ("settle", 1), ("release",), ("release",)]
    + [("settle", 0)] * 6
    + [("fresh", "t2"), ("fresh", "t2"), ("fresh", "t1")],
)
@given(weights=_weights, ops=st.lists(_door_ops, max_size=120))
def test_enqueue_or_release_matches_enqueue_then_pop_next(weights, ops):
    door = _Door(weights)
    for n, op in enumerate(ops):
        door.step(n, op)


def test_the_property_releases_at_once_and_lanes_too():
    """The example walks reach both sides of the method."""
    door = _Door(_EQUAL)
    # Budget 6, reserve 1: five go at once and the sixth waits in its
    # lane until a release after the settles; then the lanes are empty
    # again and t1's goes at once.
    ops = (
        [("fresh", "t0")] * 6
        + [("settle", 0)] * 5
        + [("release",), ("settle", 0), ("fresh", "t1")]
    )
    for n, op in enumerate(ops):
        door.step(n, op)
    assert door.at_once == 6
    assert door.fast.enqueued - door.at_once == 1


@pytest.mark.parametrize(
    "laned, weight",
    [(False, 0.0), (False, -1.0), (False, 2.0), (True, 0.0), (True, 2.0)],
)
def test_a_refused_weight_changes_nothing(laned, weight):
    """A weight that is not positive or not the pinned one raises
    before anything moves — whether the item would have been released
    at once or laned."""
    scheduler = WeightedFairScheduler()
    released = scheduler.enqueue_or_release("t0", 1.0, "first", 6, 1)
    assert released is not None and released[:3] == (1.0, 1, "t0")
    if laned:
        scheduler.enqueue("t1", 1.0, "waiting")
    before = _state(scheduler)
    with pytest.raises(SchedulerError):
        scheduler.enqueue_or_release("t0", weight, "refused", 6, 1)
    assert _state(scheduler) == before
    # The seq counter did not move either.
    assert scheduler.enqueue("t2", 1.0, "next")[1] == (3 if laned else 2)
