"""Property test: ``WeightedFairScheduler.pop_next`` against the parent rule.

The scheduler owns the slot-share decision the gateway's pump used to
spell out (contending set, weighted shares over the budget with the
reserve cap, eligible pick, reserve guard, work-conserving fallback).
Random sequences of enqueue, release, settle, reclaim, in-queue restore
and budget/reserve changes drive it beside
``tests/gateway/scheduler_oracles.ParentSlotShares``: every release must
return the same entry or ``None``, and after every step the two
schedulers' ``snapshot()`` documents must be equal.

The sequences keep to the orders the gateway produces: in-queue
restores come first (recovery restores a fresh gateway before it
serves), a budget change is followed by a release (the gateway pumps
after every re-derivation, before any settle), and a reclaim happens
only while more is outstanding than the budget allows (the drain valve).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gateway.scheduler import WeightedFairScheduler
from tests.gateway.scheduler_oracles import ParentSlotShares

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
_EQUAL = [1.0] * len(TENANTS)

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


def _key(entry):
    if entry is None:
        return None
    return (entry.tenant, entry.item, entry.seq, entry.finish_tag)


@settings(max_examples=200, deadline=None)
@example(weights=_EQUAL, restores=[], ops=_SATURATE_THEN_GROW)
@example(weights=_EQUAL, restores=[], ops=_SHRINK_AND_RECLAIM)
# The budget is exactly full while a backlogged tenant is under share.
@example(
    weights=_EQUAL,
    restores=[("t0", 3.0), ("t0", 4.0), ("t1", 2.5)],
    ops=[("enqueue", "t2"), ("resize", 2, 1)],
)
@given(
    weights=st.lists(
        st.sampled_from((0.5, 1.0, 2.0, 3.0)), min_size=len(TENANTS), max_size=len(TENANTS)
    ),
    restores=st.lists(
        st.tuples(st.sampled_from(TENANTS), st.integers(0, 40).map(lambda n: n / 4)),
        max_size=12,
    ),
    ops=st.lists(_ops, max_size=120),
)
def test_pop_next_matches_the_parent_rule(weights, restores, ops):
    weight = dict(zip(TENANTS, weights))
    owned = WeightedFairScheduler()
    parent = ParentSlotShares(WeightedFairScheduler())
    #: Released items per tenant, oldest first: settles take the
    #: oldest, reclaims the newest (the drain valve withdraws newest).
    released: dict[str, list] = {t: [] for t in TENANTS}
    budget = (9, 1)

    def check():
        assert owned.snapshot() == parent.scheduler.snapshot()
        assert owned.outstanding_by_tenant == parent.outstanding
        assert owned.outstanding == sum(parent.outstanding.values())

    def release():
        got = owned.pop_next(*budget)
        want = parent.pop_next(*budget)
        assert _key(got) == _key(want)
        if got is not None:
            released[got.tenant].append(got.item)

    for n, (tenant, tag) in enumerate(restores):
        released[tenant].append(f"restored{n}")
        owned.restore_released(tenant, weight[tenant], tag)
        parent.restore_released(tenant, weight[tenant], tag)
        check()
    for n, op in enumerate(ops):
        busy = sorted(t for t in TENANTS if released[t])
        if op[0] == "enqueue":
            owned.enqueue(op[1], weight[op[1]], f"r{n}")
            parent.enqueue(op[1], weight[op[1]], f"r{n}")
        elif op[0] == "release":
            release()
        elif op[0] == "resize":
            budget = (op[1] + op[2], op[2])
            release()
        elif op[0] == "settle" and busy:
            tenant = busy[op[1] % len(busy)]
            released[tenant].pop(0)
            owned.settle(tenant)
            parent.settle(tenant)
        elif op[0] == "reclaim" and busy and owned.outstanding > budget[0]:
            tenant = busy[op[1] % len(busy)]
            item = released[tenant].pop()
            owned.reclaim(tenant, item)
            parent.reclaim(tenant, item)
        check()
