"""Crash-at-every-boundary sweep: kill the serving stack at each named
injection point, recover, and assert the durability invariants —
exactly-once settlement, a balanced admission ledger, and no double WFQ
charge across the crash."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.durability import (
    INJECTION_POINTS,
    CrashPlan,
    FaultInjector,
    FileDurableStore,
    InMemoryDurableStore,
    Journal,
    SimulatedCrash,
    load_state,
)
from repro.gateway.gateway import ServingGateway

from tests.core.lane_oracles import (
    assert_inflight_index_consistent,
    assert_lane_index_consistent,
)

from .conftest import alternating_arrivals, build_chaos_harness

N_ARRIVALS = 30


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    """Each durable medium in turn: every sweep point runs on both."""
    if request.param == "memory":
        yield InMemoryDurableStore()
    else:
        file_store = FileDurableStore(str(tmp_path / "wal"))
        yield file_store
        file_store.close()


def assert_indices_consistent(harness):
    """The queue's in-flight index and the runtime's lane-lifecycle
    index agree with brute-force passes over the state they summarize."""
    queue, runtime = harness.queue, harness.runtime
    assert_inflight_index_consistent(queue, topic_sets=[runtime._owned_topics])
    assert_lane_index_consistent(runtime)
    for name in runtime.placement():
        assert runtime.queue_depth(name) == sum(
            queue.ready_count(topic)
            for topic in runtime._owned_topics
            if topic.endswith(f"/{name}")
        )


def check_indices_after_every_restart(harness):
    """Cross-check the indices the moment each recovery hands over: a
    queue rebuilt by ``materialize_queue`` and a runtime re-tracking
    lanes in ``adopt_placement`` must come up consistent."""
    recover = harness._recover

    def recover_and_check():
        recover()
        assert_indices_consistent(harness)

    harness._recover = recover_and_check


def run_sweep_point(zoo, store, point, snapshot_every=256, after_trips=3):
    harness, tokens = build_chaos_harness(
        zoo, store, snapshot_every_records=snapshot_every
    )
    check_indices_after_every_restart(harness)
    arrivals = alternating_arrivals(tokens, n=N_ARRIVALS)
    outcome = harness.run(
        arrivals, plans=(CrashPlan(point, after_trips=after_trips),)
    )
    return harness, outcome


def assert_invariants(harness, outcome, point):
    # The crash actually fired, at the requested boundary.
    assert [c.point for c in outcome.crashes] == [point]
    assert harness.incarnations == 2

    # Exactly-once settlement: every admitted request settled in
    # precisely one incarnation; none twice, none lost.
    assert outcome.duplicates == []
    assert outcome.exactly_once
    assert len(outcome.settled) + len(outcome.denied) == N_ARRIVALS

    # The admission ledger balanced back to zero: every restored charge
    # (and every live one) was released by exactly one settlement.
    admission = harness.gateway.admission
    for result in outcome.settled.values():
        tenant = result.request.tenant
        assert admission.in_flight(tenant) == 0
        assert admission.in_flight(tenant, "noop") == 0

    # No double WFQ charge: in the post-crash incarnation, lane charges
    # are exactly one per lane entry — restored-to-queue requests never
    # touch the scheduler, restored-to-lane requests and fresh
    # admissions charge once each.
    recovery = outcome.recoveries[0]
    admits_before_crash = (
        recovery["open_at_recovery"] + recovery["settled_at_recovery"]
    )
    admits_after_crash = len(outcome.admitted) - admits_before_crash
    lane_restored = recovery["restored_open"] - recovery["restored_in_queue"]
    total_charges = sum(
        harness.gateway.scheduler.charge_count(t) for t in ("alice", "bob")
    )
    assert total_charges == lane_restored + admits_after_crash

    # Recovery restored every unsettled admission exactly once.
    assert recovery["restored_open"] == recovery["open_at_recovery"] - len(
        recovery["dead_open"]
    )

    # The drained stack's indices are back to empty-and-consistent.
    assert_indices_consistent(harness)


@pytest.mark.parametrize(
    "point", [p for p in INJECTION_POINTS if p != "mid_snapshot"]
)
def test_crash_and_recover_at_boundary(chaos_zoo, store, point):
    harness, outcome = run_sweep_point(chaos_zoo, store, point)
    assert_invariants(harness, outcome, point)


def test_crash_mid_snapshot_dedupes_the_seam(chaos_zoo, store):
    # A small cadence forces a snapshot mid-run; the crash lands between
    # the snapshot write and the journal truncation, so recovery sees
    # the seam overlap and must dedupe it by sequence number.
    harness, outcome = run_sweep_point(
        chaos_zoo,
        store,
        "mid_snapshot",
        snapshot_every=20,
        after_trips=1,
    )
    assert_invariants(harness, outcome, "mid_snapshot")
    recovery = outcome.recoveries[0]
    assert recovery["snapshot_used"]
    assert recovery["seam_overlap"] > 0


def test_crash_mid_snapshot_on_a_settle_record_keeps_the_result(chaos_zoo, monkeypatch):
    # Cadence and trip count chosen so that the crashed snapshot is one
    # a gateway `settle` record naming several requests made due: the
    # `on_tick` that follows its `on_settled` writes it. Every member
    # was delivered before the record, and none may be delivered again
    # after the restart.
    settles = []
    crashed_after = []
    settle, snapshot_now = Journal.settle, Journal.snapshot_now

    def recording_settle(journal, task_uuids):
        due = journal.snapshot_due
        seq = settle(journal, task_uuids)
        settles.append((list(task_uuids), journal.snapshot_due and not due))
        return seq

    def recording_snapshot_now(journal, queue):
        try:
            return snapshot_now(journal, queue)
        except SimulatedCrash:
            crashed_after.append(settles[-1])
            raise

    monkeypatch.setattr(Journal, "settle", recording_settle)
    monkeypatch.setattr(Journal, "snapshot_now", recording_snapshot_now)
    harness, outcome = run_sweep_point(
        chaos_zoo,
        InMemoryDurableStore(),
        "mid_snapshot",
        snapshot_every=15,
        after_trips=2,
    )
    ((members, made_due),) = crashed_after
    if not made_due:
        # Not an expected failure: the scenario no longer lands on the
        # seam it pins and needs re-aiming.
        pytest.fail("the crashed snapshot was not made due by a settle record")
    assert len(members) == 2
    assert_invariants(harness, outcome, "mid_snapshot")
    crash_at = outcome.crashes[0].at
    for uuid in members:
        assert uuid not in outcome.duplicates
        # Delivered once, by the incarnation that crashed.
        assert outcome.settled[uuid].runtime_result.completed_at <= crash_at


def test_a_crash_mid_snapshot_finds_no_held_admission(chaos_zoo, monkeypatch):
    # After a pre_settle crash the restored lanes hold resurrected work,
    # so the next offer's pump releases it before the offer's own
    # request. A snapshot written inside that pump would find the
    # offer's admission still held, and a crash there would lose it.
    # Snapshots are written at the end of a tick instead: the crash
    # finds nothing held, and no request is offered twice.
    held_at_crash = []
    snapshot_now = Journal.snapshot_now

    def recording_snapshot_now(journal, queue):
        try:
            return snapshot_now(journal, queue)
        except SimulatedCrash:
            held_at_crash.append(dict(journal._held))
            raise

    offers = Counter()
    offer = ServingGateway.offer

    def counting_offer(gateway, request, *args, **kwargs):
        offers[request.task_uuid] += 1
        return offer(gateway, request, *args, **kwargs)

    monkeypatch.setattr(Journal, "snapshot_now", recording_snapshot_now)
    monkeypatch.setattr(ServingGateway, "offer", counting_offer)
    harness, tokens = build_chaos_harness(
        chaos_zoo, InMemoryDurableStore(), snapshot_every_records=10
    )
    plans = (
        CrashPlan("pre_settle", after_trips=2),
        CrashPlan("mid_snapshot", after_trips=1),
    )
    outcome = harness.run(
        alternating_arrivals(tokens, n=N_ARRIVALS, rate_rps=1000.0), plans=plans
    )
    assert [c.point for c in outcome.crashes] == ["pre_settle", "mid_snapshot"]
    assert outcome.recoveries[0]["restored_resurrected"] > 0
    assert held_at_crash == [{}]
    assert set(offers.values()) == {1}
    assert outcome.exactly_once and not outcome.duplicates
    assert len(outcome.settled) + len(outcome.denied) == N_ARRIVALS


def test_serial_crashes_across_multiple_points(chaos_zoo, store):
    """Several crashes in one run — one per incarnation, in plan order."""
    harness, tokens = build_chaos_harness(chaos_zoo, store)
    arrivals = alternating_arrivals(tokens, n=N_ARRIVALS)
    plans = (
        CrashPlan("post_admission", after_trips=4),
        CrashPlan("post_claim", after_trips=2),
        CrashPlan("mid_batch", after_trips=1),
    )
    outcome = harness.run(arrivals, plans=plans)
    assert [c.point for c in outcome.crashes] == [p.point for p in plans]
    assert harness.incarnations == 4
    assert outcome.exactly_once
    assert len(outcome.settled) + len(outcome.denied) == N_ARRIVALS
    assert len(outcome.recoveries) == 3


def test_file_store_round_trips_the_same_run(chaos_zoo, tmp_path):
    """The file-backed store recovers identically to the in-memory one."""
    results = {}
    for label, store in [
        ("mem", InMemoryDurableStore()),
        ("file", FileDurableStore(str(tmp_path / "wal"))),
    ]:
        harness, outcome = run_sweep_point(chaos_zoo, store, "mid_batch")
        assert_invariants(harness, outcome, "mid_batch")
        # Task uuids are process-global, so key on each request's args
        # (the arrival index) rather than the uuid.
        results[label] = {
            r.request.args[0]: round(r.latency, 9)
            for r in outcome.settled.values()
        }
    assert results["mem"] == results["file"]


def test_unarmed_injector_is_a_pure_counter(chaos_zoo):
    """With no crash plans the chaos run completes like a normal serve
    (and the injection points count visits without firing)."""
    harness, tokens = build_chaos_harness(chaos_zoo, InMemoryDurableStore())
    outcome = harness.run(alternating_arrivals(tokens, n=10))
    assert outcome.crashes == []
    assert harness.incarnations == 1
    assert outcome.exactly_once
    assert harness.injector.trip_counts["post_admission"] >= 10
    assert harness.injector.crashes_fired == 0


def test_a_crash_between_batch_items_keeps_every_journaled_admission(chaos_zoo):
    """The synchronous batch path closes the door an arrival uses, so it
    is exposed to the same crash point: ``post_admission`` fires once per
    item after the call has journaled all of them, so dying at the second
    item's visit leaves all three items open, and none settled."""
    testbed = build_testbed(jitter=False, memoize_tm=False)
    store = InMemoryDurableStore()
    gateway = testbed.enable_gateway(durable_store=store)
    published = testbed.management.publish(testbed.token, chaos_zoo["noop"])
    gateway.runtime.place(chaos_zoo["noop"], published.build.image)
    gateway.chaos = injector = FaultInjector(testbed.clock)
    injector.plan(CrashPlan("post_admission", after_trips=2))
    injector.arm_next()
    items = [TaskRequest("noop", args=(i,)) for i in range(3)]
    with pytest.raises(SimulatedCrash):
        gateway.invoke_sync_many(items, identity=testbed.user)
    state, _ = load_state(store)
    assert sorted(state.open) == sorted(r.task_uuid for r in items)
    assert state.settled == 0
    assert injector.trip_counts["post_admission"] == 2
