"""Replay-equivalence property: for ANY randomized interleaving of
queue operations, crashing at ANY journal offset and folding the
persisted prefix reconstructs exactly the state a never-crashed queue
held at that offset.

The probe is :meth:`SystemState.fingerprint` (the fold's view) against
:meth:`TaskQueue.dump_state` (the live queue's view), captured after
every operation. One journal record per public operation means offset
``k`` *is* the state after operation ``k`` — no sub-operation crash
window exists by construction.

The walk plays both producers: direct puts, whose record carries the
body, and gateway-style door calls. A door call admits a few requests
and releases a prefix of them, whose puts carry their admits; the
journal then writes a standalone ``admit`` for each request the lane
kept, and a later release of one of those — like every back-dated
re-put of a reclaimed request — carries only the ``dispatch_tag``
stamped since.

Nothing folds on the write path, so the snapshot the journal writes
from the live queue must equal the fold of the records it covers. The
walks check that at every operation boundary; a walk that drives a real
gateway, and a chaos run crashed at every injection point, check it at
every snapshot the gateway writes.
"""

from __future__ import annotations

import copy
import json
from unittest import mock

import pytest

from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.durability import (
    CrashPlan,
    InMemoryDurableStore,
    Journal,
    SystemState,
    decode_body,
    load_state,
)
from repro.durability.codec import decode_doc, encode_doc
from repro.gateway import TenantPolicy, TenantPolicyTable
from repro.gateway.gateway import DRAIN_DEADLINE_S
from repro.messaging.queue import QueueEmpty, TaskQueue
from repro.sim.clock import VirtualClock
from repro.sim.rng import generator_from_seed

from .conftest import (
    alternating_arrivals,
    build_chaos_harness,
    journal_records,
    snapshot_if_due,
)

TOPICS = ("servable/requests/alpha", "servable/tenant-t1/alpha", "beta")


def decoded(doc: dict) -> dict:
    """A snapshot document with each message's body decoded and its
    ``dispatch_tag`` applied, then put through JSON so that lists and
    tuples compare alike. The fold keeps an admitted request's body as
    admitted plus the tag; a live snapshot re-encodes the body of a
    message whose request has already settled. Both decode alike."""
    messages = []
    for message in doc["messages"]:
        message = dict(message)
        body = decode_body(message["body"])
        if "dispatch_tag" in message:
            body.dispatch_tag = message.pop("dispatch_tag")
        message["body"] = vars(body)
        messages.append(message)
    return json.loads(json.dumps(dict(doc, messages=messages), default=bytes.hex))


def canonical(doc: dict) -> str:
    """A document as sorted-keys JSON, bytes as hex: pickled bytes
    depend on dict order and object sharing, this text does not."""
    return json.dumps(doc, sort_keys=True, default=bytes.hex)


def random_walk(seed: int, n_ops: int, journal: Journal, queue: TaskQueue, clock):
    """Drive ``queue`` through ``n_ops`` random operations, returning
    ``{journal_offset: dump_state}`` captured after each journaled
    record, and ``{journal_offset: decoded snapshot_doc}`` at each
    operation boundary (a snapshot is written there when one is due).

    Dumps are deep copies: a reclaimed request is re-stamped in place,
    which must not reach back into the dumps of earlier offsets.
    """
    rng = generator_from_seed(seed)
    withdrawn_held = []
    lane_held = []
    open_uuids = []
    dumps = {journal.last_seq: copy.deepcopy(queue.dump_state())}
    docs = {journal.last_seq: decoded(journal.snapshot_doc(queue))}
    body_i = 0

    def random_topic():
        return TOPICS[int(rng.integers(len(TOPICS)))]

    def new_request(**fields):
        # Explicit ids: the process-global counters would make two walks
        # of one seed differ.
        return TaskRequest(
            "alpha",
            args=(body_i,),
            task_uuid=f"walk-{seed}-{body_i}",
            **fields,
        )

    def stamp(request):
        request.dispatch_tag = float(rng.integers(1, 10_000)) / 8.0
        return request

    def some_of(members):
        # One to three distinct members, as one batch acks or settles.
        k = int(rng.integers(1, min(3, len(members)) + 1))
        return [members[int(i)] for i in rng.choice(len(members), k, replace=False)]

    for _ in range(n_ops):
        op = rng.choice(
            [
                "put", "door", "release", "claim", "claim_many", "ack", "nack",
                "withdraw", "restore", "reput", "settle",
            ],
            p=[0.14, 0.14, 0.06, 0.11, 0.07, 0.13, 0.10, 0.09, 0.04, 0.08, 0.04],
        )
        if rng.random() < 0.3:
            clock.advance(float(rng.integers(1, 50)) / 1000.0)
        try:
            if op == "put":
                # A direct producer: untagged and hand-tagged requests
                # alike journal their body in the put.
                body_i += 1
                body = new_request()
                if rng.random() < 0.4:
                    stamp(body)
                queue.put(body, topic=random_topic())
            elif op == "door":
                # The gateway's order: admit one to three requests
                # (bodies encoded here, still untagged), release a FIFO
                # prefix of them — each release stamps the tag and puts,
                # carrying the admit — then close the door, writing a
                # standalone admit for each request the lane keeps.
                admitted = []
                for _ in range(int(rng.integers(1, 4))):
                    body_i += 1
                    request = new_request(tenant="t1")
                    journal.hold_admit(
                        request.task_uuid,
                        ["t1", "alpha", clock.now(), 1.0, journal.encode_body(request)],
                    )
                    admitted.append(request)
                released = int(rng.integers(0, len(admitted) + 1))
                for request in admitted[:released]:
                    queue.put(stamp(request), topic=random_topic())
                    dumps[journal.last_seq] = copy.deepcopy(queue.dump_state())
                flushed_from = journal.last_seq + 1
                journal.flush_admits()
                for seq in range(flushed_from, journal.last_seq + 1):
                    dumps[seq] = copy.deepcopy(queue.dump_state())
                lane_held.extend(admitted[released:])
                open_uuids.extend(request.task_uuid for request in admitted)
            elif op == "release":
                # A lane-held request released by a later pump: its
                # admit is open, so the put carries only the tag.
                if not lane_held:
                    continue
                queue.put(stamp(lane_held.pop(0)), topic=random_topic())
            elif op == "claim":
                queue.claim(random_topic())
            elif op == "claim_many":
                queue.claim_many(random_topic(), int(rng.integers(1, 5)))
            elif op == "ack":
                tags = sorted(queue._inflight)
                if not tags:
                    continue
                queue.ack(*some_of(tags))
            elif op == "nack":
                tags = sorted(queue._inflight)
                if not tags:
                    continue
                queue.nack(
                    tags[int(rng.integers(len(tags)))],
                    requeue=bool(rng.random() < 0.65),
                )
            elif op == "withdraw":
                got = queue.withdraw_newest(random_topic(), int(rng.integers(1, 4)))
                withdrawn_held.extend(got)
                if not got:
                    continue  # nothing journaled, no new offset
            elif op == "restore":
                if not withdrawn_held:
                    continue
                queue.restore(
                    withdrawn_held.pop(int(rng.integers(len(withdrawn_held))))
                )
            elif op == "reput":
                # A reclaimed request re-released: a back-dated,
                # uncounted put of the same body under a fresh tag.
                if not withdrawn_held:
                    continue
                message = withdrawn_held.pop(int(rng.integers(len(withdrawn_held))))
                queue.put(stamp(message.body), topic=message.topic, enqueued_at=message.enqueued_at)
            elif op == "settle":
                # Any open request may settle — even one whose message
                # is still queued (a result can outrun a redelivery).
                if not open_uuids:
                    continue
                settled = some_of(open_uuids)
                journal.settle(settled)
                open_uuids = [uuid for uuid in open_uuids if uuid not in settled]
        except QueueEmpty:
            continue
        dumps[journal.last_seq] = copy.deepcopy(queue.dump_state())
        docs[journal.last_seq] = decoded(journal.snapshot_doc(queue))
        snapshot_if_due(journal, queue)
    return dumps, docs


def build_walk(seed: int, n_ops: int = 240, snapshot_every: int = 10**9):
    clock = VirtualClock()
    store = InMemoryDurableStore()
    journal = Journal(store, snapshot_every_records=snapshot_every)
    queue = TaskQueue(clock)
    queue.attach_journal(journal)
    dumps, docs = random_walk(seed, n_ops, journal, queue, clock)
    return store, journal, queue, dumps, docs


def prefix(store, offset):
    """A store holding the first ``offset`` records of ``store``'s
    (snapshot-free) journal: what a crash at that offset leaves."""
    truncated = InMemoryDurableStore()
    for i, line in enumerate(store.read_journal()[:offset]):
        truncated.append(i + 1, line)
    return truncated


@pytest.mark.parametrize("seed", [7, 23, 1019])
class TestReplayEquivalence:
    def test_fold_tracks_live_queue(self, seed):
        store, journal, queue, dumps, _ = build_walk(seed)
        state, _ = load_state(store)
        assert state.fingerprint(decode_body) == queue.dump_state()
        assert journal.last_seq in dumps

        # The walk really mixed every put shape, standalone admits,
        # re-puts and dead letters.
        puts = journal_records(store, "put")
        assert any(put["body"] is not None for put in puts)
        assert any(put["admit"] is not None for put in puts)
        assert any(
            put["body"] is None and put["admit"] is None and put["counted"]
            for put in puts
        )
        assert any(put["body"] is None and not put["counted"] for put in puts)
        assert journal_records(store, "admit")
        assert queue.dump_state()["dead"]
        # ... and batch acks and settles naming several members.
        assert any(len(a["delivery_tags"]) > 1 for a in journal_records(store, "ack"))
        settles = journal_records(store, "settle")
        assert any(len(s["task_uuids"]) > 1 for s in settles)
        assert state.settled == journal.settled == sum(
            len(s["task_uuids"]) for s in settles
        )

    def test_crash_at_every_journal_offset_replays_the_exact_state(self, seed):
        store, journal, queue, dumps, _ = build_walk(seed)
        lines = store.read_journal()
        assert len(lines) == journal.last_seq  # no snapshot: every record kept
        for offset in range(len(lines) + 1):
            state, report = load_state(prefix(store, offset))
            assert not report.truncated_tail
            assert report.records_replayed == offset
            assert state.fingerprint(decode_body) == dumps[offset], (
                f"seed={seed} offset={offset}"
            )
            # ... and so does a snapshot taken at that offset.
            reloaded = SystemState.from_doc(decode_doc(encode_doc(state.to_doc())))
            assert reloaded.fingerprint(decode_body) == dumps[offset], (
                f"seed={seed} offset={offset} (snapshot round trip)"
            )

    def test_live_snapshot_equals_the_fold_at_every_boundary(self, seed):
        store, _, _, _, docs = build_walk(seed)
        for offset, doc in docs.items():
            state, _ = load_state(prefix(store, offset))
            assert decoded(state.to_doc()) == doc, f"seed={seed} offset={offset}"
        # The walk withdrew messages it never restored, so boundaries
        # with withdrawn messages — and acked or dead open requests —
        # were compared too.
        assert any(doc["withdrawn"] for doc in docs.values())
        opened = [entry for doc in docs.values() for _, entry in doc["open"]]
        assert any(entry["acked"] for entry in opened)
        assert any(entry["dead"] for entry in opened)

    def test_snapshot_cadence_changes_nothing(self, seed):
        _, _, queue_a, _, _ = build_walk(seed)
        store_b, journal_b, queue_b, _, _ = build_walk(seed, snapshot_every=7)
        assert journal_b.snapshots_taken > 0
        assert queue_b.dump_state() == queue_a.dump_state()
        state, report = load_state(store_b)
        assert report.snapshot_used
        assert state.fingerprint(decode_body) == queue_a.dump_state()

    def test_settled_and_open_survive_replay(self, seed):
        store, journal, queue, _, _ = build_walk(seed, n_ops=40)
        body = journal.encode_body(TaskRequest("alpha", task_uuid="task-x"))
        journal.hold_admit("task-x", ["t1", "alpha", 1.25, 2.0, body])
        journal.flush_admits()
        settled_before = journal.settled
        journal.settle(["task-x"])
        state, _ = load_state(store)
        assert "task-x" not in state.open
        assert state.settled == journal.settled == settled_before + 1
        assert state.to_doc()["open"] == journal.snapshot_doc(queue)["open"]


@pytest.fixture
def snapshots_checked(monkeypatch):
    """Check every snapshot the journal writes against the fold of the
    records it covers — byte for byte in :func:`canonical` form, the
    bodies' bytes included: through the gateway, no message outlives
    its request's settle. Returns the checked documents."""
    checked = []
    snapshot_now = Journal.snapshot_now

    def checking_snapshot_now(journal, queue):
        folded, _ = load_state(journal.store)
        live = canonical(journal.snapshot_doc(queue))
        assert live == canonical(folded.to_doc())
        checked.append(json.loads(live))
        return snapshot_now(journal, queue)

    monkeypatch.setattr(Journal, "snapshot_now", checking_snapshot_now)
    return checked


@pytest.mark.parametrize("seed", [3, 11])
def test_gateway_walk_snapshots_equal_the_fold(chaos_zoo, snapshots_checked, seed):
    # A real gateway over three workers: offers from two tenants, foreign
    # submits on their lanes, and a fleet that shrinks past the drain
    # deadline — so the over-commit valve withdraws gateway releases and
    # restores the foreign messages it digs past.
    rng = generator_from_seed(seed)
    testbed = build_testbed(jitter=False, memoize_tm=False)
    policies = TenantPolicyTable()
    tokens = {}
    for tenant in ("alice", "bob"):
        policies.register(TenantPolicy(name=tenant))
        identity, tokens[tenant] = testbed.new_user(tenant)
        policies.bind_identity(identity, tenant)
    store = InMemoryDurableStore()
    gateway = testbed.enable_gateway(
        policies=policies,
        workers=[testbed.add_fleet_worker(f"w{i}") for i in range(3)],
        max_batch_size=4,
        durable_store=store,
        snapshot_every_records=5,
    )
    published = testbed.management.publish(testbed.token, chaos_zoo["noop"])
    gateway.runtime.place(chaos_zoo["noop"], published.build.image, copies=3)
    runtime = gateway.runtime
    restore = mock.patch.object(
        TaskQueue, "restore", autospec=True, side_effect=TaskQueue.restore
    )
    with restore as restored:
        for i in range(80):
            step = rng.choice(
                ["offer", "squeeze", "grow", "tick", "serve"], p=[0.5, 0.15, 0.1, 0.1, 0.15]
            )
            tenant = ("alice", "bob")[int(rng.integers(2))]
            if step == "offer":
                for k in range(int(rng.integers(1, 4))):
                    request = TaskRequest("noop", args=(i, k))
                    assert gateway.offer(request, token=tokens[tenant]).admitted
            elif step == "squeeze":
                # A foreign request lands on a lane tail, then two workers
                # drop out and stay out past the drain deadline.
                request = TaskRequest("noop", args=("foreign", i))
                request.tenant = tenant
                runtime.submit(request)
                runtime.mark_down("w1")
                runtime.mark_down("w2")
                testbed.clock.advance(DRAIN_DEADLINE_S)
                gateway.on_tick(testbed.clock.now())
            elif step == "grow":
                runtime.mark_up("w1")
                runtime.mark_up("w2")
            elif step == "tick":
                gateway.on_tick(testbed.clock.now())
            else:
                runtime.drain()
        runtime.drain()
    assert gateway.requests_reclaimed > 0 and restored.call_count > 0
    assert len(snapshots_checked) > 10
    assert any(doc["withdrawn"] for doc in snapshots_checked)
    state, _ = load_state(store)
    assert state.fingerprint(decode_body) == runtime.queue.dump_state()


def test_snapshots_across_crashes_equal_the_fold(chaos_zoo, snapshots_checked):
    # Every recovery resumes the journal's tables from the replayed
    # state; the snapshots written after it must still equal the fold,
    # resurrected (acked but unsettled) requests included.
    harness, tokens = build_chaos_harness(
        chaos_zoo, InMemoryDurableStore(), snapshot_every_records=7
    )
    plans = tuple(
        CrashPlan(point, after_trips=2)
        for point in ("pre_settle", "mid_batch", "post_admission", "mid_snapshot", "post_claim")
    )
    outcome = harness.run(
        alternating_arrivals(tokens, n=150, rate_rps=300.0), plans=plans
    )
    assert [c.point for c in outcome.crashes] == [plan.point for plan in plans]
    assert outcome.exactly_once
    assert sum(r["restored_resurrected"] for r in outcome.recoveries) > 0
    assert len(snapshots_checked) > 10
    assert any(
        entry["acked"] for doc in snapshots_checked for _, entry in doc["open"]
    )
