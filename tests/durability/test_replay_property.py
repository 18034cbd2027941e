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
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.tasks import TaskRequest
from repro.durability import (
    InMemoryDurableStore,
    Journal,
    SystemState,
    decode_body,
    load_state,
)
from repro.messaging.queue import QueueEmpty, TaskQueue
from repro.sim.clock import VirtualClock
from repro.sim.rng import generator_from_seed

from .conftest import journal_records

TOPICS = ("servable/requests/alpha", "servable/tenant-t1/alpha", "beta")


def random_walk(seed: int, n_ops: int, journal: Journal, queue: TaskQueue, clock):
    """Drive ``queue`` through ``n_ops`` random operations, returning
    ``{journal_offset: dump_state}`` captured after each journaled op.

    Dumps are deep copies: a reclaimed request is re-stamped in place,
    which must not reach back into the dumps of earlier offsets.
    """
    rng = generator_from_seed(seed)
    withdrawn_held = []
    lane_held = []
    dumps = {journal.last_seq: copy.deepcopy(queue.dump_state())}
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
            sequence=body_i,
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
                # A direct producer: plain payloads and hand-tagged
                # requests alike journal their body in the put.
                body_i += 1
                body = f"body-{seed}-{body_i}"
                if rng.random() < 0.4:
                    body = stamp(new_request())
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
                        {
                            "tenant": "t1",
                            "servable": "alpha",
                            "arrived_at": clock.now(),
                            "weight": 1.0,
                            "body": journal.encode_body(request),
                        },
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
                body = message.body
                if isinstance(body, TaskRequest):
                    stamp(body)
                queue.put(body, topic=message.topic, enqueued_at=message.enqueued_at)
            elif op == "settle":
                # Any open request may settle — even one whose message
                # is still queued (a result can outrun a redelivery).
                uuids = list(journal.state.open)
                if not uuids:
                    continue
                journal.append("settle", {"task_uuids": some_of(uuids)})
        except QueueEmpty:
            continue
        dumps[journal.last_seq] = copy.deepcopy(queue.dump_state())
    return dumps


def build_walk(seed: int, n_ops: int = 240, snapshot_every: int = 10**9):
    clock = VirtualClock()
    store = InMemoryDurableStore()
    journal = Journal(store, snapshot_every_records=snapshot_every)
    queue = TaskQueue(clock, visibility_timeout_s=1e9, max_deliveries=3)
    queue.attach_journal(journal)
    dumps = random_walk(seed, n_ops, journal, queue, clock)
    return store, journal, queue, dumps


@pytest.mark.parametrize("seed", [7, 23, 1019])
class TestReplayEquivalence:
    def test_shadow_fold_tracks_live_queue_exactly(self, seed):
        store, journal, queue, dumps = build_walk(seed)
        assert journal.state.fingerprint(decode_body) == queue.dump_state()
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
        assert journal.state.settled == sum(len(s["task_uuids"]) for s in settles)

    def test_crash_at_every_journal_offset_replays_the_exact_state(self, seed):
        store, journal, queue, dumps = build_walk(seed)
        lines = store.read_journal()
        assert len(lines) == journal.last_seq  # no snapshot: every record kept
        for offset in range(len(lines) + 1):
            truncated = InMemoryDurableStore()
            for i, line in enumerate(lines[:offset]):
                truncated.append(i + 1, line)
            state, report = load_state(truncated)
            assert not report.truncated_tail
            assert report.records_replayed == offset
            assert state.fingerprint(decode_body) == dumps[offset], (
                f"seed={seed} offset={offset}"
            )
            # ... and so does a snapshot taken at that offset.
            reloaded = SystemState.from_doc(json.loads(json.dumps(state.to_doc())))
            assert reloaded.fingerprint(decode_body) == dumps[offset], (
                f"seed={seed} offset={offset} (snapshot round trip)"
            )

    def test_snapshot_cadence_changes_nothing(self, seed):
        _, journal_a, queue_a, _ = build_walk(seed)
        store_b, journal_b, queue_b, _ = build_walk(seed, snapshot_every=7)
        assert journal_b.snapshots_taken > 0
        assert queue_b.dump_state() == queue_a.dump_state()
        state, report = load_state(store_b)
        assert report.snapshot_used
        assert state.fingerprint(decode_body) == queue_a.dump_state()

    def test_settled_and_open_survive_replay(self, seed):
        store, journal, _, _ = build_walk(seed, n_ops=40)
        journal.append(
            "admit",
            {
                "task_uuid": "task-x",
                "tenant": "t1",
                "servable": "alpha",
                "arrived_at": 1.25,
                "weight": 2.0,
                "body": journal.encode_body("req-x"),
            },
        )
        settled_before = journal.state.settled
        journal.append("settle", {"task_uuids": ["task-x"]})
        state, _ = load_state(store)
        assert "task-x" not in state.open
        assert state.settled == journal.state.settled == settled_before + 1
        assert state.open == journal.state.open
