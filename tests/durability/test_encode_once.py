"""The journal's append path does each piece of work once: nothing is
folded, a request's body is pickled exactly once on its way through
the stack, its admission is written in its own record only when its
lane kept it past the admitting call (pinned as exact record counts),
and a recovered
queue still holds exactly what the crashed one held — the
``dispatch_tag`` stamped after the body was encoded included."""

from __future__ import annotations

from collections import Counter
from unittest import mock

from repro.core.tasks import TaskRequest
from repro.durability import (
    InMemoryDurableStore,
    Journal,
    SystemState,
    begin_recovery,
    codec,
    gateway_restore_entries,
    materialize_queue,
)

from .conftest import alternating_arrivals, build_chaos_harness, journal_records

N_REQUESTS = 24


def spy_on_encode_body():
    """Count body encodings where the queue and the gateway reach them."""
    return mock.patch.object(Journal, "encode_body", wraps=codec.encode_body)


def test_gateway_admitted_requests_are_pickled_once_each(chaos_zoo):
    store = InMemoryDurableStore()
    harness, tokens = build_chaos_harness(chaos_zoo, store, snapshot_every_records=10**9)
    arrivals = alternating_arrivals(tokens, n=N_REQUESTS)
    with spy_on_encode_body() as encode_body:
        outcome = harness.run(arrivals)
    assert len(outcome.settled) == N_REQUESTS
    encoded = [call.args[0].task_uuid for call in encode_body.call_args_list]
    assert sorted(encoded) == sorted(req.task_uuid for _, _, req in arrivals)

    # Every request was released by the offer that admitted it, so its
    # put carries the admission (and its body); the put itself carries
    # only the dispatch tag.
    puts = journal_records(store, "put")
    assert journal_records(store, "admit") == []
    assert len(puts) == N_REQUESTS
    assert all(
        put["body"] is None and put["dispatch_tag"] is not None and put["admit"]
        for put in puts
    )


def test_a_journaled_serve_folds_nothing(chaos_zoo, monkeypatch):
    # The write path encodes and stores: the fold runs only in replay,
    # so a journaled serve — snapshots included — never calls it.
    def fold(*args):
        raise AssertionError("SystemState.apply ran on the write path")

    monkeypatch.setattr(SystemState, "apply", fold)
    harness, tokens = build_chaos_harness(
        chaos_zoo, InMemoryDurableStore(), snapshot_every_records=5
    )
    outcome = harness.run(alternating_arrivals(tokens, n=N_REQUESTS))
    assert len(outcome.settled) == N_REQUESTS
    assert harness.journal.snapshots_taken > 0


def journal_ops(store):
    """How many records of each op the store's journal holds."""
    return Counter(op for _, op, _ in map(codec.decode_record, store.read_journal()))


def test_spaced_single_tenant_arrivals_write_no_standalone_admit(chaos_zoo):
    # Each arrival finds a free slot, so the offer that admits it also
    # releases it: one put carries the admit, and each request then
    # costs a claim, an ack and a settle of its own.
    store = InMemoryDurableStore()
    harness, tokens = build_chaos_harness(
        chaos_zoo, store, tenants=("alice",), snapshot_every_records=10**9
    )
    outcome = harness.run(alternating_arrivals(tokens, n=12, rate_rps=20.0))
    assert len(outcome.settled) == 12
    assert journal_ops(store) == {"put": 12, "claim": 12, "ack": 12, "settle": 12}
    assert all(put["admit"] is not None for put in journal_records(store, "put"))


def test_a_backlogged_lane_writes_one_standalone_admit_per_queued_request(chaos_zoo):
    # One slot for the lone tenant: the first of five offers is released
    # with its admit carried; the other four stay in the lane, and each
    # offer writes the admit of its own request before it returns.
    store = InMemoryDurableStore()
    harness, tokens = build_chaos_harness(
        chaos_zoo,
        store,
        tenants=("alice",),
        n_workers=1,
        max_batch_size=1,
        snapshot_every_records=10**9,
    )
    gateway = harness.start()
    requests = [TaskRequest("noop", args=(i,)) for i in range(5)]
    for request in requests:
        assert gateway.offer(request, token=tokens["alice"]).admitted
    assert gateway.queued_count("noop") == 4
    assert journal_ops(store) == {"put": 1, "admit": 4}
    assert [a["task_uuid"] for a in journal_records(store, "admit")] == [
        r.task_uuid for r in requests[1:]
    ]

    # Released later, the lane-held four put only their tags.
    harness.runtime.drain()
    assert journal_ops(store) == {
        "put": 5, "admit": 4, "claim": 5, "ack": 5, "settle": 5
    }
    assert [put["admit"] is not None for put in journal_records(store, "put")] == [
        True, False, False, False, False
    ]


def test_direct_submits_are_pickled_once_each_in_their_put(chaos_zoo):
    store = InMemoryDurableStore()
    harness, _ = build_chaos_harness(chaos_zoo, store, snapshot_every_records=10**9)
    harness.start()
    requests = [TaskRequest("noop", args=(i,)) for i in range(N_REQUESTS)]
    with spy_on_encode_body() as encode_body:
        for request in requests:
            harness.runtime.submit(request)
        harness.runtime.drain()
    assert [call.args[0] for call in encode_body.call_args_list] == requests
    puts = journal_records(store, "put")
    assert [put["task_uuid"] for put in puts] == [r.task_uuid for r in requests]
    assert all(put["dispatch_tag"] is None and put["admit"] is None for put in puts)
    assert [codec.decode_body(put["body"]) for put in puts] == requests


def test_recovered_queue_carries_the_pre_crash_dispatch_tags(chaos_zoo):
    store = InMemoryDurableStore()
    harness, tokens = build_chaos_harness(chaos_zoo, store)
    gateway = harness.start()
    live_trace = object()  # unpicklable, like a live tracer's internals
    for i in range(6):
        request = TaskRequest("noop", args=(i,))
        request.trace = live_trace
        tenant = ("alice", "bob")[i % 2]
        assert gateway.offer(request, token=tokens[tenant]).admitted

    # Nothing is serving, so every release sits ready: three WFQ-tagged
    # requests per tenant lane of the one servable.
    crashed = harness.queue.dump_state()["ready"]
    assert [len(msgs) for msgs in crashed.values()] == [3, 3]
    tags = {
        msg["body"].task_uuid: msg["body"].dispatch_tag
        for msgs in crashed.values()
        for msg in msgs
    }
    assert len(set(tags.values())) > 1 and None not in tags.values()

    # Crash: the serving objects die, the store survives.
    state, _journal, _report = begin_recovery(store)
    recovered = materialize_queue(state, harness.clock).dump_state()["ready"]
    assert list(recovered) == list(crashed)
    for topic, msgs in recovered.items():
        assert [m["body"].task_uuid for m in msgs] == [
            m["body"].task_uuid for m in crashed[topic]
        ]
        for msg in msgs:
            assert msg["body"].dispatch_tag == tags[msg["body"].task_uuid]
            assert msg["body"].trace is None

    # The gateway's own restore list is for lanes and slots, where the
    # new scheduler re-stamps: it hands requests back untagged.
    entries = gateway_restore_entries(state)
    assert sorted(e["task_uuid"] for e in entries) == sorted(tags)
    assert all(e["in_queue"] for e in entries)
    assert all(e["request"].dispatch_tag is None for e in entries)
    assert all(e["request"].trace is None for e in entries)
