"""Unit coverage for the durability building blocks: the record/body
codec, the :class:`Journal` write path (baseline seeding, snapshot
cadence) and the checks that guard it (the live operation's, then the
fold's at replay), the :class:`FileDurableStore` medium, and the
queue's attach/dump/load surface."""

from __future__ import annotations

import builtins
import dataclasses
import json
import pickle
import re
import struct
import zlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tasks import TaskRequest
from repro.durability import (
    FileDurableStore,
    InMemoryDurableStore,
    Journal,
    JournalCorruption,
    SystemState,
    decode_body,
    encode_body,
    load_state,
)
from repro.durability.codec import (
    BODY_FIELDS,
    CARRIED_ADMIT,
    DOC_VERSION,
    FIELDS,
    FORMAT_VERSION,
    FormatMismatch,
    decode_doc,
    decode_record,
    encode_doc,
    encode_record,
)
from repro.messaging.queue import TaskQueue, UnknownDelivery
from repro.sim.clock import VirtualClock

from .conftest import alternating_arrivals, build_chaos_harness, request, snapshot_if_due


def fresh_queue(clock=None):
    return TaskQueue(clock or VirtualClock())


# -- codec --------------------------------------------------------------------
def put_record(**fields):
    """A ``put`` record, by default one carrying its request's admit."""
    record = {
        "topic": "servable/tenant-t1/noop",
        "message_id": 7,
        "enqueued_at": 0.5,
        "counted": True,
        "task_uuid": "u7",
        "body": None,
        "dispatch_tag": 2.5,
        "admit": {
            "tenant": "t1",
            "servable": "noop",
            "arrived_at": 0.25,
            "weight": 1.0,
            "body": b"\x80\x05\x95",
        },
    }
    record.update(fields)
    return record


def positional(op, data):
    """``data`` as a record holds it: the values of ``op``'s field tuple
    in order, a carried admit nested the same way — or ``data`` itself,
    keyed, for an op without a field tuple."""
    if op not in FIELDS:
        return data
    values = [data[name] for name in FIELDS[op]]
    if op == "put" and data["admit"] is not None:
        values[-1] = [data["admit"][name] for name in CARRIED_ADMIT]
    return values


def framed(version, obj):
    """Format 7's frame, spelled out: version byte, CRC-32 of the
    payload (little-endian), then the protocol-5 pickle of ``obj``."""
    payload = pickle.dumps(obj, protocol=5)
    return struct.pack("<BI", version, zlib.crc32(payload)) + payload


def test_record_codec_round_trips():
    record = encode_record(7, "put", positional("put", put_record()))
    assert decode_record(record) == (7, "put", put_record())


def test_record_codec_rejects_stale_crc():
    values = positional("put", put_record(admit=None))
    record = encode_record(7, "put", values)
    values[1] = 8  # the message id
    tampered = record[:5] + pickle.dumps((7, "put", values), protocol=5)
    with pytest.raises(JournalCorruption, match="crc mismatch on journal record"):
        decode_record(tampered)


@pytest.mark.parametrize(
    "rec, error",
    [
        ((1, "ack", {"delivery_tags": [1]}), "malformed journal record fields"),
        ((1, "settle", [["u1"], "extra"]), "malformed journal record fields"),
        ((1, "put", [*positional("put", put_record())[:-1], ["t1"]]), "carried admit"),
        (("1", "settle", [["u1"]]), "malformed journal record fields"),
        ([1, "ack", [[1]]], "malformed journal record"),
        ((1, "ack"), "malformed journal record"),
    ],
)
def test_a_positional_record_of_the_wrong_shape_fails_loud(rec, error):
    # Framed with a valid CRC, but not the shape a record has.
    with pytest.raises(JournalCorruption, match=error):
        decode_record(framed(FORMAT_VERSION, rec))


def test_a_frame_that_is_no_pickle_or_too_short_fails_loud():
    payload = b"not a pickle"
    record = struct.pack("<BI", FORMAT_VERSION, zlib.crc32(payload)) + payload
    with pytest.raises(JournalCorruption, match="unparseable journal record"):
        decode_record(record)
    for short in (b"", record[:4]):
        with pytest.raises(JournalCorruption, match="no whole header"):
            decode_record(short)


@pytest.mark.parametrize(
    "blob, decode, found, expected",
    [
        (b'{"crc":1,"rec":[1,"ack",[[1]]],"v":5}', decode_record, 5, 7),
        (b'{"crc":1,"rec":[1,"ack",{"delivery_tags":[1]}],"v":1}', decode_record, 1, 7),
        (framed(6, (1, "ack", [[1]])), decode_record, 6, 7),
        (framed(8, (1, "ack", [[1]])), decode_record, 8, 7),
        (b'{"v":4,"messages":[]}', decode_doc, 4, 6),
        (framed(5, {}), decode_doc, 5, 6),
        (framed(7, {}), decode_doc, 7, 6),
    ],
    ids=[
        "json-line-5",
        "json-line-1",
        "binary-6",
        "binary-8",
        "json-snapshot-4",
        "binary-snapshot-5",
        "binary-snapshot-7",
    ],
)
def test_another_format_version_is_refused_naming_both(blob, decode, found, expected):
    with pytest.raises(FormatMismatch, match=f"format version {found}, expected {expected}"):
        decode(blob)


CORPUS = [
    (1, "ack", {"delivery_tags": [43, 44]}),
    (2, "settle", {"task_uuids": ["tâche-é-日本語-\U0001f600", "u2"]}),
    (3, "claim", {"topic": "t", "claims": [[1, 2], [3, 4]], "claimed_at": 1e-07}),
    (4, "put", put_record(enqueued_at=2.5e-300, dispatch_tag=1e22, counted=False)),
    (5, "recover", {"released": {"t/b": [2], "t/a": [9, 1]}, "dead": [], "dropped": []}),
    (
        6,
        "put",
        put_record(
            topic="quote\"d\\topic",
            task_uuid="line\nbreak\ttab",
            body=encode_body(TaskRequest("noop", args=(1,), task_uuid="u6")),
            dispatch_tag=-0.0,
            admit=None,
        ),
    ),
    (2**40, "baseline", {}),
]


@pytest.mark.parametrize("seq, op, data", CORPUS)
def test_every_single_byte_change_is_refused(seq, op, data):
    # The version byte names another format; a change anywhere else
    # breaks the CRC, which catches every burst of up to 32 bits. No
    # change decodes, let alone into some other record.
    record = encode_record(seq, op, positional(op, data))
    assert decode_record(record) == (seq, op, data)
    for i in range(len(record)):
        for mask in range(1, 256):
            damaged = bytearray(record)
            damaged[i] ^= mask
            with pytest.raises(JournalCorruption):
                decode_record(bytes(damaged))


def test_every_single_byte_change_of_a_snapshot_is_refused(chaos_zoo):
    store = InMemoryDurableStore()
    harness, tokens = build_chaos_harness(chaos_zoo, store, snapshot_every_records=10**9)
    harness.run(alternating_arrivals(tokens, n=4))
    harness.journal.snapshot_now(harness.queue)
    snapshot = store.read_snapshot()
    assert SystemState.from_doc(decode_doc(snapshot)).settled == 4
    for i in range(len(snapshot)):
        for mask in (0x01, 0x80, 0xFF):
            damaged = bytearray(snapshot)
            damaged[i] ^= mask
            with pytest.raises(JournalCorruption):
                decode_doc(bytes(damaged))


#: Any value a record or document may hold (NaN aside: it equals nothing).
VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text()
    | st.binary(max_size=16),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
#: What a keyed record holds: ``baseline`` counters, a ``recover`` plan.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@given(
    seq=st.integers(min_value=1),
    op=st.text().filter(lambda op: op not in FIELDS),
    data=st.dictionaries(st.text(), JSON_VALUES, max_size=5),
)
def test_record_codec_round_trips_any_json_data(seq, op, data):
    # An op without a field tuple (``baseline``, ``recover``) is keyed.
    assert decode_record(encode_record(seq, op, data)) == (seq, op, data)


def positional_records():
    """Any record of an op with a field tuple, a put with or without a
    carried admit."""

    def record(op):
        values = {name: VALUES for name in FIELDS[op]}
        if op == "put":
            values["admit"] = st.none() | st.fixed_dictionaries(
                {name: VALUES for name in CARRIED_ADMIT}
            )
        return st.tuples(st.just(op), st.fixed_dictionaries(values))

    return st.sampled_from(sorted(FIELDS)).flatmap(record)


@given(seq=st.integers(min_value=1), record=positional_records())
def test_positional_record_codec_round_trips_any_values(seq, record):
    op, data = record
    assert decode_record(encode_record(seq, op, positional(op, data))) == (seq, op, data)


@given(
    seq=st.integers(min_value=0),
    record=positional_records()
    | st.tuples(st.sampled_from(["baseline", "recover"]), st.dictionaries(st.text(), VALUES)),
)
def test_the_encoder_frames_one_pickle_of_the_record(seq, record):
    # Format 7, spelled out by :func:`framed`: no other encoding of a
    # record decodes.
    op, data = record
    values = positional(op, data)
    assert FORMAT_VERSION == 7
    assert encode_record(seq, op, values) == framed(7, (seq, op, values))


@given(doc=st.dictionaries(st.text(), VALUES, max_size=6))
def test_the_encoder_frames_one_pickle_of_a_document(doc):
    assert DOC_VERSION == 6
    assert encode_doc(doc) == framed(6, doc)
    assert decode_doc(encode_doc(doc)) == doc


ARG = st.recursive(
    st.text() | st.integers() | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)
ARRAY = st.lists(st.floats(allow_nan=False), max_size=5).map(np.array)


@st.composite
def requests(draw):
    """A request as the stack builds one, its id explicit (so no task
    counter moves)."""
    maybe_text = st.none() | st.text(max_size=8)
    return TaskRequest(
        draw(st.text(min_size=1, max_size=8)),
        args=draw(st.lists(ARG | ARRAY, max_size=4).map(tuple)),
        kwargs=draw(st.dictionaries(st.text(max_size=5), ARG | ARRAY, max_size=3)),
        identity_id=draw(maybe_text),
        tenant=draw(maybe_text),
        dispatch_tag=draw(st.none() | st.floats(allow_nan=False)),
        batch=draw(st.none() | st.lists(ARG, max_size=3)),
        task_uuid=draw(st.text(min_size=1, max_size=12)),
    )


def same(a, b):
    """Equal as pickled bytes: exact, and defined for numpy arrays."""
    return pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
        b, protocol=pickle.HIGHEST_PROTOCOL
    )


@given(request=requests())
def test_body_codec_round_trips_any_request(request):
    decoded = decode_body(encode_body(request))
    assert type(decoded) is TaskRequest
    assert list(vars(decoded)) == list(vars(request)) == list(BODY_FIELDS)
    for name, value in vars(request).items():
        assert same(getattr(decoded, name), value), name
    # The Management Service models transfer time from a request's
    # pickled size, so the decoded request must pickle as the original.
    assert same(decoded, request)


def test_body_codec_round_trips_requests():
    request = TaskRequest("noop", args=(1, "x"), kwargs={"k": 2.5})
    decoded = decode_body(encode_body(request))
    assert vars(decoded) == vars(request)


def test_a_body_is_the_pickled_tuple_of_its_field_values():
    request = TaskRequest("noop", args=(1,), task_uuid="u1")
    values = pickle.loads(encode_body(request))
    assert values == ("noop", (1,), {}, None, None, None, None, "u1")


def test_decoding_a_body_moves_no_task_counter():
    body = encode_body(TaskRequest("noop", args=(1,)))
    before = TaskRequest("noop")
    decode_body(body)
    after = TaskRequest("noop")
    assert int(after.task_uuid[5:]) == int(before.task_uuid[5:]) + 1


def test_corrupt_body_fails_loud():
    with pytest.raises(JournalCorruption, match="undecodable message body"):
        decode_body(b"definitely not a pickle")


@pytest.mark.parametrize(
    "value",
    [TaskRequest("noop", task_uuid="u"), ("noop", (1,))],
    ids=["version-4 body", "short tuple"],
)
def test_a_body_that_is_not_a_request_field_tuple_fails_loud(value):
    # A version-4 body pickled the request itself, not its field tuple.
    with pytest.raises(JournalCorruption, match="undecodable message body"):
        decode_body(pickle.dumps(value))


# -- journal write path -------------------------------------------------------
def test_a_bad_ack_is_refused_before_it_is_journaled():
    # The journal only encodes and stores: the live ack refuses an
    # unknown or repeated tag before it changes or journals anything.
    store = InMemoryDurableStore()
    queue = fresh_queue()
    queue.attach_journal(Journal(store))
    queue.put(request(0), topic="t")
    tag = queue.claim("t").delivery_tag
    lines = store.read_journal()
    for tags in ((99,), (tag, 99), (tag, tag)):
        with pytest.raises(UnknownDelivery):
            queue.ack(*tags)
    assert store.read_journal() == lines  # no bad record hit the medium
    assert queue.inflight_count == 1


SubRequest = dataclasses.make_dataclass("SubRequest", [], bases=(TaskRequest,))


@pytest.mark.parametrize(
    "body",
    [
        "payload",
        SimpleNamespace(task_uuid="req-0", dispatch_tag=None),
        SubRequest("noop", task_uuid="s"),
    ],
    ids=["str", "look-alike", "subclass"],
)
def test_a_journaled_queue_refuses_a_body_that_is_not_a_request(body):
    # Only a TaskRequest is journaled; anything else is refused before
    # the queue or the journal changes.
    store = InMemoryDurableStore()
    journal = Journal(store)
    queue = fresh_queue()
    queue.attach_journal(journal)
    queue.put(request(0), topic="t")
    before = queue.dump_state()
    with pytest.raises(TypeError, match="only a TaskRequest body is journaled"):
        queue.put(body, topic="t")
    assert journal.last_seq == 1 and len(store.read_journal()) == 1
    assert queue.ready_count("t") == 1 and len(queue) == 1
    assert queue.dump_state() == before
    queue.put(request(1), topic="t")  # the message id was not spent
    assert [m["message_id"] for m in queue.dump_state()["ready"]["t"]] == [1, 2]


def test_a_bad_restore_or_settle_is_refused_before_it_is_journaled():
    # The journal's own tables refuse what the fold used to: a restore
    # of a message never withdrawn, and a settle of a request not open.
    store = InMemoryDurableStore()
    journal = Journal(store)
    queue = fresh_queue()
    queue.attach_journal(journal)
    message = queue.put(request(0), topic="t")
    lines = store.read_journal()
    with pytest.raises(KeyError):
        queue.restore(message)
    with pytest.raises(KeyError):
        journal.settle(["task-never-admitted"])
    assert store.read_journal() == lines
    assert queue.ready_count("t") == 1
    assert journal.settled == 0


@pytest.mark.parametrize("uuids", [["a", "missing"], ["a", "a"]], ids=["unknown", "repeated"])
def test_a_refused_settle_changes_nothing(uuids):
    # A settle naming one open request and one it may not settle must
    # not drop the open one: the next snapshot would lose a request
    # that was admitted and never settled.
    store = InMemoryDurableStore()
    journal = Journal(store)
    queue = fresh_queue()
    queue.attach_journal(journal)
    journal.hold_admit("a", ["t1", "noop", 0.0, 1.0, encode_body(request(0))])
    journal.flush_admits()
    records = store.read_journal()
    with pytest.raises(KeyError):
        journal.settle(uuids)
    assert store.read_journal() == records
    assert journal.settled == 0
    journal.snapshot_now(queue)
    state, _ = load_state(store)
    assert list(state.open) == ["a"]
    journal.settle(["a"])
    assert load_state(store)[0].open == {}


def admit_record(uuid):
    return {
        "task_uuid": uuid,
        "tenant": "t1",
        "servable": "noop",
        "arrived_at": 0.0,
        "weight": 1.0,
        "body": encode_body(TaskRequest("noop", args=(uuid,))),
    }


@pytest.mark.parametrize(
    "op, data, error",
    [
        ("settle", {"task_uuids": ["u1", "ghost"]}, "non-open request 'ghost'"),
        ("settle", {"task_uuids": ["u1", "u1"]}, "names a member twice"),
        ("ack", {"delivery_tags": [1, 99]}, "unknown delivery tag 99"),
        ("ack", {"delivery_tags": [2, 2]}, "names a member twice"),
    ],
)
def test_a_rejected_list_record_leaves_the_state_untouched(op, data, error):
    # Replay checks every member before it changes anything: a record
    # naming one live and one bad member must not half-apply.
    assert_refused_whole(op, data, error)


@pytest.mark.parametrize(
    "op, data",
    [
        ("put", put_record(task_uuid="u1", topic="t", message_id=3)),
        ("admit", admit_record("u1")),
    ],
)
def test_an_admission_of_an_open_request_is_refused_whole(op, data):
    # A put carrying an admit opens its request before it enqueues; an
    # open uuid refuses the whole record, the put half included.
    assert_refused_whole(op, data, "admit at seq=5 of already-open request 'u1'")


def assert_refused_whole(op, data, error):
    """Fold ``op`` into the replay of a journal holding one open request
    ``u1`` and two claimed messages (delivery tags 1 and 2): it must
    raise ``error`` and leave the state as it was."""
    store = InMemoryDurableStore()
    journal = Journal(store)
    queue = fresh_queue()
    queue.attach_journal(journal)
    journal.append("admit", positional("admit", admit_record("u1")))
    queue.put(request(1), topic="t")
    queue.put(request(2), topic="t")
    queue.claim_many("t", 2)
    state, _ = load_state(store)
    before = json.dumps(state.to_doc(), sort_keys=True, default=bytes.hex)
    with pytest.raises(JournalCorruption, match=error):
        state.apply(state.last_seq + 1, op, data)
    assert json.dumps(state.to_doc(), sort_keys=True, default=bytes.hex) == before
    assert list(state.open) == ["u1"]


def test_seed_baseline_noops_on_fresh_counters():
    journal = Journal(InMemoryDurableStore())
    seq = journal.seed_baseline(fresh_queue().dump_state())
    assert seq is None
    assert journal.last_seq == 0


def test_seed_baseline_records_history_and_rejects_reuse():
    store = InMemoryDurableStore()
    journal = Journal(store)
    seq = journal.seed_baseline(
        {
            "total_enqueued": 5,
            "total_acked": 3,
            "total_redelivered": 1,
            "topic_enqueued": {"t": 5},
            "next_message_id": 6,
            "next_tag": 4,
        }
    )
    assert seq == 1
    state, _ = load_state(store)
    assert state.total_enqueued == 5
    assert state.next_message_id == 6
    with pytest.raises(ValueError, match="fresh journal"):
        journal.seed_baseline(fresh_queue().dump_state())


def test_snapshot_cadence_truncates_covered_records():
    store = InMemoryDurableStore()
    journal = Journal(store, snapshot_every_records=3)
    queue = fresh_queue()
    queue.attach_journal(journal)
    for i in range(7):
        queue.put(request(i), topic="t")
        snapshot_if_due(journal, queue)
    assert journal.snapshots_taken == 2  # after records 3 and 6
    assert store.snapshots == 2
    assert len(store.read_journal()) == 1  # only record 7 remains
    state, report = load_state(store)
    assert report.snapshot_used
    assert report.records_replayed == 1
    assert state.fingerprint(decode_body) == queue.dump_state()


def test_quiescent_snapshot_does_not_grow_with_run_length(chaos_zoo):
    # A drained stack's snapshot holds counters and no per-request
    # state: after 10x more traffic only the counters' digits may grow.
    store = InMemoryDurableStore()
    harness, tokens = build_chaos_harness(chaos_zoo, store)

    def drain_and_snapshot(n):
        outcome = harness.run(alternating_arrivals(tokens, n=n))
        assert outcome.exactly_once and len(outcome.settled) == n
        harness.journal.snapshot_now(harness.queue)
        return store.read_snapshot()

    short, long = drain_and_snapshot(30), drain_and_snapshot(300)
    texts = [json.dumps(decode_doc(doc), sort_keys=True) for doc in (short, long)]
    assert decode_doc(long)["settled"] == 330
    assert re.sub(r"\d+", "0", texts[1]) == re.sub(r"\d+", "0", texts[0])
    # A pickled int takes 1, 2 or 4 bytes.
    assert len(long) - len(short) <= 3 * len(re.findall(r"\d+", texts[0]))


def test_snapshot_cadence_must_be_positive():
    with pytest.raises(ValueError):
        Journal(InMemoryDurableStore(), snapshot_every_records=0)


# -- file store ---------------------------------------------------------------
def test_file_store_persists_across_instances(tmp_path):
    directory = str(tmp_path / "wal")
    store = FileDurableStore(directory)
    journal = Journal(store, snapshot_every_records=4)
    queue = fresh_queue()
    queue.attach_journal(journal)
    for i in range(6):
        queue.put(request(i), topic="t")
        snapshot_if_due(journal, queue)

    reopened = FileDurableStore(directory)
    assert reopened.read_journal() == store.read_journal()
    assert reopened.read_snapshot() == store.read_snapshot()
    state, report = load_state(reopened)
    assert report.snapshot_used
    assert state.fingerprint(decode_body) == queue.dump_state()


def test_file_store_opens_its_journal_once_per_snapshot_interval(tmp_path):
    store = FileDurableStore(str(tmp_path / "wal"))
    with mock.patch.object(builtins, "open", wraps=open) as opened:

        def append_opens():
            return sum(c.args[1:2] == ("ab",) for c in opened.call_args_list)

        for seq in range(1, 6):
            store.append(seq, encode_record(seq, "settle", [[f"u{seq}"]]))
            assert len(store.read_journal()) == seq  # flushed per record
        assert append_opens() == 1

        # The snapshot swaps the journal file; the handle must follow it.
        store.write_snapshot(encode_doc({}), 3)
        store.append(6, encode_record(6, "settle", [["u6"]]))
        assert append_opens() == 2
    assert [decode_record(record)[0] for record in store.read_journal()] == [4, 5, 6]
    store.close()
    store.close()  # idempotent; a later append reopens
    store.append(7, encode_record(7, "settle", [["u7"]]))
    assert len(store.read_journal()) == 4
    store.close()


def test_file_store_empty_directory_reads_clean(tmp_path):
    store = FileDurableStore(str(tmp_path / "wal"))
    assert store.read_journal() == []
    assert store.read_snapshot() is None


# -- queue attach/dump/load surface -------------------------------------------
def test_attach_journal_rejects_double_attach():
    queue = fresh_queue()
    queue.attach_journal(Journal(InMemoryDurableStore()))
    with pytest.raises(ValueError, match="already has a journal"):
        queue.attach_journal(Journal(InMemoryDurableStore()))


def test_attach_journal_bootstrap_rejects_nonempty_queue():
    queue = fresh_queue()
    queue.put("m", topic="t")
    with pytest.raises(ValueError, match="no messages"):
        queue.attach_journal(Journal(InMemoryDurableStore()))


def test_dump_load_round_trip():
    clock = VirtualClock()
    queue = fresh_queue(clock)
    for i in range(5):
        clock.advance(0.5)
        queue.put(f"m{i}", topic="t")
    queue.ack(queue.claim("t").delivery_tag)
    for _ in range(3):  # burn the delivery budget -> dead letter
        queue.nack(queue.claim("t").delivery_tag, requeue=True)
    dump = queue.dump_state()
    assert dump["inflight"] == []  # nothing claimed at dump time

    restored = fresh_queue(clock)
    restored.load_state(dump)
    assert restored.dump_state() == dump
    assert restored.ready_count("t") == queue.ready_count("t")
    assert [m.body for m in restored.dead_letters] == [
        m.body for m in queue.dead_letters
    ]


def test_load_state_requires_fresh_queue():
    queue = fresh_queue()
    queue.put("m", topic="t")
    with pytest.raises(ValueError, match="fresh queue"):
        queue.load_state(
            {
                "ready": {},
                "dead": [],
                "total_enqueued": 0,
                "total_acked": 0,
                "total_redelivered": 0,
                "topic_enqueued": {},
                "next_message_id": 1,
                "next_tag": 1,
            }
        )
