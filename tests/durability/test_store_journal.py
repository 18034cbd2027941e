"""Unit coverage for the durability building blocks: the record/body
codec, the :class:`Journal` write path (baseline seeding, snapshot
cadence) and the checks that guard it (the live operation's, then the
fold's at replay), the :class:`FileDurableStore` medium, and the
queue's attach/dump/load surface."""

from __future__ import annotations

import base64
import builtins
import dataclasses
import json
import pickle
import re
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
    decode_body,
    encode_body,
    load_state,
)
from repro.durability.codec import (
    BODY_FIELDS,
    CARRIED_ADMIT,
    FIELDS,
    FORMAT_VERSION,
    decode_record,
    encode_doc,
    encode_record,
)
from repro.messaging.queue import TaskQueue, UnknownDelivery
from repro.sim.clock import VirtualClock

from .conftest import alternating_arrivals, build_chaos_harness, request, snapshot_if_due


def fresh_queue(clock=None, **kwargs):
    kwargs.setdefault("visibility_timeout_s", 1e9)
    kwargs.setdefault("max_deliveries", 3)
    return TaskQueue(clock or VirtualClock(), **kwargs)


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
            "body": "gAWV",
        },
    }
    record.update(fields)
    return record


def positional(op, data):
    """``data`` as a line spells it: the values of ``op``'s field tuple
    in order, a carried admit nested the same way — or ``data`` itself,
    keyed, for an op without a field tuple."""
    if op not in FIELDS:
        return data
    values = [data[name] for name in FIELDS[op]]
    if op == "put" and data["admit"] is not None:
        values[-1] = [data["admit"][name] for name in CARRIED_ADMIT]
    return values


def test_record_codec_round_trips():
    line = encode_record(7, "put", positional("put", put_record()))
    assert decode_record(line) == (7, "put", put_record())
    # Positional: the line spells no key of the put or of its admit.
    assert not any(f'"{name}"' in line for name in (*FIELDS["put"], *CARRIED_ADMIT))
    assert json.loads(line)["rec"][2][-1] == ["t1", "noop", 0.25, 1.0, "gAWV"]


def test_record_codec_rejects_stale_crc():
    line = encode_record(7, "put", positional("put", put_record(admit=None)))
    doc = json.loads(line)
    doc["rec"][2][1] = 8  # the message id
    tampered = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with pytest.raises(JournalCorruption, match="crc mismatch"):
        decode_record(tampered)


@pytest.mark.parametrize(
    "rec, error",
    [
        ([1, "ack", {"delivery_tags": [1]}], "malformed journal record fields"),
        ([1, "settle", [["u1"], "extra"]], "malformed journal record fields"),
        ([1, "put", [*positional("put", put_record())[:-1], ["t1"]]], "carried admit"),
    ],
)
def test_a_positional_record_of_the_wrong_shape_fails_loud(rec, error):
    # Well-formed JSON with a valid CRC, but not the shape its op's
    # field tuple says.
    text = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    line = json.dumps(
        {"crc": zlib.crc32(text.encode("utf-8")), "rec": rec, "v": FORMAT_VERSION}
    )
    with pytest.raises(JournalCorruption, match=error):
        decode_record(line)


def two_dump_line(seq, op, data):
    """The reference form of a record line: dump ``rec`` for the CRC,
    then dump the whole envelope (which serializes ``rec`` again)."""
    rec = [seq, op, positional(op, data)]
    crc = zlib.crc32(
        json.dumps(rec, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return json.dumps(
        {"crc": crc, "rec": rec, "v": FORMAT_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )


GOLDEN_CORPUS = [
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
            body="gAWV8AAAAA+/==",
            dispatch_tag=-0.0,
            admit=None,
        ),
    ),
    (2**40, "baseline", {}),
]


@pytest.mark.parametrize("seq, op, data", GOLDEN_CORPUS)
def test_record_line_equals_the_two_dump_form(seq, op, data):
    # Non-ASCII text, exponent floats and dicts in unsorted insertion
    # order: the spliced single dump must match the sorted-keys dump of
    # the whole envelope byte for byte (the CRC contract rides on it).
    line = encode_record(seq, op, positional(op, data))
    assert line == two_dump_line(seq, op, data)
    assert decode_record(line) == (seq, op, data)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(),
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
    line = encode_record(seq, op, positional(op, data))
    assert decode_record(line) == (seq, op, data)
    assert line == two_dump_line(seq, op, data)


def positional_records():
    """Any record of an op with a field tuple, a put with or without a
    carried admit."""

    def record(op):
        values = {name: JSON_VALUES for name in FIELDS[op]}
        if op == "put":
            values["admit"] = st.none() | st.fixed_dictionaries(
                {name: JSON_VALUES for name in CARRIED_ADMIT}
            )
        return st.tuples(st.just(op), st.fixed_dictionaries(values))

    return st.sampled_from(sorted(FIELDS)).flatmap(record)


@given(seq=st.integers(min_value=1), record=positional_records())
def test_positional_record_codec_round_trips_any_values(seq, record):
    op, data = record
    line = encode_record(seq, op, positional(op, data))
    assert decode_record(line) == (seq, op, data)
    assert line == two_dump_line(seq, op, data)


CANONICAL = {"sort_keys": True, "separators": (",", ":")}

#: Any JSON value the encoder may meet, NaN and the infinities included
#: (``json.dumps`` spells them ``NaN`` / ``Infinity``; so must the line).
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


def line_values():
    """``(op, values)`` as the write path hands them to
    :func:`encode_record`: a positional list for every op of
    :data:`FIELDS` (a put's carried admit nested or ``None``), keyed
    ``data`` for ``baseline`` and ``recover``."""

    def values(op):
        if op not in FIELDS:
            return st.dictionaries(st.text(), ANY_JSON, max_size=5)
        n = len(FIELDS[op])
        if op != "put":
            return st.lists(ANY_JSON, min_size=n, max_size=n)
        admit = st.none() | st.lists(
            ANY_JSON, min_size=len(CARRIED_ADMIT), max_size=len(CARRIED_ADMIT)
        )
        return st.tuples(st.lists(ANY_JSON, min_size=n - 1, max_size=n - 1), admit).map(
            lambda parts: [*parts[0], parts[1]]
        )

    ops = [*sorted(FIELDS), "baseline", "recover"]
    return st.sampled_from(ops).flatmap(lambda op: st.tuples(st.just(op), values(op)))


@given(seq=st.integers(min_value=0), record=line_values())
def test_the_shared_encoder_writes_json_dumps_of_the_envelope(seq, record):
    # The encoder is built once from the C encoder's parts, not by
    # ``json.dumps``: each line must still be byte for byte the
    # canonical dump of its whole envelope, on every Python CI tests.
    op, values = record
    rec = [seq, op, values]
    crc = zlib.crc32(json.dumps(rec, **CANONICAL).encode("utf-8"))
    envelope = {"crc": crc, "rec": rec, "v": FORMAT_VERSION}
    assert encode_record(seq, op, values) == json.dumps(envelope, **CANONICAL)


@given(doc=st.dictionaries(st.text(), ANY_JSON, max_size=6))
def test_the_shared_encoder_writes_json_dumps_of_a_document(doc):
    assert encode_doc(doc) == json.dumps(doc, **CANONICAL)


ARG = st.recursive(
    st.text() | st.integers() | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)
ARRAY = st.lists(st.floats(allow_nan=False), max_size=5).map(np.array)


@st.composite
def requests(draw):
    """A request as the stack builds one, ids explicit (so no task
    counter moves) and a trace that will not pickle."""
    maybe_text = st.none() | st.text(max_size=8)
    return TaskRequest(
        draw(st.text(min_size=1, max_size=8)),
        args=draw(st.lists(ARG | ARRAY, max_size=4).map(tuple)),
        kwargs=draw(st.dictionaries(st.text(max_size=5), ARG | ARRAY, max_size=3)),
        identity_id=draw(maybe_text),
        tenant=draw(maybe_text),
        dispatch_tag=draw(st.none() | st.floats(allow_nan=False)),
        batch=draw(st.none() | st.lists(ARG, max_size=3)),
        trace=draw(st.none() | st.just(object())),
        task_uuid=draw(st.text(min_size=1, max_size=12)),
        sequence=draw(st.integers(min_value=0)),
    )


def same(a, b):
    """Equal as pickled bytes: exact, and defined for numpy arrays."""
    return pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
        b, protocol=pickle.HIGHEST_PROTOCOL
    )


@given(request=requests())
def test_body_codec_round_trips_any_request(request):
    decoded = decode_body(encode_body(request))
    expected = dict(vars(request), trace=None)
    assert type(decoded) is TaskRequest
    assert list(vars(decoded)) == list(expected) == list(BODY_FIELDS)
    for name, value in expected.items():
        assert same(getattr(decoded, name), value), name
    # The Management Service models transfer time from a request's
    # pickled size, so the decoded request must pickle as the original.
    assert same(decoded, dataclasses.replace(request, trace=None))


def test_body_codec_round_trips_requests():
    request = TaskRequest("noop", args=(1, "x"), kwargs={"k": 2.5})
    decoded = decode_body(encode_body(request))
    assert vars(decoded) == vars(request)


def test_a_body_is_the_pickled_tuple_of_its_field_values():
    request = TaskRequest("noop", args=(1,), task_uuid="u1", sequence=3)
    values = pickle.loads(base64.b64decode(encode_body(request)))
    assert values == ("noop", (1,), {}, None, None, None, None, None, "u1", 3)


def test_decoding_a_body_moves_no_task_counter():
    body = encode_body(TaskRequest("noop", args=(1,)))
    before = TaskRequest("noop")
    decode_body(body)
    after = TaskRequest("noop")
    assert after.sequence == before.sequence + 1
    assert int(after.task_uuid[5:]) == int(before.task_uuid[5:]) + 1


def test_body_codec_strips_trace_context():
    # Traces can hold live (unpicklable) tracer internals; the codec
    # must drop them rather than fail — they are observability state.
    request = TaskRequest("noop", args=(1,))
    request.trace = object()  # not picklable
    decoded = decode_body(encode_body(request))
    assert decoded.trace is None
    assert request.trace is not None  # the caller's request is untouched


def test_corrupt_body_fails_loud():
    with pytest.raises(JournalCorruption, match="undecodable message body"):
        decode_body("definitely-not-a-base64-pickle")


@pytest.mark.parametrize(
    "value",
    [TaskRequest("noop", task_uuid="u", sequence=0), ("noop", (1,))],
    ids=["version-4 body", "short tuple"],
)
def test_a_body_that_is_not_a_request_field_tuple_fails_loud(value):
    # A version-4 body pickled the request itself, not its field tuple.
    text = base64.b64encode(pickle.dumps(value)).decode("ascii")
    with pytest.raises(JournalCorruption, match="undecodable message body"):
        decode_body(text)


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
        SubRequest("noop", task_uuid="s", sequence=0),
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
    before = json.dumps(state.to_doc(), sort_keys=True)
    with pytest.raises(JournalCorruption, match=error):
        state.apply(state.last_seq + 1, op, data)
    assert json.dumps(state.to_doc(), sort_keys=True) == before
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
    assert json.loads(long)["settled"] == 330
    assert re.sub(r"\d+", "0", long) == re.sub(r"\d+", "0", short)
    assert len(long) - len(short) <= len(re.findall(r"\d+", short))


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
            return sum(c.args[1:2] == ("a",) for c in opened.call_args_list)

        for seq in range(1, 6):
            store.append(seq, encode_record(seq, "settle", [[f"u{seq}"]]))
            assert len(store.read_journal()) == seq  # flushed per record
        assert append_opens() == 1

        # The snapshot swaps the journal file; the handle must follow it.
        store.write_snapshot("{}", 3)
        store.append(6, encode_record(6, "settle", [["u6"]]))
        assert append_opens() == 2
    assert [decode_record(line)[0] for line in store.read_journal()] == [4, 5, 6]
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
