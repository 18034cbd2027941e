"""Journal torture: feed recovery every corruption a crash (or a bad
disk) can produce and assert it either recovers exactly or fails
loudly — never silently serves from a wrong state.

Tolerated (recover + flag): a torn final line, a byte-identical
duplicate record, a snapshot/journal seam overlap. Fatal
(:class:`JournalCorruption`): mid-journal garbage, a CRC/content
mismatch in a record or in the snapshot, a sequence gap, two different
records claiming one sequence, an unparseable snapshot document, a
record written in an older format version (the JSON lines of 1 to 5)
or a snapshot in an older document version (the JSON of 1 to 4).
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib

import pytest

from repro.durability import (
    CrashPlan,
    FaultInjector,
    FileDurableStore,
    Journal,
    JournalCorruption,
    SimulatedCrash,
    begin_recovery,
    decode_body,
    load_state,
)
from repro.durability.codec import (
    DOC_VERSION,
    FORMAT_VERSION,
    FormatMismatch,
    decode_doc,
    decode_record,
    encode_doc,
    encode_record,
)
from repro.messaging.queue import TaskQueue
from repro.sim.clock import VirtualClock

from .conftest import request, snapshot_if_due


def seeded_store(tmp_path, n_puts=8, snapshot_every=10**9):
    """A file store holding real traffic: puts, one claim/ack, one nack."""
    clock = VirtualClock()
    store = FileDurableStore(str(tmp_path / "wal"))
    journal = Journal(store, snapshot_every_records=snapshot_every)
    queue = TaskQueue(clock)
    queue.attach_journal(journal)
    for i in range(n_puts):
        clock.advance(0.01)
        queue.put(request(i), topic="t")
        snapshot_if_due(journal, queue)
    queue.ack(queue.claim("t").delivery_tag)
    queue.nack(queue.claim("t").delivery_tag, requeue=True)
    return store, journal, queue


def journal_path(store):
    return os.path.join(store.directory, FileDurableStore.JOURNAL)


def snapshot_path(store):
    return os.path.join(store.directory, FileDurableStore.SNAPSHOT)


def read_lines(store):
    with open(journal_path(store), encoding="ascii") as fh:
        return fh.read().splitlines()


def write_lines(store, lines, *, trailing_newline=True):
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    with open(journal_path(store), "w", encoding="ascii") as fh:
        fh.write(text)


def as_line(record):
    """A record as the file store writes it."""
    return base64.b64encode(record).decode("ascii")


def flip(blob, i):
    damaged = bytearray(blob)
    damaged[i] ^= 0x01
    return bytes(damaged)


def test_torn_tail_is_tolerated_flagged_and_repaired(tmp_path):
    # A write torn anywhere: inside the first base64 quantum, at one,
    # or inside the header or the payload of the record it held.
    for cut in (1, 3, 8, 17, 40):
        assert_torn_tail_is_tolerated_flagged_and_repaired(tmp_path / str(cut), cut)


def assert_torn_tail_is_tolerated_flagged_and_repaired(tmp_path, cut):
    store, journal, queue = seeded_store(tmp_path)
    torn = as_line(encode_record(journal.last_seq + 1, "put", [None] * 8))[:cut]
    with open(journal_path(store), "a", encoding="ascii") as fh:
        fh.write(torn)  # torn mid-write, no newline

    state, report = load_state(store)
    assert report.truncated_tail
    assert report.records_replayed == journal.last_seq
    assert state.fingerprint(decode_body) == queue.dump_state()

    # begin_recovery repairs the tear by snapshotting: the snapshot
    # covers every applied record and truncation drops the garbage.
    _, _, report2 = begin_recovery(store)
    state3, report3 = load_state(store)
    assert report2.truncated_tail  # surfaced, not hidden
    assert not report3.truncated_tail
    assert report3.snapshot_used
    assert state3.fingerprint(decode_body) == queue.dump_state()


def test_mid_journal_garbage_fails_loud(tmp_path):
    store, _, _ = seeded_store(tmp_path)
    lines = read_lines(store)
    lines[len(lines) // 2] = "not a journal record"
    write_lines(store, lines)
    with pytest.raises(JournalCorruption, match="unparseable journal record"):
        load_state(store)


def test_content_tamper_fails_crc(tmp_path):
    store, _, _ = seeded_store(tmp_path)
    lines = read_lines(store)
    record = base64.b64decode(lines[2])
    assert decode_record(record)[1] == "put"
    topic = record.index(b"\x8c\x01t") + 2  # the put's topic, "t"; keep the old CRC
    lines[2] = as_line(record[:topic] + b"u" + record[topic + 1:])
    write_lines(store, lines)
    with pytest.raises(JournalCorruption, match="crc mismatch on journal record"):
        load_state(store)


def test_one_flipped_byte_in_a_snapshot_or_a_record_fails_loud(tmp_path):
    # Format 5 snapshots had no checksum: a changed digit loaded as a
    # different state. Now the snapshot and every record fail alike.
    store, journal, queue = seeded_store(tmp_path)
    journal.snapshot_now(queue)
    for i in range(3):
        queue.put(request(100 + i), topic="t")
    with open(snapshot_path(store), "rb") as fh:
        snapshot = fh.read()
    with open(snapshot_path(store), "wb") as fh:
        fh.write(flip(snapshot, len(snapshot) // 2))
    with pytest.raises(JournalCorruption, match="crc mismatch on snapshot"):
        load_state(store)

    with open(snapshot_path(store), "wb") as fh:
        fh.write(snapshot)
    lines = read_lines(store)
    assert len(lines) == 3
    record = base64.b64decode(lines[1])
    lines[1] = as_line(flip(record, len(record) // 2))
    write_lines(store, lines)
    with pytest.raises(JournalCorruption, match="crc mismatch on journal record"):
        load_state(store)


def test_identical_duplicate_is_skipped_and_counted(tmp_path):
    store, _, queue = seeded_store(tmp_path)
    lines = read_lines(store)
    lines.insert(4, lines[3])  # a retried append: same bytes, same seq
    write_lines(store, lines)
    state, report = load_state(store)
    assert report.duplicates_skipped == 1
    assert state.fingerprint(decode_body) == queue.dump_state()


def test_conflicting_duplicate_fails_loud(tmp_path):
    store, _, _ = seeded_store(tmp_path)
    lines = read_lines(store)
    seq, _, _ = decode_record(base64.b64decode(lines[3]))
    # A *valid* record (correct CRC) that disagrees with seq's history.
    lines.insert(4, as_line(encode_record(seq, "settle", [["task-evil"]])))
    write_lines(store, lines)
    with pytest.raises(JournalCorruption, match="conflicting duplicate"):
        load_state(store)


def test_sequence_gap_fails_loud(tmp_path):
    store, _, _ = seeded_store(tmp_path)
    lines = read_lines(store)
    del lines[len(lines) // 2]
    write_lines(store, lines)
    with pytest.raises(JournalCorruption, match="journal gap"):
        load_state(store)


def test_unparseable_snapshot_fails_loud(tmp_path):
    store, journal, queue = seeded_store(tmp_path)
    journal.snapshot_now(queue)
    with open(snapshot_path(store), "rb") as fh:
        doc = fh.read()
    for damaged, error in (
        (doc[: len(doc) // 2], "crc mismatch on snapshot"),
        (doc[:3], "unparseable snapshot"),
        (b'{"v": 1, "messages": [truncated', "unparseable snapshot"),
    ):
        with open(snapshot_path(store), "wb") as fh:
            fh.write(damaged)
        with pytest.raises(JournalCorruption, match=error):
            load_state(store)


def json_default(value):
    return base64.b64encode(value).decode("ascii")


def as_format(line, version):
    """``line`` as a JSON writer of format ``version`` would have left
    it: intact, CRC valid over the canonical ``rec``."""
    rec = pickle.loads(base64.b64decode(line)[5:])  # (seq, op, values), unnamed
    canonical = {"sort_keys": True, "separators": (",", ":"), "default": json_default}
    crc = zlib.crc32(json.dumps(rec, **canonical).encode("utf-8"))
    return json.dumps({"crc": crc, "rec": rec, "v": version}, **canonical)


#: Lines of formats 1 to 5 were JSON text, and so were snapshot
#: documents of versions 1 to 4: each is refused by the version it names.
OLD_LINE_VERSIONS = pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
OLD_SNAPSHOT_VERSIONS = pytest.mark.parametrize("version", [1, 2, 3, 4])


def refused(version, current):
    return pytest.raises(
        FormatMismatch, match=f"format version {version}, expected {current}"
    )


@OLD_LINE_VERSIONS
def test_old_format_journal_fails_loud_naming_both_versions(tmp_path, version):
    store, _, _ = seeded_store(tmp_path)
    write_lines(store, [as_format(line, version) for line in read_lines(store)])
    with refused(version, FORMAT_VERSION):
        load_state(store)


@OLD_LINE_VERSIONS
def test_old_format_final_record_is_not_mistaken_for_a_torn_tail(tmp_path, version):
    # The last line is the one place recovery forgives corruption; an
    # intact record of another version is not a tear and must not be
    # dropped as one.
    store, _, _ = seeded_store(tmp_path)
    lines = read_lines(store)
    lines[-1] = as_format(lines[-1], version)
    write_lines(store, lines)
    with refused(version, FORMAT_VERSION):
        load_state(store)


@OLD_SNAPSHOT_VERSIONS
def test_old_format_snapshot_fails_loud_naming_both_versions(tmp_path, version):
    store, journal, queue = seeded_store(tmp_path)
    journal.snapshot_now(queue)
    with open(snapshot_path(store), "rb") as fh:
        doc = decode_doc(fh.read())
    with open(snapshot_path(store), "w", encoding="utf-8") as fh:
        json.dump({"v": version, **doc}, fh, default=json_default)
    with refused(version, DOC_VERSION):
        load_state(store)


def test_format_6_journal_and_snapshot_fail_loud_naming_both_versions(tmp_path):
    # Format 6 is this one's frame over a 10-field body (the request's
    # old ``trace`` and ``sequence``); its snapshot documents were
    # version 5. Each is refused by the version it names before any
    # body is decoded. The CRC covers the payload only, so a frame
    # re-labelled with another version byte is intact.
    store, journal, queue = seeded_store(tmp_path)
    journal.snapshot_now(queue)
    with open(snapshot_path(store), "rb") as fh:
        snapshot = fh.read()
    with open(snapshot_path(store), "wb") as fh:
        fh.write(bytes([5]) + snapshot[1:])
    with refused(5, DOC_VERSION):
        load_state(store)

    store, _, _ = seeded_store(tmp_path / "journal")
    lines = [base64.b64decode(line) for line in read_lines(store)]
    write_lines(store, [as_line(bytes([6]) + record[1:]) for record in lines])
    with refused(6, FORMAT_VERSION):
        load_state(store)


def test_seam_overlap_is_deduped_by_sequence(tmp_path):
    """A crash between the snapshot write and the journal truncation
    leaves every record both inside the snapshot and on the journal;
    replay must skip the covered tail, not double-apply it."""
    store, journal, queue = seeded_store(tmp_path)
    injector = FaultInjector()
    injector.plan(CrashPlan("mid_snapshot", after_trips=1))
    injector.arm_next()
    doc = encode_doc(journal.snapshot_doc(queue))
    with pytest.raises(SimulatedCrash):
        store.write_snapshot(doc, journal.last_seq, chaos=injector)

    n_lines = len(read_lines(store))
    assert n_lines == journal.last_seq  # truncation never ran
    state, report = load_state(store)
    assert report.snapshot_used
    assert report.seam_overlap == n_lines
    assert report.records_replayed == 0
    assert state.fingerprint(decode_body) == queue.dump_state()


def test_lost_snapshot_after_truncation_fails_loud(tmp_path):
    """Once a snapshot has truncated the journal, losing the snapshot
    file leaves a tail that starts past seq 1 — recovery must refuse
    it (as a sequence gap), never replay the tail against empty state."""
    store, journal, _ = seeded_store(tmp_path, snapshot_every=5)
    assert journal.snapshots_taken > 0
    assert read_lines(store)  # some records survived the truncation
    first_seq, _, _ = decode_record(base64.b64decode(read_lines(store)[0]))
    assert first_seq > 1  # the snapshot really truncated a prefix
    os.remove(snapshot_path(store))
    with pytest.raises(JournalCorruption, match="journal gap"):
        load_state(store)
