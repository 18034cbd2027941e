"""Journal torture: feed recovery every corruption a crash (or a bad
disk) can produce and assert it either recovers exactly or fails
loudly — never silently serves from a wrong state.

Tolerated (recover + flag): a torn final line, a byte-identical
duplicate record, a snapshot/journal seam overlap. Fatal
(:class:`JournalCorruption`): mid-journal garbage, a CRC/content
mismatch, a sequence gap, two different records claiming one sequence,
an unparseable snapshot document, a record written in an older format
version (1 to 4) or a snapshot in an older document version (1 to 3).
"""

from __future__ import annotations

import json
import os

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
    FORMAT_VERSION,
    FormatMismatch,
    decode_record,
    encode_doc,
    encode_record,
)
from repro.durability.state import DOC_VERSION
from repro.messaging.queue import TaskQueue
from repro.sim.clock import VirtualClock

from .conftest import request, snapshot_if_due


def seeded_store(tmp_path, n_puts=8, snapshot_every=10**9):
    """A file store holding real traffic: puts, one claim/ack, one nack."""
    clock = VirtualClock()
    store = FileDurableStore(str(tmp_path / "wal"))
    journal = Journal(store, snapshot_every_records=snapshot_every)
    queue = TaskQueue(clock, visibility_timeout_s=1e9, max_deliveries=3)
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


def read_lines(store):
    with open(journal_path(store), encoding="utf-8") as fh:
        return fh.read().splitlines()


def write_lines(store, lines, *, trailing_newline=True):
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    with open(journal_path(store), "w", encoding="utf-8") as fh:
        fh.write(text)


def test_torn_tail_is_tolerated_flagged_and_repaired(tmp_path):
    store, journal, queue = seeded_store(tmp_path)
    with open(journal_path(store), "a", encoding="utf-8") as fh:
        fh.write('{"crc": 123, "rec": [99, "pu')  # torn mid-write, no newline

    state, report = load_state(store)
    assert report.truncated_tail
    assert report.records_replayed == journal.last_seq
    assert state.fingerprint(decode_body) == queue.dump_state()

    # begin_recovery repairs the tear by snapshotting: the snapshot
    # covers every applied record and truncation drops the garbage.
    _, _, report2 = begin_recovery(store, max_deliveries=3)
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
    with pytest.raises(JournalCorruption, match="unparseable journal line"):
        load_state(store)


def test_content_tamper_fails_crc(tmp_path):
    store, _, _ = seeded_store(tmp_path)
    lines = read_lines(store)
    victim = json.loads(lines[2])
    assert victim["rec"][1] == "put"
    victim["rec"][2][0] = "hijacked"  # re-point a put's topic, keep old CRC
    lines[2] = json.dumps(victim, sort_keys=True, separators=(",", ":"))
    write_lines(store, lines)
    with pytest.raises(JournalCorruption, match="crc mismatch"):
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
    seq, _, _ = decode_record(lines[3])
    # A *valid* record (correct CRC) that disagrees with seq's history.
    lines.insert(4, encode_record(seq, "settle", [["task-evil"]]))
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
    snap = os.path.join(store.directory, FileDurableStore.SNAPSHOT)
    with open(snap, "w", encoding="utf-8") as fh:
        fh.write('{"v": 1, "messages": [truncated')
    with pytest.raises(JournalCorruption, match="unparseable snapshot"):
        load_state(store)


def as_format(line, version):
    """``line`` as an older writer would have left it: intact, CRC
    valid (the CRC covers ``rec`` only), version field ``version``."""
    doc = json.loads(line)
    doc["v"] = version
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


#: Lines are at format 5 (a body is a pickled field tuple), so a
#: version-4 line is refused too; snapshots carry bodies, so the
#: snapshot document moved to 4 with them.
OLD_LINE_VERSIONS = pytest.mark.parametrize("version", [1, 2, 3, 4])
OLD_SNAPSHOT_VERSIONS = pytest.mark.parametrize("version", [1, 2, 3])


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
    snap = os.path.join(store.directory, FileDurableStore.SNAPSHOT)
    with open(snap, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["v"] = version
    with open(snap, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with refused(version, DOC_VERSION):
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
    first_seq, _, _ = decode_record(read_lines(store)[0])
    assert first_seq > 1  # the snapshot really truncated a prefix
    os.remove(os.path.join(store.directory, FileDurableStore.SNAPSHOT))
    with pytest.raises(JournalCorruption, match="journal gap"):
        load_state(store)
