"""Rebuild serving state from snapshot + journal after a crash.

The recovery pipeline, in order:

1. :func:`load_state` — parse the snapshot (if any), replay the journal
   tail, dedupe the snapshot/journal seam by sequence number, tolerate
   (and flag) exactly one torn final record, and fail loudly on
   anything else: CRC mismatches, sequence gaps, conflicting duplicate
   records.
2. :func:`begin_recovery` — resume a :class:`~repro.durability.journal.
   Journal` after the replayed sequence and append one ``recover`` record
   carrying the release plan (:func:`plan_recover`): every claimed-but-
   unsettled delivery goes back to the *front* of its topic with its
   original enqueue timestamp (or to the dead-letter list when its
   deliveries are exhausted), and withdrawn messages are dropped (their
   requests re-enter via the gateway's lanes). Journaling the plan
   makes recovery itself replayable — and because the recovered queue
   materializes with an empty in-flight table, the visibility-timeout
   reclaim can never re-release a delivery the replay already
   released.
3. :func:`materialize_queue` — build a live
   :class:`~repro.messaging.queue.TaskQueue` from the recovered state.
4. :func:`gateway_restore_entries` — derive the gateway's open-request
   restore list: still-in-queue requests re-occupy dispatch slots;
   never-released and mid-recovery-dropped requests re-enter their
   tenant lanes; processed-but-unsettled (acked, no ``settle`` record)
   requests are *resurrected* through their lanes front-first, deduped
   downstream by the workers' memo caches.

Recovery invariants (asserted by ``tests/durability``):

* no admitted request is lost — every ``admit`` without a ``settle``
  is restored exactly once (dead-lettered requests excepted, matching
  live behaviour: dead letters never settle);
* exactly-once settlement — a request settles in precisely one
  incarnation, never twice across a crash;
* no double WFQ charge — restored lane entries are re-billed in the
  *new* scheduler only, never twice within one incarnation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.durability import codec
from repro.durability.codec import FormatMismatch, JournalCorruption
from repro.durability.journal import Journal
from repro.durability.state import SystemState
from repro.messaging.queue import MAX_DELIVERIES, VISIBILITY_TIMEOUT_S, TaskQueue


@dataclass
class RecoveryReport:
    """What :func:`load_state` found on the durable medium."""

    snapshot_used: bool = False
    records_replayed: int = 0
    #: The journal ended in an unparseable line — a torn final write.
    #: The record never took effect (its CRC/structure check failed),
    #: so recovery proceeds without it; the flag is surfaced so
    #: operators see the tear instead of a silent repair.
    truncated_tail: bool = False
    #: Byte-identical duplicate records skipped (a retried append).
    duplicates_skipped: int = 0
    #: Records skipped because the snapshot already covered their
    #: sequence numbers (a crash between snapshot write and journal
    #: truncation leaves this overlap).
    seam_overlap: int = 0
    #: Per-recovery release stats, filled by :func:`begin_recovery`.
    released: int = 0
    dead_lettered: int = 0
    dropped_withdrawn: int = 0
    #: Open requests that were already dead-lettered pre-crash; they
    #: are reported, not restored (dead letters never settle).
    dead_open: list[str] = field(default_factory=list)


def load_state(store) -> tuple[SystemState, RecoveryReport]:
    """Fold the store's snapshot + journal into a :class:`SystemState`.

    Loud-failure contract: a mid-journal undecodable record, a CRC
    mismatch, a sequence gap, another format version, or two *different*
    records claiming the same sequence all raise
    :class:`JournalCorruption`. Only a torn final line is tolerated
    (flagged on the report) — it is the one corruption a crash
    legitimately produces.
    """
    report = RecoveryReport()
    raw_snapshot = store.read_snapshot()
    if raw_snapshot is not None:
        try:
            doc = json.loads(raw_snapshot)
        except ValueError as exc:
            raise JournalCorruption(f"unparseable snapshot: {exc}") from exc
        state = SystemState.from_doc(doc)
        report.snapshot_used = True
    else:
        state = SystemState()
    lines = store.read_journal()
    seen: dict[int, str] = {}
    for i, line in enumerate(lines):
        try:
            seq, op, data = codec.decode_record(line)
        except FormatMismatch:
            raise  # an intact record of another version is no torn write
        except JournalCorruption:
            if i == len(lines) - 1:
                report.truncated_tail = True
                break
            raise
        if seq in seen:
            if seen[seq] != line:
                raise JournalCorruption(
                    f"conflicting duplicate records at seq={seq}"
                )
            report.duplicates_skipped += 1
            continue
        if seq <= state.last_seq:
            if not report.snapshot_used:
                raise JournalCorruption(
                    f"record seq={seq} regresses without a snapshot"
                )
            report.seam_overlap += 1
            continue
        if seq != state.last_seq + 1:
            raise JournalCorruption(
                f"journal gap: expected seq={state.last_seq + 1}, got {seq}"
            )
        state.apply(seq, op, data)
        seen[seq] = line
        report.records_replayed += 1
    return state, report


def plan_recover(state: SystemState, max_deliveries: int) -> dict:
    """Compute the ``recover`` record for a replayed state.

    Claimed-but-unsettled deliveries are released to the *front* of
    their topics (ordered by message id, so the oldest work leads) with
    their original enqueue timestamps; a delivery that already burned
    ``max_deliveries`` attempts is dead-lettered instead, exactly as a
    live ``nack`` would. Withdrawn messages are dropped — their
    requests live on as gateway lane entries and re-enter via
    :func:`gateway_restore_entries`.
    """
    released: dict[str, list[int]] = {}
    dead: list[int] = []
    for tag in sorted(state.inflight):
        mid = state.inflight[tag][0]
        msg = state.messages[mid]
        if msg["deliveries"] >= max_deliveries:
            dead.append(mid)
        else:
            released.setdefault(msg["topic"], []).append(mid)
    for topic in sorted(released):
        released[topic].sort()
    dead.sort()
    return {
        "released": {topic: released[topic] for topic in sorted(released)},
        "dead": dead,
        "dropped": list(state.withdrawn),
    }


def begin_recovery(
    store,
    *,
    max_deliveries: int = MAX_DELIVERIES,
    snapshot_every_records: int = 256,
    chaos=None,
) -> tuple[SystemState, Journal, RecoveryReport]:
    """Replay the store and open a resumed journal for the new
    incarnation, appending the ``recover`` record (if anything was in
    flight) and folding it into the returned state. A torn tail is
    repaired by snapshotting that state immediately — the snapshot
    durably covers every applied record and the store drops the
    unparseable line on truncation."""
    state, report = load_state(store)
    journal = Journal(
        store,
        snapshot_every_records=snapshot_every_records,
        chaos=chaos,
        last_seq=state.last_seq,
    )
    plan = plan_recover(state, max_deliveries)
    report.released = sum(len(mids) for mids in plan["released"].values())
    report.dead_lettered = len(plan["dead"])
    report.dropped_withdrawn = len(plan["dropped"])
    if plan["released"] or plan["dead"] or plan["dropped"]:
        state.apply(journal.append("recover", plan), "recover", plan)
    if report.truncated_tail:
        store.write_snapshot(codec.encode_doc(state.to_doc()), state.last_seq, chaos=chaos)
    journal.adopt(state)
    report.dead_open = sorted(
        uuid for uuid, entry in state.open.items() if entry["dead"]
    )
    return state, journal, report


def materialize_queue(
    state: SystemState,
    clock,
    *,
    visibility_timeout_s: float = VISIBILITY_TIMEOUT_S,
    max_deliveries: int = MAX_DELIVERIES,
) -> TaskQueue:
    """Build a live :class:`TaskQueue` holding the recovered state.

    Requires a post-``recover`` state (empty in-flight table): a queue
    must never materialize with phantom claims no consumer holds.
    """
    if state.inflight:
        raise JournalCorruption(
            "materialize_queue needs a recovered state (in-flight not empty); "
            "run begin_recovery first"
        )
    queue = TaskQueue(
        clock,
        visibility_timeout_s=visibility_timeout_s,
        max_deliveries=max_deliveries,
    )
    queue.load_state(state.fingerprint(codec.decode_body))
    return queue


def gateway_restore_entries(state: SystemState) -> list[dict]:
    """Derive the gateway's open-request restore list from a recovered
    state, in restore order.

    Per open (admitted, unsettled, not dead-lettered) request:

    * a message of its uuid sits in the recovered ready set — the
      request is *in queue*: it re-occupies a dispatch slot and will
      settle through the normal path (``in_queue=True``);
    * otherwise, never acked — the request was in a lane (or between
      admission and enqueue, or withdrawn mid-reclaim) when the crash
      hit: it re-enters its tenant's lane (``in_queue=False``);
    * otherwise (acked, no settle) — the work finished but its
      settlement died with the process: it is *resurrected* through
      the lane (``resurrect=True``), re-served mostly from the
      workers' memo caches.

    Resurrected requests come first (they are the oldest in-system
    work), then lane re-entries, each group in admission order.
    ``enqueued_at`` carries the last journaled queue timestamp so the
    re-release back-dates the re-put and latency/age metrics keep the
    request's true age. An in-queue entry's ``dispatch_tag`` is the WFQ
    tag its message still carries, so the new scheduler can restore its
    clock past it.
    """
    in_queue_tags = {}
    for topic in sorted(state.ready):
        for mid in state.ready[topic]:
            message = state.messages[mid]
            in_queue_tags[message["task_uuid"]] = message.get("dispatch_tag")
    entries = []
    for uuid in sorted(state.open, key=lambda u: state.open[u]["admit_seq"]):
        entry = state.open[uuid]
        if entry["dead"]:
            continue
        request = codec.decode_body(entry["body"])
        request.dispatch_tag = None
        entries.append(
            {
                "task_uuid": uuid,
                "tenant": entry["tenant"],
                "servable": entry["servable"],
                "arrived_at": entry["arrived_at"],
                "request": request,
                "in_queue": uuid in in_queue_tags,
                "dispatch_tag": in_queue_tags.get(uuid),
                "resurrect": entry["acked"] and uuid not in in_queue_tags,
                "enqueued_at": entry["enqueued_at"],
            }
        )
    entries.sort(
        key=lambda e: (not e["resurrect"], state.open[e["task_uuid"]]["admit_seq"])
    )
    return entries
