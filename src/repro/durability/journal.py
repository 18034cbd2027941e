"""The write-ahead journal with inline periodic snapshots.

One :class:`Journal` fronts one :class:`~repro.durability.store.
DurableStore`. Every :meth:`append` assigns the next sequence number,
folds the record into the journal's *shadow*
:class:`~repro.durability.state.SystemState` (which doubles as record
validation — an inconsistent record raises before anything persists),
writes the CRC-protected line, and every ``snapshot_every_records``
appends writes a snapshot inline. Because the snapshot is just the
shadow state — which is by construction aligned to a record boundary —
snapshots are safe at *any* append; there is no "quiescent point" to
wait for.

Gateway admissions are held rather than appended (:meth:`Journal.
hold_admit`): a request released by the call that admitted it has its
``admit`` carried by its ``put``, and the call writes the rest before
it returns (:meth:`Journal.flush_admits`).

The journal is deliberately ignorant of the queue and gateway classes
(they call it duck-typed), so the dependency arrow runs strictly
``messaging/gateway -> (none)`` and ``durability -> messaging/gateway``
only in :mod:`repro.durability.recovery` / ``chaos``.
"""

from __future__ import annotations

import json

from repro.durability import codec
from repro.durability.state import SystemState


class Journal:
    """Append-ordered WAL over a durable store, with a live shadow state.

    Parameters
    ----------
    store:
        The durable medium (:class:`~repro.durability.store.DurableStore`).
    snapshot_every_records:
        Snapshot cadence: after this many appends since the last
        snapshot, the shadow state is persisted and the covered journal
        records are truncated. Higher values mean cheaper steady-state
        writes but longer replay after a crash.
    chaos:
        Optional fault injector; passed through to the store so the
        ``mid_snapshot`` injection point can fire between the snapshot
        write and the journal truncation.
    state:
        A pre-folded shadow state (the recovery path resumes a journal
        from the state it just replayed); a fresh one by default.
    """

    def __init__(
        self,
        store,
        snapshot_every_records: int = 256,
        chaos=None,
        state: SystemState | None = None,
    ) -> None:
        if snapshot_every_records < 1:
            raise ValueError("snapshot_every_records must be >= 1")
        self.store = store
        self.snapshot_every_records = snapshot_every_records
        self.chaos = chaos
        self.state = state if state is not None else SystemState()
        self._since_snapshot = 0
        self.records_appended = 0
        self.snapshots_taken = 0
        #: task_uuid -> the fields of an admission not yet written, in
        #: admission order (see :meth:`hold_admit`).
        self._held: dict[str, dict] = {}

    # Body encoding rides on the journal so callers (the gateway) need
    # no import of durability internals.
    encode_body = staticmethod(codec.encode_body)

    def hold_admit(self, task_uuid: str, fields: dict) -> None:
        """Take one admission grant (``fields``: the ``admit`` record's
        values less the uuid) without writing it yet.

        The request's own ``put``, if it comes first, carries it
        (:meth:`body_fields`): one record instead of two. Whatever is
        still held when the admitting call ends — requests its lane
        kept — is written by :meth:`flush_admits`. An admission lost
        with a crash before either was never acknowledged to its caller.
        """
        self._held[task_uuid] = fields

    def flush_admits(self) -> None:
        """Write a standalone ``admit`` record for every held admission,
        in admission order."""
        held, self._held = self._held, {}
        for task_uuid, fields in held.items():
            self.append("admit", {"task_uuid": task_uuid, **fields})

    def body_fields(self, body) -> dict:
        """The fields of a ``put`` record that describe its body.

        A request whose admission is held gets it carried by the put,
        and one whose ``admit`` is open already has its body on the
        journal, encoded at admission: either way the put itself
        carries just the uuid and the ``dispatch_tag`` stamped since —
        the one thing the queued body has that the admitted one lacks.
        Any other body (a direct submit, a put after the settle) is
        encoded here.
        """
        uuid = getattr(body, "task_uuid", None)
        admit = self._held.pop(uuid, None)
        if admit is not None or uuid in self.state.open:
            return {
                "task_uuid": uuid,
                "body": None,
                "dispatch_tag": body.dispatch_tag,
                "admit": admit,
            }
        return {
            "task_uuid": uuid,
            "body": self.encode_body(body),
            "dispatch_tag": None,
            "admit": None,
        }

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self.state.last_seq

    def append(self, op: str, data: dict) -> int:
        """Durably record one operation; returns its sequence number.

        The record is validated against the shadow state *before* it is
        persisted, so a record the fold would reject never reaches the
        store.
        """
        seq = self.state.last_seq + 1
        line = codec.encode_record(seq, op, data)
        self.state.apply(seq, op, data)
        self.store.append(seq, line)
        self.records_appended += 1
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every_records:
            self.snapshot_now()
        return seq

    def seed_baseline(
        self,
        *,
        total_enqueued: int,
        total_acked: int,
        total_redelivered: int,
        topic_enqueued: dict[str, int],
        next_message_id: int,
        next_tag: int,
    ) -> int | None:
        """Record a queue's pre-journal counter history.

        A journal may attach to a queue whose monotonic counters are
        already non-zero (messages came and went before durability was
        enabled); without this record a replay would reconstruct the
        counters from zero. No-op (returns ``None``) when everything is
        still at its defaults. Must be the journal's first record.
        """
        if self.state.last_seq != 0 or self.state.messages:
            raise ValueError("seed_baseline requires a fresh journal")
        values = {
            "total_enqueued": total_enqueued,
            "total_acked": total_acked,
            "total_redelivered": total_redelivered,
            "topic_enqueued": dict(sorted(topic_enqueued.items())),
            "next_message_id": next_message_id,
            "next_tag": next_tag,
        }
        if (
            not any((total_enqueued, total_acked, total_redelivered))
            and not topic_enqueued
            and next_message_id == 1
            and next_tag == 1
        ):
            return None
        return self.append("baseline", values)

    def snapshot_now(self) -> None:
        """Persist the shadow state and truncate the covered records."""
        doc = json.dumps(
            self.state.to_doc(), sort_keys=True, separators=(",", ":")
        )
        self._since_snapshot = 0
        self.snapshots_taken += 1
        self.store.write_snapshot(doc, self.state.last_seq, chaos=self.chaos)
