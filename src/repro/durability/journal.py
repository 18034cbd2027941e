"""The write-ahead journal: records are encoded and stored, nothing more.

One :class:`Journal` fronts one :class:`~repro.durability.store.
DurableStore`. :meth:`Journal.append` assigns the next sequence number,
encodes the record's values — which the queue and gateway pass already
in :data:`~repro.durability.codec.FIELDS` order — into one framed
pickle and hands the bytes to the store. Nothing is folded:
:class:`~repro.durability.state.SystemState` runs only in replay. The
journal keeps just what its own records and snapshots need: the *open
admissions* (an entry added at admit, updated at put, dropped at
settle — how :meth:`Journal.put` knows a request's body is already on
the journal), the messages withdrawn and not restored, and a settle
count.

A snapshot is *due* once ``snapshot_every_records`` appends have passed
since the last one. The gateway's ``on_tick`` writes a due snapshot
before it returns — a boundary: no door call is open, no admission is
held — from the live queue plus those tables (:meth:`Journal.
snapshot_doc`), in the shape :meth:`SystemState.to_doc <repro.
durability.state.SystemState.to_doc>` writes.

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

from repro.core.tasks import TaskRequest
from repro.durability import codec
from repro.durability.state import COUNTERS, MESSAGE_FIELDS, SystemState

#: The :data:`~repro.durability.state.COUNTERS` of a fresh queue.
_FRESH_COUNTERS = SystemState().counters()


class Journal:
    """Append-ordered WAL over a durable store.

    Parameters
    ----------
    store:
        The durable medium (:class:`~repro.durability.store.DurableStore`).
    snapshot_every_records:
        Snapshot cadence: the first boundary after this many appends
        since the last snapshot persists the live state and truncates
        the covered journal records. Higher values mean cheaper
        steady-state writes but longer replay after a crash.
    chaos:
        Optional fault injector; passed through to the store so the
        ``mid_snapshot`` injection point can fire between the snapshot
        write and the journal truncation.
    last_seq:
        The sequence number to continue after (the recovery path
        resumes a journal where its replay ended); 0 for a fresh one.
    """

    def __init__(
        self,
        store,
        snapshot_every_records: int = 256,
        chaos=None,
        last_seq: int = 0,
    ) -> None:
        if snapshot_every_records < 1:
            raise ValueError("snapshot_every_records must be >= 1")
        self.store = store
        self.snapshot_every_records = snapshot_every_records
        self.chaos = chaos
        #: Sequence number of the most recently appended record.
        self.last_seq = self._first_seq = self._snapshot_seq = last_seq
        self.snapshots_taken = 0
        self.settled = 0
        #: task_uuid -> the :data:`~repro.durability.codec.CARRIED_ADMIT`
        #: values of an admission not yet written (see :meth:`hold_admit`).
        self._held: dict[str, list] = {}
        #: task_uuid -> ``[admit values, admit seq, enqueued_at,
        #: message_id, acked]``, in admission order; the middle two are
        #: the latest put's. ``acked`` is set only by :meth:`adopt`: else
        #: a request is acked once its latest message is gone.
        self._open: dict[str, list] = {}
        #: message_id -> snapshot entry of a withdrawn, unrestored message.
        self._withdrawn: dict[int, dict] = {}

    # Body encoding rides on the journal so callers (the gateway) need
    # no import of durability internals.
    encode_body = staticmethod(codec.encode_body)

    @property
    def records_appended(self) -> int:
        """Records appended since this journal was opened or resumed."""
        return self.last_seq - self._first_seq

    def append(self, op: str, values) -> int:
        """Durably record one operation; returns its sequence number.

        ``values`` are the record's, in :data:`~repro.durability.codec.
        FIELDS` order (keyed ``data`` for ``baseline`` and ``recover``).
        Nothing is checked here: the live operation has already refused
        a bad record, and replay refuses the rest (``docs/ARCHITECTURE.
        md``, "Durability & recovery").
        """
        seq = self.last_seq = self.last_seq + 1
        self.store.append(seq, codec.encode_record(seq, op, values))
        return seq

    # -- gateway admissions ----------------------------------------------------------
    def hold_admit(self, task_uuid: str, admit: list) -> None:
        """Take one admission grant (``admit``: its :data:`~repro.
        durability.codec.CARRIED_ADMIT` values) without writing it yet.

        The request's own :meth:`put`, if it comes first, carries it:
        one record instead of two. Whatever is still held when the
        admitting call ends — requests its lane kept — is written by
        :meth:`flush_admits`. An admission lost with a crash before
        either was never acknowledged to its caller.
        """
        self._held[task_uuid] = admit

    def flush_admits(self) -> None:
        """Write a standalone ``admit`` record for every held admission,
        in admission order."""
        held, self._held = self._held, {}
        for task_uuid, admit in held.items():
            seq = self.append("admit", (task_uuid, *admit))
            self._open[task_uuid] = [admit, seq, None, None, False]

    def settle(self, task_uuids: list[str]) -> int:
        """Record one ``settle``: the open requests one call delivered.
        Unless every one is open and none repeats, ``KeyError`` is
        raised before anything changes or is written."""
        uuids = set(task_uuids)
        if len(uuids) != len(task_uuids) or not self._open.keys() >= uuids:
            raise KeyError(f"settle of a request not open, or named twice: {task_uuids!r}")
        for task_uuid in task_uuids:
            del self._open[task_uuid]
        self.settled += len(task_uuids)
        return self.append("settle", (task_uuids,))

    # -- queue operations that need more than their record -----------------------------
    def put(self, topic: str, message_id: int, enqueued_at: float, counted: bool, body) -> int:
        """Record one ``put``. A request with a held admission has it
        carried, and one with an open admission has its body on the
        journal already: either way the put carries just the uuid and
        the ``dispatch_tag`` stamped since admission. Any other request
        (a direct submit, a put after the settle) is encoded here; any
        other body raises ``TypeError`` before anything changes."""
        if type(body) is not TaskRequest:
            raise TypeError(f"only a TaskRequest body is journaled, not {type(body).__name__}")
        uuid = body.task_uuid
        admit = self._held.pop(uuid, None)
        entry = self._open.get(uuid)
        if admit is None and entry is None:
            return self.append(
                "put",
                (topic, message_id, enqueued_at, counted, uuid, self.encode_body(body), None, None),
            )
        seq = self.append(
            "put",
            (topic, message_id, enqueued_at, counted, uuid, None, body.dispatch_tag, admit),
        )
        if admit is not None:
            entry = self._open[uuid] = [admit, seq, None, None, False]
        entry[2] = enqueued_at
        entry[3] = message_id
        return seq

    def withdraw(self, topic: str, messages: list) -> int:
        """Record one ``withdraw`` of ``messages`` (newest first) and
        keep their snapshot entries until they are restored."""
        seq = self.append("withdraw", (topic, [m.message_id for m in messages]))
        for message in messages:
            doc = {name: getattr(message, name) for name in (*MESSAGE_FIELDS, "body")}
            self._withdrawn[message.message_id] = self._message_doc(doc)
        return seq

    def restore(self, message) -> int:
        """Record the ``restore`` of one withdrawn message."""
        del self._withdrawn[message.message_id]
        return self.append("restore", (message.message_id,))

    def seed_baseline(self, dump: dict) -> int | None:
        """Record a queue's pre-journal counter history: the
        :data:`~repro.durability.state.COUNTERS` of its ``dump_state``.

        A journal may attach to a queue whose monotonic counters are
        already non-zero (messages came and went before durability was
        enabled); without this record a replay would reconstruct the
        counters from zero. No-op (returns ``None``) when everything is
        still at its defaults. Must be the journal's first record.
        """
        if self.last_seq != 0:
            raise ValueError("seed_baseline requires a fresh journal")
        counters = {name: dump[name] for name in COUNTERS}
        if counters == _FRESH_COUNTERS:
            return None
        return self.append("baseline", counters)

    def adopt(self, state) -> None:
        """Take over the open admissions and settle count of a state
        replayed and recovered (its ``recover`` record dropped every
        withdrawn message), to resume the journal where it left off."""
        latest = {m["task_uuid"]: mid for mid, m in sorted(state.messages.items())}
        self._open = {
            uuid: [[e[name] for name in codec.CARRIED_ADMIT], e["admit_seq"],
                   e["enqueued_at"], latest.get(uuid), e["acked"]]
            for uuid, e in state.open.items()
        }
        self.settled = state.settled

    # -- snapshots ----------------------------------------------------------------------
    @property
    def snapshot_due(self) -> bool:
        """Whether ``snapshot_every_records`` appends have passed since
        the last snapshot (or the resume point)."""
        return self.last_seq - self._snapshot_seq >= self.snapshot_every_records

    def _message_doc(self, message: dict) -> dict:
        """One message's snapshot entry, from its ``dump_state`` entry.
        A request with an open admission takes its body from it, as the
        fold does, plus the ``dispatch_tag`` it carries since."""
        body = message["body"]
        uuid = body.task_uuid
        doc = dict({name: message[name] for name in MESSAGE_FIELDS}, task_uuid=uuid)
        entry = self._open.get(uuid)
        if entry is None:
            doc["body"] = self.encode_body(body)
        else:
            doc.update(body=entry[0][-1], dispatch_tag=body.dispatch_tag)
        return doc

    def snapshot_doc(self, queue) -> dict:
        """The snapshot document of ``queue`` (the live queue this
        journal records) plus the journal's own tables — what
        :meth:`SystemState.to_doc <repro.durability.state.SystemState.
        to_doc>` of the replayed journal would be. Valid at a boundary
        only: with an admission held, the queue is ahead of the journal.
        """
        live = queue.dump_state()
        messages = dict(self._withdrawn)

        def add(message: dict) -> int:
            messages[message["message_id"]] = self._message_doc(message)
            return message["message_id"]

        ready = {topic: [add(m) for m in msgs] for topic, msgs in live["ready"].items()}
        inflight = [[tag, [add(m), m["claimed_at"]]] for tag, m in live["inflight"]]
        dead = [add(m) for m in live["dead"]]
        dead_uuids = {messages[mid]["task_uuid"] for mid in dead}
        return {
            "messages": [messages[mid] for mid in sorted(messages)],
            "ready": ready,
            "inflight": inflight,
            "withdrawn": list(self._withdrawn),
            "dead": dead,
            **{name: live[name] for name in COUNTERS},
            # Acked: the request's latest message is gone, not withdrawn.
            "open": [
                [uuid, dict(zip(codec.CARRIED_ADMIT, admit), admit_seq=admit_seq,
                            acked=acked or (mid is not None and mid not in messages),
                            dead=uuid in dead_uuids, enqueued_at=enqueued_at)]
                for uuid, (admit, admit_seq, enqueued_at, mid, acked) in self._open.items()
            ],
            "settled": self.settled,
            "last_seq": self.last_seq,
        }

    def snapshot_now(self, queue) -> None:
        """Persist :meth:`snapshot_doc` and truncate the covered records."""
        doc = codec.encode_doc(self.snapshot_doc(queue))
        self._snapshot_seq = self.last_seq
        self.snapshots_taken += 1
        self.store.write_snapshot(doc, self.last_seq, chaos=self.chaos)
