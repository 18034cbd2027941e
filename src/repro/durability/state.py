"""The replayable fold over journal records.

:class:`SystemState` is the single source of truth for what the journal
*means*: the snapshot format (``to_doc`` / ``from_doc``; the journal
writes the same document from the live queue at a boundary, see
:meth:`repro.durability.journal.Journal.snapshot_doc`) and the recovery
input (fold the snapshot doc plus the remaining records). The fold runs
only in replay — nothing folds on the write path — so it is also where
a record the live operations could not refuse is refused.

Record taxonomy (one record per public queue/gateway operation, so
every journal offset is an operation boundary — except that a released
request's ``admit`` rides its ``put``):

=============  =================================================================
``baseline``   seed counters/id cursors when a journal attaches to a queue
``put``        one message enqueued (``counted`` False for back-dated re-puts);
               holds the encoded ``body`` only when no ``admit`` does — a
               gateway-admitted request's put carries ``dispatch_tag``
               instead and the fold takes the body from the open entry.
               A put released by the door call that admitted its request
               also carries that ``admit`` (``admit`` not ``None``): the
               fold opens the request first, then enqueues it
``claim``      one ``claim``/``claim_many`` call — all its ``[mid, tag]`` pairs
``ack``        one ``ack`` call — the delivery tags of one dispatch,
               settled forever
``nack``       one delivery returned (``outcome`` ``"requeued"``/``"dead"``)
``withdraw``   ``withdraw_newest`` — tail messages handed back to the producer
``restore``    one withdrawn message returned to its topic tail
``admit``      gateway admission grant (tenant, servable, encoded request)
               of a request its door call left in a lane
``settle``     one ``on_settled`` call — the task uuids of the gateway-
               owned requests it delivered
``recover``    one crash recovery: the precomputed release plan (see
               :func:`repro.durability.recovery.plan_recover`)
=============  =================================================================

An ``ack`` or ``settle`` record names a list, and the fold takes it
whole or not at all: every member must be in flight (or open) and none
may repeat, checked before anything changes. An admission, standalone
or carried, of a request already open is refused the same way.

The ``recover`` record is itself journaled: a replay reproduces every
past recovery's releases deterministically, and because a recovered
queue materializes with an *empty* in-flight table, the visibility-
timeout reclaim (``expire_inflight``) can never re-release a delivery
the replay already released — the single-delivery-id idempotency the
chaos suite asserts.
"""

from __future__ import annotations

from collections import deque

from repro.durability.codec import JournalCorruption

#: The queue's counters and id cursors, named as ``TaskQueue.dump_state``,
#: a ``baseline`` record and a snapshot name them.
COUNTERS = (
    "total_enqueued", "total_acked", "total_redelivered",
    "topic_enqueued", "next_message_id", "next_tag",
)
#: The fields a message shares with its ``TaskQueue.dump_state`` entry,
#: less the body.
MESSAGE_FIELDS = ("message_id", "topic", "enqueued_at", "deliveries")


class SystemState:
    """Queue + gateway state as reconstructed from journal records."""

    def __init__(self) -> None:
        #: message_id -> {message_id, topic, enqueued_at, deliveries,
        #: task_uuid, body (encoded)}, plus ``dispatch_tag`` when the
        #: body is the admit record's (encoded before the gateway
        #: stamped the tag). Acked messages are deleted; dead ones are
        #: kept (the dead-letter list holds real messages).
        self.messages: dict[int, dict] = {}
        #: topic -> message_ids in FIFO order (index 0 = head).
        self.ready: dict[str, deque[int]] = {}
        #: delivery_tag -> [message_id, claimed_at], in claim order.
        self.inflight: dict[int, list] = {}
        #: message_ids handed back to a producer via ``withdraw_newest``
        #: and not yet restored (their bodies live on in the gateway's
        #: lane; recovery drops them and rebuilds the lane entries).
        self.withdrawn: list[int] = []
        #: message_ids that exhausted their deliveries, in drop order.
        self.dead: list[int] = []
        self.total_enqueued = 0
        self.total_acked = 0
        self.total_redelivered = 0
        self.topic_enqueued: dict[str, int] = {}
        self.next_message_id = 1
        self.next_tag = 1
        #: task_uuid -> {tenant, servable, arrived_at, weight, body,
        #: admit_seq, acked, dead, enqueued_at} for admitted-but-
        #: unsettled requests.
        self.open: dict[str, dict] = {}
        #: How many requests the gateway journaled as settled. A count,
        #: not the uuids: a settle pops its request from ``open``, which
        #: is what rejects a second settle, so snapshots stay
        #: O(open + queued) however long the run.
        self.settled = 0
        self.last_seq = 0

    # -- the fold -----------------------------------------------------------------
    def apply(self, seq: int, op: str, data: dict) -> None:
        """Fold one record into the state. Records must arrive in
        strictly increasing ``seq`` order (replay enforces it)."""
        if seq <= self.last_seq:
            raise JournalCorruption(
                f"record seq={seq} applied after seq={self.last_seq}"
            )
        handler = _HANDLERS.get(op)
        if handler is None:
            raise JournalCorruption(f"unknown journal op {op!r} at seq={seq}")
        handler(self, seq, data)
        self.last_seq = seq

    def _apply_baseline(self, seq: int, data: dict) -> None:
        for name in COUNTERS:
            setattr(self, name, data[name])
        self.topic_enqueued = dict(data["topic_enqueued"])

    def _apply_put(self, seq: int, data: dict) -> None:
        uuid = data["task_uuid"]
        if data["admit"] is not None:
            # Refuses an already-open uuid before anything changes.
            self._apply_admit(seq, {"task_uuid": uuid, **data["admit"]})
        entry = self.open.get(uuid)
        if data["body"] is None and entry is None:
            raise JournalCorruption(
                f"put at seq={seq} has no body and no open admit to take one from"
            )
        mid = data["message_id"]
        topic = data["topic"]
        msg = self.messages[mid] = {
            "message_id": mid,
            "topic": topic,
            "enqueued_at": data["enqueued_at"],
            "deliveries": 0,
            "task_uuid": uuid,
        }
        if data["body"] is not None:
            msg["body"] = data["body"]
        else:
            msg["body"] = entry["body"]
            msg["dispatch_tag"] = data["dispatch_tag"]
        self.ready.setdefault(topic, deque()).append(mid)
        if data["counted"]:
            self.total_enqueued += 1
            self.topic_enqueued[topic] = self.topic_enqueued.get(topic, 0) + 1
        if mid >= self.next_message_id:
            self.next_message_id = mid + 1
        if entry is not None:
            entry["enqueued_at"] = data["enqueued_at"]

    def _apply_claim(self, seq: int, data: dict) -> None:
        topic = data["topic"]
        chan = self.ready.get(topic, ())
        for mid, tag in data["claims"]:
            if not chan or chan[0] != mid:
                raise JournalCorruption(
                    f"claim at seq={seq} does not match topic {topic!r} head"
                )
            chan.popleft()
            self.messages[mid]["deliveries"] += 1
            self.inflight[tag] = [mid, data["claimed_at"]]
            if tag >= self.next_tag:
                self.next_tag = tag + 1

    def _apply_ack(self, seq: int, data: dict) -> None:
        tags = data["delivery_tags"]
        _require_all(seq, "ack", tags, self.inflight, "unknown delivery tag")
        for tag in tags:
            mid = self.inflight.pop(tag)[0]
            entry = self.open.get(self.messages[mid]["task_uuid"])
            if entry is not None:
                entry["acked"] = True
            del self.messages[mid]
        self.total_acked += len(tags)

    def _apply_nack(self, seq: int, data: dict) -> None:
        tag = data["delivery_tag"]
        _require_all(seq, "nack", [tag], self.inflight, "unknown delivery tag")
        mid = self.inflight.pop(tag)[0]
        if data["outcome"] == "requeued":
            self.ready.setdefault(self.messages[mid]["topic"], deque()).appendleft(mid)
            self.total_redelivered += 1
        else:
            self.dead.append(mid)
            entry = self.open.get(self.messages[mid]["task_uuid"])
            if entry is not None:
                entry["dead"] = True

    def _apply_withdraw(self, seq: int, data: dict) -> None:
        chan = self.ready.get(data["topic"], ())
        for mid in data["message_ids"]:  # newest first, matching the live pop order
            if not chan or chan[-1] != mid:
                raise JournalCorruption(
                    f"withdraw at seq={seq} does not match topic tail"
                )
            chan.pop()
            self.withdrawn.append(mid)

    def _apply_restore(self, seq: int, data: dict) -> None:
        mid = data["message_id"]
        if mid not in self.withdrawn:
            raise JournalCorruption(f"restore of never-withdrawn message {mid}")
        self.withdrawn.remove(mid)
        self.ready.setdefault(self.messages[mid]["topic"], deque()).append(mid)

    def _apply_admit(self, seq: int, data: dict) -> None:
        if data["task_uuid"] in self.open:
            raise JournalCorruption(
                f"admit at seq={seq} of already-open request {data['task_uuid']!r}"
            )
        self.open[data["task_uuid"]] = {
            "tenant": data["tenant"],
            "servable": data["servable"],
            "arrived_at": data["arrived_at"],
            "weight": data["weight"],
            "body": data["body"],
            "admit_seq": seq,
            "acked": False,
            "dead": False,
            "enqueued_at": None,
        }

    def _apply_settle(self, seq: int, data: dict) -> None:
        uuids = data["task_uuids"]
        _require_all(seq, "settle", uuids, self.open, "non-open request")
        for uuid in uuids:
            del self.open[uuid]
        self.settled += len(uuids)

    def _apply_recover(self, seq: int, data: dict) -> None:
        for topic in sorted(data["released"]):
            mids = data["released"][topic]
            self.ready.setdefault(topic, deque()).extendleft(reversed(mids))
            self.total_redelivered += len(mids)
        for mid in data["dead"]:
            self.dead.append(mid)
            entry = self.open.get(self.messages[mid]["task_uuid"])
            if entry is not None:
                entry["dead"] = True
        for mid in data["dropped"]:
            self.withdrawn.remove(mid)
            del self.messages[mid]
        self.inflight.clear()

    # -- snapshot format ----------------------------------------------------------
    def to_doc(self) -> dict:
        """The state as one document (the snapshot payload, framed by
        :func:`repro.durability.codec.encode_doc`)."""
        return {
            "messages": [self.messages[mid] for mid in sorted(self.messages)],
            "ready": {t: list(m) for t, m in sorted(self.ready.items()) if m},
            "inflight": [[tag, list(e)] for tag, e in self.inflight.items()],
            "withdrawn": list(self.withdrawn),
            "dead": list(self.dead),
            **self.counters(),
            "open": [[uuid, dict(e)] for uuid, e in self.open.items()],
            "settled": self.settled,
            "last_seq": self.last_seq,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> SystemState:
        """Rebuild a state from :meth:`to_doc` output."""
        state = cls()
        state.messages = {m["message_id"]: dict(m) for m in doc["messages"]}
        state.ready = {t: deque(m) for t, m in doc["ready"].items()}
        state.inflight = {tag: list(e) for tag, e in doc["inflight"]}
        state.withdrawn = list(doc["withdrawn"])
        state.dead = list(doc["dead"])
        state._apply_baseline(0, doc)  # the counters, as a baseline holds them
        state.open = {uuid: dict(e) for uuid, e in doc["open"]}
        state.settled = doc["settled"]
        state.last_seq = doc["last_seq"]
        return state

    # -- live views ---------------------------------------------------------------
    def counters(self) -> dict:
        """The :data:`COUNTERS`, by name (``topic_enqueued`` a sorted copy)."""
        counters = {name: getattr(self, name) for name in COUNTERS}
        counters["topic_enqueued"] = dict(sorted(self.topic_enqueued.items()))
        return counters

    def message_doc(self, mid: int, decode_body) -> dict:
        """One message in the shape :meth:`repro.messaging.queue.
        TaskQueue.dump_state` / ``load_state`` use, body decoded and
        carrying the ``dispatch_tag`` the live message held."""
        m = self.messages[mid]
        body = decode_body(m["body"])
        if "dispatch_tag" in m:
            body.dispatch_tag = m["dispatch_tag"]
        return dict({name: m[name] for name in MESSAGE_FIELDS}, body=body)

    def fingerprint(self, decode_body) -> dict:
        """Queue-observable state in the same shape as
        :meth:`repro.messaging.queue.TaskQueue.dump_state`, with bodies
        decoded: what a recovered queue loads, and the equality probe
        the replay property test compares against a live queue."""
        return {
            "ready": {
                t: [self.message_doc(mid, decode_body) for mid in mids]
                for t, mids in sorted(self.ready.items())
                if mids
            },
            "inflight": [
                [tag, dict(self.message_doc(mid, decode_body), claimed_at=claimed_at)]
                for tag, (mid, claimed_at) in sorted(self.inflight.items())
            ],
            "dead": [self.message_doc(mid, decode_body) for mid in self.dead],
            **self.counters(),
        }


def _require_all(seq: int, op: str, members: list, live, unknown: str) -> None:
    """Reject a list record whole: raise unless every member is in
    ``live`` and none repeats. Runs before the handler changes anything,
    so a rejected record leaves the state as it was."""
    if len(set(members)) != len(members):
        raise JournalCorruption(f"{op} at seq={seq} names a member twice")
    for member in members:
        if member not in live:
            raise JournalCorruption(f"{op} at seq={seq} of {unknown} {member!r}")


#: op -> fold handler, one per ``SystemState._apply_<op>`` method: the
#: record taxonomy is exactly the set of handlers defined above.
_HANDLERS = {
    name[len("_apply_"):]: handler
    for name, handler in vars(SystemState).items()
    if name.startswith("_apply_")
}
