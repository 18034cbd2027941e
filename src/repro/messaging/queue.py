"""Reliable task queue with acknowledgements and redelivery.

The paper (SS IV-A) says the ZeroMQ queue "provides a reliable messaging
model that ensures tasks are received and executed". This module implements
that contract explicitly:

* producers :meth:`TaskQueue.put` messages;
* consumers :meth:`TaskQueue.claim` a message, which makes it *in flight*
  with a visibility timeout;
* consumers must :meth:`TaskQueue.ack` within the timeout (one call may
  settle a whole claimed batch) or the message is redelivered (to any
  consumer) by :meth:`TaskQueue.expire_inflight`;
* :meth:`TaskQueue.nack` returns a message to the queue immediately (used
  on worker failure).

Redelivery count is tracked so failure-injection tests can assert
at-least-once semantics.

The queue can optionally journal every mutation to a write-ahead log
(:meth:`TaskQueue.attach_journal`): one record per public operation call
— a ``put`` may also carry the gateway admission of its request, which
the journal supplies — appended duck-typed so this module never imports
the durability package. :meth:`TaskQueue.dump_state` /
:meth:`TaskQueue.load_state` are the introspection/rehydration pair
crash recovery builds on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Container
from dataclasses import dataclass, field
from typing import Any

from repro.sim.clock import VirtualClock

#: The redelivery policy: a claim not acked within this many seconds is
#: redelivered, and a message is dead-lettered after this many
#: deliveries. :class:`TaskQueue` and crash recovery (which dead-letters
#: on replay and builds the recovered queue) both default to these.
VISIBILITY_TIMEOUT_S = 30.0
MAX_DELIVERIES = 5


class QueueEmpty(Exception):
    """Raised by ``claim`` when no message is available."""


def servable_topic(servable_name: str, lane: str = "requests") -> str:
    """Queue topic carrying single-item requests for one servable.

    Per-servable topics let a consumer coalesce compatible requests at
    claim time (``claim_many``): every message on the topic targets the
    same servable, so any contiguous run of them forms a valid batch.

    ``lane`` separates traffic that must not be claimed together: the
    serving runtime gives each tenant its own lane (``"tenant-<name>"``),
    so a coalesced micro-batch never mixes tenants; untagged requests
    ride the default lane.
    """
    return f"servable/{lane}/{servable_name}"


class UnknownDelivery(KeyError):
    """Raised by ``ack``/``nack`` for an unknown or already-settled tag
    (or a tag named twice in one ``ack``)."""


@dataclass
class QueuedMessage:
    """A message plus its delivery bookkeeping."""

    body: Any
    message_id: int
    enqueued_at: float
    topic: str = "default"
    deliveries: int = 0
    claimed_at: float | None = None
    delivery_tag: int | None = field(default=None, repr=False)


class TaskQueue:
    """At-least-once FIFO queue with per-topic channels.

    The redelivery defaults are :data:`VISIBILITY_TIMEOUT_S` and
    :data:`MAX_DELIVERIES`, the one policy crash recovery shares.
    """

    def __init__(
        self,
        clock: VirtualClock,
        visibility_timeout_s: float = VISIBILITY_TIMEOUT_S,
        max_deliveries: int = MAX_DELIVERIES,
    ) -> None:
        if visibility_timeout_s <= 0:
            raise ValueError("visibility_timeout_s must be > 0")
        if max_deliveries < 1:
            raise ValueError("max_deliveries must be >= 1")
        self.clock = clock
        self.visibility_timeout_s = visibility_timeout_s
        self.max_deliveries = max_deliveries
        self._ready: dict[str, deque[QueuedMessage]] = {}
        #: delivery tag -> claimed message, **in claim order**: entries
        #: are only ever appended (under a fresh tag, stamped with the
        #: monotone virtual clock) or removed, so iteration runs from
        #: the oldest ``claimed_at`` — the first claim to expire — to
        #: the newest. The expiry sweep and the next-expiry peek walk
        #: from the front and stop early instead of filtering the table.
        self._inflight: dict[int, QueuedMessage] = {}
        #: topic -> claimed-but-unsettled messages on it; moved wherever
        #: ``_inflight`` gains or loses an entry.
        self._inflight_by_topic: dict[str, int] = {}
        self._dead: list[QueuedMessage] = []
        # Plain-int id cursors (not itertools.count): dump_state must
        # export them and load_state re-seed them for crash recovery.
        self._next_message_id = 1
        self._next_tag = 1
        #: Optional write-ahead journal (duck-typed; see
        #: :meth:`attach_journal`). ``None`` keeps the legacy in-memory
        #: behaviour bit-for-bit.
        self.journal = None
        self.total_enqueued = 0
        self.total_acked = 0
        self.total_redelivered = 0
        self._topic_enqueued: dict[str, int] = {}
        #: Ready-set change listeners, ``cb(topic, delta_ready)`` — the
        #: event feed incremental consumers (the serving runtime's
        #: dispatch indices) maintain their per-topic state from, instead
        #: of rescanning every topic per tick.
        self._listeners: list = []
        #: Dead-letter listeners, ``cb(message)`` — fired when a message
        #: exhausts ``max_deliveries`` (or is nacked with
        #: ``requeue=False``) and drops out of circulation. A message
        #: parked on the dead-letter list will never settle, so anything
        #: holding per-request state keyed on settlement (open gateway
        #: results, trace contexts) needs this signal to close it out.
        self._dead_listeners: list = []

    def subscribe(self, listener) -> None:
        """Register ``listener(topic, delta_ready)`` for ready-set changes.

        The callback fires on every mutation of a topic's *ready* set:
        ``+1`` on :meth:`put`, :meth:`restore`, and requeueing
        :meth:`nack`; ``-1`` per message claimed or withdrawn. Acks and
        dead-letterings touch only in-flight state and do not fire.
        Listeners must not mutate the queue reentrantly.
        """
        self._listeners.append(listener)

    def subscribe_dead_letter(self, listener) -> None:
        """Register ``listener(message)`` for dead-letter drops.

        Fires exactly once per message, at the moment it is appended to
        the dead-letter list. Listeners must not mutate the queue
        reentrantly.
        """
        self._dead_listeners.append(listener)

    def _notify(self, topic: str, delta: int) -> None:
        for listener in self._listeners:
            listener(topic, delta)

    # -- producer side ----------------------------------------------------------
    def put(
        self, body: Any, topic: str = "default", enqueued_at: float | None = None
    ) -> QueuedMessage:
        """Enqueue ``body`` on ``topic``; returns the queued message.

        ``enqueued_at`` back-dates the message's timestamp (it may not
        be in the future): a producer re-submitting work it previously
        withdrew passes the original enqueue time, so wait-time metrics
        and coalescing deadlines keyed on the timestamp keep seeing the
        request's true age. A back-dated put is a *re*-submission of an
        arrival the counters already saw (:meth:`withdraw_newest` keeps
        them), so it does not increment ``enqueued_count`` again —
        rate estimators reading counter deltas must not see a phantom
        demand spike every time withdrawn work is re-released.
        """
        now = self.clock.now()
        if enqueued_at is not None and enqueued_at > now:
            raise ValueError("enqueued_at may not be in the future")
        msg = QueuedMessage(
            body=body,
            message_id=self._next_message_id,
            enqueued_at=now if enqueued_at is None else enqueued_at,
            topic=topic,
        )
        if self.journal is not None:  # first: a body it refuses changes nothing
            self.journal.put(
                topic, msg.message_id, msg.enqueued_at, enqueued_at is None, body
            )
        self._next_message_id += 1
        self._ready.setdefault(topic, deque()).append(msg)
        if enqueued_at is None:
            self.total_enqueued += 1
            self._topic_enqueued[topic] = self._topic_enqueued.get(topic, 0) + 1
        self._notify(topic, +1)
        return msg

    # -- consumer side ----------------------------------------------------------
    def claim(self, topic: str = "default") -> QueuedMessage:
        """Claim the next ready message on ``topic``.

        Raises :class:`QueueEmpty` if nothing is ready.
        """
        chan = self._ready.get(topic)
        if not chan:
            raise QueueEmpty(topic)
        msg = self._claim_from(chan)
        self._journal_claim(topic, [msg])
        return msg

    def claim_many(self, topic: str = "default", n: int = 1) -> list[QueuedMessage]:
        """Claim up to ``n`` ready messages on ``topic``, in FIFO order.

        This is the coalescing primitive: on a per-servable topic the
        claimed run is a ready-made micro-batch. Each message gets its own
        delivery tag and visibility timeout, so a partially-failed batch
        can be settled message by message.

        Raises :class:`QueueEmpty` if nothing is ready.
        """
        if n < 1:
            raise ValueError("claim_many requires n >= 1")
        chan = self._ready.get(topic)
        if not chan:
            raise QueueEmpty(topic)
        msgs = []
        while chan and len(msgs) < n:
            msgs.append(self._claim_from(chan))
        self._journal_claim(topic, msgs)
        return msgs

    def _claim_from(self, chan: deque[QueuedMessage]) -> QueuedMessage:
        msg = chan.popleft()
        msg.deliveries += 1
        msg.claimed_at = self.clock.now()
        msg.delivery_tag = self._next_tag
        self._next_tag += 1
        self._inflight[msg.delivery_tag] = msg
        self._inflight_by_topic[msg.topic] = (
            self._inflight_by_topic.get(msg.topic, 0) + 1
        )
        self._notify(msg.topic, -1)
        return msg

    def _settle_claim(self, delivery_tag: int) -> QueuedMessage:
        """Take a claim out of the in-flight table (ack and nack both
        end one); raises :class:`UnknownDelivery` for a tag not in it."""
        msg = self._inflight.pop(delivery_tag, None)
        if msg is None:
            raise UnknownDelivery(delivery_tag)
        left = self._inflight_by_topic[msg.topic] - 1
        if left:
            self._inflight_by_topic[msg.topic] = left
        else:
            del self._inflight_by_topic[msg.topic]
        return msg

    def _journal_claim(self, topic: str, msgs: list[QueuedMessage]) -> None:
        # One record per claim *call* (claim_many included), so every
        # journal offset is a public-operation boundary.
        if self.journal is not None:
            claims = [[m.message_id, m.delivery_tag] for m in msgs]
            self.journal.append("claim", (topic, claims, msgs[0].claimed_at))

    def ack(self, *delivery_tags: int) -> None:
        """Settle claimed messages; none of them will be redelivered.

        All or nothing: unless every tag is in flight and none repeats,
        :class:`UnknownDelivery` is raised and nothing settles. One call
        journals one ``ack`` record, so a consumer acking its whole
        micro-batch at once writes one record for it.
        """
        if not delivery_tags:
            raise ValueError("ack requires at least one delivery tag")
        for tag in delivery_tags:
            if tag not in self._inflight:
                raise UnknownDelivery(tag)
        if len(delivery_tags) > 1 and len(set(delivery_tags)) < len(delivery_tags):
            raise UnknownDelivery(f"delivery tags repeat: {delivery_tags}")
        for tag in delivery_tags:
            self._settle_claim(tag)
        self.total_acked += len(delivery_tags)
        if self.journal is not None:
            self.journal.append("ack", (delivery_tags,))

    def nack(self, delivery_tag: int, requeue: bool = True) -> None:
        """Return a claimed message to the queue (or dead-letter it)."""
        msg = self._settle_claim(delivery_tag)
        msg.claimed_at = None
        msg.delivery_tag = None
        requeued = requeue and msg.deliveries < self.max_deliveries
        if self.journal is not None:
            # The record carries the live outcome so a replay needs no
            # knowledge of this queue's max_deliveries configuration.
            self.journal.append(
                "nack", (delivery_tag, "requeued" if requeued else "dead")
            )
        if requeued:
            self._ready.setdefault(msg.topic, deque()).appendleft(msg)
            self.total_redelivered += 1
            self._notify(msg.topic, +1)
        else:
            self._dead.append(msg)
            for listener in self._dead_listeners:
                listener(msg)

    def withdraw_newest(self, topic: str, n: int = 1) -> list[QueuedMessage]:
        """Withdraw up to ``n`` ready messages from the *tail* of ``topic``.

        The inverse of :meth:`put`, for producers taking work back: a
        gateway whose dispatch budget shrank below its outstanding
        releases reclaims the most recently released (least likely to
        be near dispatch) messages and re-queues them in its own fair
        lanes. Withdrawn messages were never claimed, so no delivery
        bookkeeping is touched; the cumulative ``enqueued_count`` is
        *not* rolled back (it is a monotonic arrival counter, and the
        arrivals did happen). Returns the withdrawn messages,
        newest first.
        """
        if n < 1:
            raise ValueError("withdraw_newest requires n >= 1")
        chan = self._ready.get(topic)
        withdrawn: list[QueuedMessage] = []
        while chan and len(withdrawn) < n:
            withdrawn.append(chan.pop())
            self._notify(topic, -1)
        if withdrawn and self.journal is not None:
            self.journal.withdraw(topic, withdrawn)
        return withdrawn

    def restore(self, message: QueuedMessage) -> None:
        """Return a withdrawn (never-claimed) message to its topic's tail.

        The undo of :meth:`withdraw_newest` for messages the withdrawer
        decides not to keep: the original ``enqueued_at`` is preserved
        and no arrival is re-counted.
        """
        if self.journal is not None:
            self.journal.restore(message)
        self._ready.setdefault(message.topic, deque()).append(message)
        self._notify(message.topic, +1)

    def expire_inflight(self) -> int:
        """Redeliver in-flight messages whose visibility timeout has lapsed.

        Returns the number of messages redelivered (or dead-lettered).
        """
        now = self.clock.now()
        # Small epsilon guards against float accumulation on the virtual
        # clock making `now - claimed_at` land just under the timeout.
        threshold = self.visibility_timeout_s - 1e-9
        expired = []
        for tag, msg in self._inflight.items():
            # Claim order is expiry order: nothing past the first live
            # claim can have lapsed.
            if now - msg.claimed_at < threshold:
                break
            expired.append(tag)
        for tag in expired:
            self.nack(tag, requeue=True)
        return len(expired)

    # -- durability -------------------------------------------------------------
    def attach_journal(self, journal, *, bootstrap: bool = True) -> None:
        """Start journaling every mutation to ``journal`` (write-ahead).

        ``journal`` is duck-typed (see
        :class:`repro.durability.journal.Journal`): it must expose
        ``append(op, values)`` (values in record-field order),
        ``put(...)``, ``withdraw(...)``, ``restore(message)`` and
        ``seed_baseline(dump)``. With ``bootstrap`` (the default) the
        queue must hold no messages — its monotonic counters and id
        cursors are seeded into the journal as a ``baseline`` record so
        a replay reconstructs them. Recovery attaches with
        ``bootstrap=False``: the journal already continues the replayed
        records this queue was materialized from.
        """
        if self.journal is not None:
            raise ValueError("queue already has a journal attached")
        if bootstrap:
            if len(self) or self._inflight or self._dead:
                raise ValueError(
                    "attach_journal(bootstrap=True) requires a queue with "
                    "no messages (counters may be non-zero)"
                )
            journal.seed_baseline(self.dump_state())
        self.journal = journal

    def dump_state(self) -> dict:
        """The queue's full observable state as one plain document.

        The replay property test compares this against
        :meth:`repro.durability.state.SystemState.fingerprint` — the
        two must produce the identical shape. Bodies are the live
        objects (callers comparing across a pickle round-trip rely on
        value equality).
        """

        def doc(msg: QueuedMessage, claimed: bool = False) -> dict:
            entry = {
                "message_id": msg.message_id,
                "topic": msg.topic,
                "enqueued_at": msg.enqueued_at,
                "deliveries": msg.deliveries,
                "body": msg.body,
            }
            if claimed:
                entry["claimed_at"] = msg.claimed_at
            return entry

        return {
            "ready": {
                topic: [doc(m) for m in chan]
                for topic, chan in sorted(self._ready.items())
                if chan
            },
            "inflight": [
                [tag, doc(self._inflight[tag], claimed=True)]
                for tag in sorted(self._inflight)
            ],
            "dead": [doc(m) for m in self._dead],
            "total_enqueued": self.total_enqueued,
            "total_acked": self.total_acked,
            "total_redelivered": self.total_redelivered,
            "topic_enqueued": dict(sorted(self._topic_enqueued.items())),
            "next_message_id": self._next_message_id,
            "next_tag": self._next_tag,
        }

    def load_state(self, state: dict) -> None:
        """Install recovered contents (the inverse of :meth:`dump_state`,
        minus in-flight entries — recovery re-releases those *before*
        materializing, so a fresh queue never holds phantom claims).

        Requires a pristine queue. No ready-set events fire: consumers
        (the serving runtime) attach after materialization and baseline
        their indices from the loaded depths.
        """
        if (
            self.total_enqueued
            or self.total_acked
            or len(self)
            or self._inflight
            or self._dead
        ):
            raise ValueError("load_state requires a fresh queue")

        def message(doc: dict, topic: str) -> QueuedMessage:
            return QueuedMessage(
                body=doc["body"],
                message_id=doc["message_id"],
                enqueued_at=doc["enqueued_at"],
                topic=topic,
                deliveries=doc["deliveries"],
            )

        for topic in state["ready"]:
            self._ready[topic] = deque(
                message(doc, topic) for doc in state["ready"][topic]
            )
        for doc in state["dead"]:
            self._dead.append(message(doc, doc["topic"]))
        self.total_enqueued = state["total_enqueued"]
        self.total_acked = state["total_acked"]
        self.total_redelivered = state["total_redelivered"]
        self._topic_enqueued = dict(state["topic_enqueued"])
        self._next_message_id = state["next_message_id"]
        self._next_tag = state["next_tag"]

    # -- introspection ----------------------------------------------------------
    def ready_count(self, topic: str = "default") -> int:
        """Messages ready (unclaimed) on ``topic``."""
        return len(self._ready.get(topic, ()))

    def enqueued_count(self, topic: str = "default") -> int:
        """Cumulative number of messages ever ``put`` on ``topic``.

        Monotonic (redeliveries don't count), so consumers can estimate a
        topic's arrival rate from the delta between two samples — the
        signal a fleet controller scales on.
        """
        return self._topic_enqueued.get(topic, 0)

    def oldest_ready(self, topic: str = "default") -> QueuedMessage | None:
        """Peek at the head message on ``topic`` without claiming it.

        Consumers that hold a coalescing window open use the head's
        ``enqueued_at`` to decide when the window must close.
        """
        chan = self._ready.get(topic)
        return chan[0] if chan else None

    def next_inflight_expiry(
        self, topics: Container[str] | None = None
    ) -> float | None:
        """Earliest virtual time an in-flight visibility timeout lapses.

        Event-driven consumers sleep until this moment to pick up work
        abandoned by a crashed claimant; ``None`` when nothing relevant
        is in flight. ``topics`` restricts the answer to the caller's own
        channels on a shared queue: the oldest claim on one of them, found
        by walking past whatever older claims other consumers hold. A
        consumer that acks what it claims before it sleeps need not ask
        at all while :attr:`inflight_count` is zero.
        """
        for msg in self._inflight.values():
            if topics is None or msg.topic in topics:
                return msg.claimed_at + self.visibility_timeout_s
        return None

    @property
    def inflight_count(self) -> int:
        """Claimed-but-unsettled messages across every topic — zero means
        :meth:`expire_inflight` has nothing to redeliver and
        :meth:`next_inflight_expiry` nothing to report, which is the
        O(1) test the serve loop makes before calling either."""
        return len(self._inflight)

    def inflight_count_for(self, topic: str) -> int:
        """Claimed-but-unsettled messages on one topic.

        Lane lifecycle management uses this: a lane whose topic still
        has claims outstanding (a consumer crashed mid-batch and the
        visibility timeout hasn't lapsed) must not be garbage-collected,
        or the redelivered messages would land on an unscanned topic.
        """
        return self._inflight_by_topic.get(topic, 0)

    @property
    def dead_letters(self) -> list[QueuedMessage]:
        """Messages that exhausted their delivery attempts."""
        return list(self._dead)

    def topics(self) -> list[str]:
        """Topics that currently hold ready messages."""
        return [t for t, q in self._ready.items() if q]

    def __len__(self) -> int:
        return sum(len(q) for q in self._ready.values())
