"""One request's record, from the door it came in at to its settlement.

``ServingGateway._enter`` makes a :class:`RequestRecord` for each
admitted request (denials get one too), :meth:`ServingRuntime.submit`
for gateway-less traffic. The same object is then the item of the
request's WFQ lane entry, the queue's message (the record *is* a
:class:`QueuedMessage`), the micro-batch member the Task Manager writes
the outcome into, and what settlement hands the ingress and ``serve``
returns. Nothing is copied from one layer's object into the next; the
readings the layers' old result objects offered stay as properties.

A traced door writes onto the record the few facts a trace would need
and nothing else; settlement builds the request's trace from the record
only if the tracer keeps it (:meth:`~repro.core.telemetry.Tracer.settle_request`).
"""

from __future__ import annotations

from repro.core.tasks import TaskRequest, TaskResult, TaskStatus
from repro.messaging.queue import QueuedMessage


class RequestRecord(QueuedMessage):
    """One request's whole path through the serving stack.

    ``decision`` is the gateway's admission decision (``None`` for
    gateway-less traffic). ``arrived_at`` is when the request reached
    its door: the gateway's arrival or a runtime schedule's intended
    arrival (``None`` for a plain submit, which arrives as it enqueues).
    The outcome slots keep their defaults until dispatch writes them;
    ``completed_at`` is ``None`` until the request settles.

    The door facts a traced gateway writes: ``sampled`` is its
    head-sampling decision (``None`` when no traced door saw the
    request, which is then sampled at settlement), ``decided_at`` when
    admission was decided (the ``admission`` span's end), and
    ``reclaims`` is ``None`` until a reclaim, then each reclaim time
    followed by the time the request was released again.
    ``trace`` is the kept request's :class:`~repro.core.telemetry.Trace`
    (else ``None``): this incarnation's, so never on a journaled body.
    """

    __slots__ = (
        "decision",
        "arrived_at",
        "status",
        "value",
        "error",
        "inference_time",
        "invocation_time",
        "cache_hit",
        "worker",
        "batch_size",
        "completed_at",
        "sampled",
        "decided_at",
        "reclaims",
        "trace",
    )

    # Records are compared by identity: two requests are never equal.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, request: TaskRequest, decision=None, arrived_at: float | None = None
    ) -> None:
        self.body = request
        self.message_id = 0
        self.enqueued_at = self.claimed_at = self.delivery_tag = None
        self.topic = "default"
        self.deliveries = 0
        self.decision = decision
        self.arrived_at = arrived_at
        self.status = self.value = self.error = self.worker = self.completed_at = None
        self.inference_time = self.invocation_time = 0.0
        self.cache_hit = False
        self.batch_size = 0
        self.sampled = self.decided_at = self.reclaims = self.trace = None

    def fail(self, error: str | None, invocation_time: float) -> None:
        """Write a failed outcome in: its dispatch, or its chunk, died."""
        self.status = TaskStatus.FAILED
        self.value = None
        self.error = error
        self.inference_time = 0.0
        self.invocation_time = invocation_time
        self.cache_hit = False

    @property
    def request(self) -> TaskRequest:
        """The request this record follows."""
        return self.body

    @property
    def admitted(self) -> bool:
        """Whether admission let the request through (gateway-less
        traffic passes no admission)."""
        return self.decision is None or self.decision.admitted

    @property
    def completed(self) -> bool:
        """Whether the runtime has settled the request."""
        return self.completed_at is not None

    @property
    def ok(self) -> bool:
        """Settled with a successful outcome."""
        return self.completed_at is not None and self.status is TaskStatus.SUCCEEDED

    @property
    def arrival_time(self) -> float:
        """``arrived_at``, or the enqueue time without a door arrival."""
        return self.enqueued_at if self.arrived_at is None else self.arrived_at

    @property
    def latency(self) -> float:
        """Arrival at the door to completion (lane wait included)."""
        if self.completed_at is None:
            raise ValueError(f"request {self.body.task_uuid!r} has not completed")
        return self.completed_at - self.arrival_time

    @property
    def result(self) -> TaskResult | None:
        """The outcome as a :class:`TaskResult`, built when read (``None``
        before dispatch) — what the Management Service returns."""
        if self.status is None:
            return None
        return TaskResult(
            task_uuid=self.body.task_uuid,
            status=self.status,
            value=self.value,
            error=self.error,
            inference_time=self.inference_time,
            invocation_time=self.invocation_time,
            cache_hit=self.cache_hit,
        )

    @property
    def runtime_result(self) -> _RuntimeReading | None:
        """The settled record read from the runtime's side, where arrival
        is the enqueue of the queue entry served (``None`` while open)."""
        return _RuntimeReading(self) if self.completed_at is not None else None


class _RuntimeReading:
    """A settled record whose ``arrival_time`` and ``latency`` start at
    its queue entry; every other attribute is the record's."""

    __slots__ = ("_record",)

    def __init__(self, record: RequestRecord) -> None:
        self._record = record

    def __getattr__(self, name: str):
        return getattr(self._record, name)

    arrival_time = property(lambda self: self._record.enqueued_at)
    latency = property(lambda self: self._record.completed_at - self._record.enqueued_at)
