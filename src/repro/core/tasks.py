"""Task envelopes, results, and status tracking (sync + async modes)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class TaskStatus(Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


_task_counter = itertools.count(1)
#: Task ids come from a process-local counter, not ``uuid.uuid4()``:
#: random ids made every replayed run's traces, journals, and Chrome
#: trace exports incomparable to the original. Uniqueness within one
#: simulated deployment is all the id is for.
_uuid_counter = itertools.count(1)


def normalize_batch_item(item: Any) -> tuple[tuple, dict]:
    """Normalize one batch entry to ``(args, kwargs)``.

    Accepted forms:

    * ``((arg1, arg2), {"kw": v})`` — an explicit ``(args, kwargs)`` pair,
    * ``(arg1, arg2)`` — a positional-args tuple (kwargs empty),
    * anything else — a single positional argument.

    A genuine two-tuple argument list whose first element is a tuple and
    second a dict is indistinguishable from the pair form; spell it as
    ``((the_tuple, the_dict), {})`` to disambiguate.
    """
    if (
        isinstance(item, tuple)
        and len(item) == 2
        and isinstance(item[0], tuple)
        and isinstance(item[1], dict)
    ):
        return item[0], dict(item[1])
    if isinstance(item, tuple):
        return item, {}
    return (item,), {}


@dataclass
class TaskRequest:
    """One serving request as packaged by the Management Service."""

    servable_name: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: Owner identity id (authorization was performed at the MS).
    identity_id: str | None = None
    #: Tenant the serving gateway resolved the caller to (None until the
    #: request passes admission). Tags travel end-to-end: coalesced
    #: micro-batches keep each item's original request, so per-item
    #: tenant attribution survives batching.
    tenant: str | None = None
    #: WFQ virtual-finish tag stamped by the gateway when the request is
    #: released into the runtime. The serving runtime's dispatch
    #: arbitration (`ServingRuntime._next_window`) breaks ties between
    #: due coalescing windows by this tag, so cross-lane fairness holds
    #: at the dispatch decision itself rather than only at release time.
    #: ``None`` for untagged (gateway-less) traffic, which keeps the
    #: legacy oldest-head-first order.
    dispatch_tag: float | None = None
    #: Batch of inputs (mutually exclusive with args for batched tasks).
    batch: list | None = None
    #: Trace context (a :class:`repro.core.telemetry.Trace`) riding the
    #: request envelope end-to-end: it survives queueing, WFQ reclaim /
    #: re-release, and batch coalescing (batch envelopes are transient —
    #: per-item traces stay on the original requests). ``None`` when no
    #: tracer is attached.
    trace: Any = None
    task_uuid: str = field(default_factory=lambda: f"task-{next(_uuid_counter):010d}")
    sequence: int = field(default_factory=lambda: next(_task_counter))

    @property
    def is_batch(self) -> bool:
        return self.batch is not None

    def input_signature(self) -> tuple:
        """Hashable-ish signature of the inputs, used for memoization."""
        return (self.servable_name, self.args, tuple(sorted(self.kwargs.items())))

    def item_signature(self, item: Any) -> tuple:
        """Memo signature for one batch item.

        Built exactly like :meth:`input_signature` so a batch item and an
        equivalent single-item request share one cache entry.
        """
        args, kwargs = normalize_batch_item(item)
        return (self.servable_name, args, tuple(sorted(kwargs.items())))


@dataclass(frozen=True)
class BatchChunk:
    """One replica-chunk of a dispatched batch.

    A replica-aware executor shards a batch across ready pods; each
    chunk runs concurrently on one pod and succeeds or fails on its
    own. ``items`` indexes into the batch the chunk was cut from — the
    executor reports indices into the dispatched (miss) list, and the
    Task Manager rebases them onto the original batch items so callers
    fanning results back out (``ServingRuntime._split_batch``) can
    charge per-chunk inference shares and fail only the chunk that
    actually failed.
    """

    items: tuple[int, ...]
    #: Name of the replica pod that served (or dropped) the chunk.
    pod: str
    #: The chunk's own busy time (queue wait at the pod + execution).
    inference_time: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class TaskResult:
    """The outcome of one task, with its timing decomposition."""

    task_uuid: str
    status: TaskStatus
    value: Any = None
    error: str | None = None
    #: Time inside the servable (captured at the servable).
    inference_time: float = 0.0
    #: Executor round-trip as seen by the Task Manager.
    invocation_time: float = 0.0
    #: Full round-trip as seen by the Management Service.
    request_time: float = 0.0
    cache_hit: bool = False
    #: For batch tasks: how many items were served from the memo cache
    #: (only the remaining misses were dispatched to an executor).
    batch_cache_hits: int = 0
    #: For batch tasks: the indices of the memo-hit items.
    batch_hits: tuple[int, ...] = ()
    #: For batch tasks: how the dispatched misses were sharded across
    #: replica pods, with per-chunk timing and per-chunk failures
    #: (indices are into the original batch items). Empty when nothing
    #: was dispatched or the executor predates replica-aware batching.
    batch_chunks: tuple[BatchChunk, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status is TaskStatus.SUCCEEDED


class TaskStore:
    """Async-task status store at the Management Service.

    ``run_async`` returns a UUID; clients poll :meth:`get` until the task
    reaches a terminal state (SS IV-A, asynchronous mode).
    """

    def __init__(self) -> None:
        self._status: dict[str, TaskStatus] = {}
        self._results: dict[str, TaskResult] = {}

    def create(self, task_uuid: str) -> None:
        self._status[task_uuid] = TaskStatus.PENDING

    def mark_running(self, task_uuid: str) -> None:
        self._require(task_uuid)
        self._status[task_uuid] = TaskStatus.RUNNING

    def complete(self, result: TaskResult) -> None:
        self._require(result.task_uuid)
        self._status[result.task_uuid] = result.status
        self._results[result.task_uuid] = result

    def status(self, task_uuid: str) -> TaskStatus:
        self._require(task_uuid)
        return self._status[task_uuid]

    def result(self, task_uuid: str) -> TaskResult:
        self._require(task_uuid)
        result = self._results.get(task_uuid)
        if result is None:
            raise KeyError(f"task {task_uuid} has not completed")
        return result

    def _require(self, task_uuid: str) -> None:
        if task_uuid not in self._status:
            raise KeyError(f"unknown task {task_uuid}")
