"""The Task Manager (SS IV-B).

Deployed near compute, the Task Manager executes DLHub tasks: it routes
each to the right executor (inference tasks to serving executors,
everything else to the general Parsl executor) and writes each outcome
into the request's record. The
:class:`~repro.core.runtime.ServingRuntime` claims tasks off the queue
(and acks them) on its Task Managers' behalf, coalescing compatible
ones into micro-batches, and hands :meth:`TaskManager.process` the
records it claimed. The Task Manager also hosts the Parsl
memoization cache whose placement gives DLHub its ~1 ms memoized
invocation time (SS V-B5).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.executors import DLHubExecutor
from repro.core.memo import MemoCache
from repro.core.servable import Servable
from repro.core.tasks import BatchChunk, TaskStatus
from repro.messaging.queue import TaskQueue
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock

if TYPE_CHECKING:
    from repro.core.record import RequestRecord


class TaskManagerError(RuntimeError):
    """Raised on routing/registration failures."""


@dataclass
class ServableRegistration:
    """Where a servable is deployed and how to route to it."""

    servable: Servable
    executor_name: str


class TaskManager:
    """Executes claimed tasks via its executors."""

    def __init__(
        self,
        clock: VirtualClock,
        queue: TaskQueue,
        name: str = "task-manager",
        memoize: bool = True,
    ) -> None:
        self.clock = clock
        self.queue = queue
        self.name = name
        self.memoize = memoize
        self.cache = MemoCache(clock)
        self.executors: dict[str, DLHubExecutor] = {}
        self._registrations: dict[str, ServableRegistration] = {}
        self.tasks_processed = 0
        #: Liveness flag flipped by :meth:`crash` / :meth:`recover`
        #: (failure injection for fleet health tracking).
        self.alive = True
        self._liveness_watchers: list[weakref.WeakMethod] = []

    # -- liveness ---------------------------------------------------------------------
    def crash(self) -> None:
        """Failure injection: the worker process dies.

        A crashed worker fails :meth:`probe` and refuses to process tasks
        until :meth:`recover` is called; registrations and the memo cache
        survive (the paper's Task Managers restart near the same compute).
        """
        self.alive = False
        self._liveness_changed()

    def recover(self) -> None:
        """The worker process comes back up (state intact)."""
        self.alive = True
        self._liveness_changed()

    def watch_liveness(self, watcher: Callable[[], None]) -> None:
        """Call the bound method ``watcher`` after every :meth:`crash` /
        :meth:`recover`, so whoever caches this worker's liveness (a
        serving runtime's live-host lists and capacity budget) learns of
        a flip when it happens instead of probing every worker per tick.

        The reference is weak: a runtime that is dropped while its
        workers live on — crash recovery builds a fresh one over the
        surviving fleet — simply stops being told.
        """
        self._liveness_watchers.append(weakref.WeakMethod(watcher))

    def _liveness_changed(self) -> None:
        watching = []
        for ref in self._liveness_watchers:
            watcher = ref()
            if watcher is not None:
                watcher()
                watching.append(ref)
        self._liveness_watchers = watching

    def probe(self) -> bool:
        """Explicit health probe: is the worker process responsive?"""
        return self.alive

    # -- registration -----------------------------------------------------------------
    def add_executor(self, name: str, executor: DLHubExecutor) -> None:
        """Register an executor under ``name``."""
        if name in self.executors:
            raise TaskManagerError(f"executor {name!r} already registered")
        self.executors[name] = executor

    def register_servable(
        self,
        servable: Servable,
        image,
        executor_name: str = "parsl",
        replicas: int = 1,
    ) -> None:
        """Deploy a servable on the named executor and route to it."""
        executor = self.executors.get(executor_name)
        if executor is None:
            raise TaskManagerError(f"unknown executor {executor_name!r}")
        if not executor.supports(servable):
            raise TaskManagerError(
                f"executor {executor_name!r} cannot serve {servable.name!r} "
                f"(model_type={servable.metadata.model_type})"
            )
        executor.deploy(servable, image, replicas)
        self._registrations[servable.name] = ServableRegistration(servable, executor_name)

    def unregister_servable(self, servable_name: str) -> None:
        """Undeploy a servable from its executor and stop routing to it.

        The inverse of :meth:`register_servable`; the fleet controller
        uses it to shed placement copies when rebalancing or draining.
        """
        reg = self._registrations.pop(servable_name, None)
        if reg is None:
            raise TaskManagerError(f"servable {servable_name!r} is not registered")
        self.executors[reg.executor_name].undeploy(servable_name)

    def route(self, servable_name: str) -> tuple[Servable, DLHubExecutor]:
        """The servable and executor a request for ``servable_name`` goes to."""
        reg = self._registrations.get(servable_name)
        if reg is None:
            raise TaskManagerError(f"servable {servable_name!r} is not registered")
        return reg.servable, self.executors[reg.executor_name]

    def registered_servables(self) -> list[str]:
        """Names of the servables this Task Manager routes to, sorted."""
        return sorted(self._registrations)

    # -- task processing ------------------------------------------------------------------
    def process(
        self, records: list[RequestRecord]
    ) -> tuple[float, tuple[BatchChunk, ...], int, str | None]:
        """Execute claimed requests of one servable: one alone, or many
        as one micro-batch, writing each outcome into its record.

        Every record is looked up in the memo cache under its request's
        :meth:`~repro.core.tasks.TaskRequest.input_signature`, so a batch
        member and a lone request share one entry, and only the misses
        go to the executor: a lone request through ``invoke``, a batch's
        misses in one ``invoke_batch`` trip as ``(args, kwargs)`` calls.
        Status, value, error, inference share, invocation time and cache
        hit are written into every record.

        Returns the batch's own facts, ``(inference_time, chunks, hits,
        error)``: the executor's inference time, its replica chunks
        (indices into the dispatched misses), how many records the cache
        answered, and the error when nothing could be dispatched (routing,
        capability or executor failure), else ``None``. A dead chunk
        fails only its own records; a failure before any chunk ran fails
        every miss and leaves the hits written as hits.
        """
        if not self.alive:
            raise TaskManagerError(f"task manager {self.name!r} is down")
        clock = self.clock
        clock.advance(cal.TASK_MANAGER_HANDLING_S)
        # Invocation time starts when the TM makes a request to the
        # executor (SS V-A) — i.e. after unpackaging. A memo hit's
        # "invocation" is just the cache lookup (the Fig. 8 ~1 ms).
        start = clock.now()
        self.tasks_processed += 1
        hits = 0
        keys = None
        if self.memoize:
            cache = self.cache
            missing = cache.MISSING
            # The misses and their keys: one list each per batch.
            misses, keys = [], []
            for record in records:
                # One key per request, for the lookup and the store alike.
                key = cache.make_key(record.body.input_signature())
                value = cache.lookup(key)
                if value is missing:
                    misses.append(record)
                    keys.append(key)
                    continue
                record.status = TaskStatus.SUCCEEDED
                record.value = value
                record.error = None
                record.inference_time = 0.0
                record.cache_hit = True
                hits += 1
            if not misses:
                # Answered whole from the cache: no routing, no trip.
                invocation = clock.now() - start
                for record in records:
                    record.invocation_time = invocation
                return 0.0, (), hits, None
        else:
            misses = records

        # Routing (like the executor trip) is only paid when something
        # must be dispatched.
        clock.advance(cal.TASK_MANAGER_ROUTING_S)
        name = records[0].body.servable_name
        try:
            _, executor = self.route(name)
        except TaskManagerError as exc:
            return self._fail(records, misses, str(exc), start, hits)
        single = len(records) == 1
        if not single and not executor.supports_batching:
            error = f"executor {executor.label!r} does not support batching"
            return self._fail(records, misses, error, start, hits)
        invoke_start = clock.now()
        try:
            if single:
                request = records[0].body
                outcome = executor.invoke(name, request.args, request.kwargs)
            else:
                outcome = executor.invoke_batch(
                    # detlint: allow[HOT001] — the misses' calls, one list per batch
                    name, [(r.body.args, r.body.kwargs) for r in misses]
                )
        except Exception as exc:
            return self._fail(records, misses, f"{type(exc).__name__}: {exc}", start, hits)
        # Invocation time is "from when a request is made to the
        # executor to when the result is received" (SS V-A); items in a
        # batch complete together.
        invocation = clock.now() - invoke_start
        if single:
            record = records[0]
            record.status = TaskStatus.SUCCEEDED
            record.value = outcome.value
            record.error = None
            record.inference_time = outcome.inference_time
            record.invocation_time = invocation
            record.cache_hit = False
            if keys is not None:
                self.cache.store(keys[0], outcome.value)
            return outcome.inference_time, (), 0, None

        # Each dispatched miss is charged its replica chunk's share of
        # inference; a dead chunk's misses fail alone.
        values = outcome.value
        chunks = outcome.chunks
        for chunk in chunks:
            error = chunk.error
            if error is not None:
                for i in chunk.items:
                    misses[i].fail(error, invocation)
                continue
            share = chunk.inference_time / len(chunk.items)
            for i in chunk.items:
                record = misses[i]
                record.status = TaskStatus.SUCCEEDED
                record.value = values[i]
                record.error = None
                record.inference_time = share
                record.cache_hit = False
        if keys is not None:
            # Stored in miss order, which the LRU eviction order follows;
            # a dead chunk produced no value to store.
            store = self.cache.store
            for record, key in zip(misses, keys):
                if record.error is None:
                    store(key, record.value)
        for record in records:
            record.invocation_time = invocation
        return outcome.inference_time, chunks, hits, None

    def _fail(
        self,
        records: list[RequestRecord],
        misses: list[RequestRecord],
        error: str,
        start: float,
        hits: int,
    ) -> tuple[float, tuple[BatchChunk, ...], int, str]:
        """Nothing could be dispatched: every miss fails with ``error``."""
        invocation = self.clock.now() - start
        for record in records:
            record.invocation_time = invocation
        for record in misses:
            record.fail(error, invocation)
        return 0.0, (), hits, error
