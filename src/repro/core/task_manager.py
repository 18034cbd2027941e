"""The Task Manager (SS IV-B).

Deployed near compute, the Task Manager executes DLHub tasks: it routes
each to the right executor (inference tasks to serving executors,
everything else to the general Parsl executor) and returns results. The
:class:`~repro.core.runtime.ServingRuntime` claims tasks off the queue
(and acks them) on its Task Managers' behalf, coalescing compatible
ones into micro-batches. The Task Manager also hosts the Parsl
memoization cache whose placement gives DLHub its ~1 ms memoized
invocation time (SS V-B5).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.executors import DLHubExecutor
from repro.core.memo import MemoCache
from repro.core.servable import Servable
from repro.core.tasks import BatchChunk, TaskRequest, TaskResult, TaskStatus
from repro.messaging.queue import TaskQueue
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock


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
    def process(self, request: TaskRequest) -> TaskResult:
        """Execute one request: unpackage, memo-check, route, invoke."""
        if not self.alive:
            raise TaskManagerError(f"task manager {self.name!r} is down")
        self.clock.advance(cal.TASK_MANAGER_HANDLING_S)
        # Invocation time starts when the TM makes a request to the
        # executor (SS V-A) — i.e. after unpackaging. A memo hit's
        # "invocation" is just the cache lookup (the Fig. 8 ~1 ms).
        start = self.clock.now()
        if request.is_batch:
            return self._process_batch(request, start)

        if self.memoize:
            # One key per request, for the lookup and the store alike.
            key = self.cache.make_key(request.input_signature())
            cached = self.cache.lookup(key)
            if cached is not self.cache.MISSING:
                self.tasks_processed += 1
                return TaskResult(
                    task_uuid=request.task_uuid,
                    status=TaskStatus.SUCCEEDED,
                    value=cached,
                    inference_time=0.0,
                    invocation_time=self.clock.now() - start,
                    cache_hit=True,
                )

        self.clock.advance(cal.TASK_MANAGER_ROUTING_S)
        try:
            servable, executor = self.route(request.servable_name)
        except TaskManagerError as exc:
            self.tasks_processed += 1
            return TaskResult(
                task_uuid=request.task_uuid,
                status=TaskStatus.FAILED,
                error=str(exc),
                invocation_time=self.clock.now() - start,
            )
        invoke_start = self.clock.now()
        try:
            outcome = executor.invoke(request.servable_name, request.args, request.kwargs)
        except Exception as exc:
            self.tasks_processed += 1
            return TaskResult(
                task_uuid=request.task_uuid,
                status=TaskStatus.FAILED,
                error=f"{type(exc).__name__}: {exc}",
                invocation_time=self.clock.now() - start,
            )
        if self.memoize:
            self.cache.store(key, outcome.value)
        self.tasks_processed += 1
        return TaskResult(
            task_uuid=request.task_uuid,
            status=TaskStatus.SUCCEEDED,
            value=outcome.value,
            inference_time=outcome.inference_time,
            # Invocation time is "from when a request is made to the
            # executor to when the result is received" (SS V-A).
            invocation_time=self.clock.now() - invoke_start,
        )

    def _process_batch(self, request: TaskRequest, start: float) -> TaskResult:
        """Batch path: memo-check every item, dispatch only the misses.

        Each item is looked up (and each miss's result stored) under the
        same signature an equivalent single-item request would use, so
        batches and singles share one cache. A fully-memoized batch never
        touches the cluster — the Fig. 8 placement win now applies per
        batch item, not just to single requests.
        """
        items = list(request.batch or [])
        values: list[Any] = [None] * len(items)
        keys: list[bytes | None] = [None] * len(items)
        misses: list[int] = []
        for i, item in enumerate(items):
            if self.memoize:
                keys[i] = self.cache.make_key(request.item_signature(item))
                cached = self.cache.lookup(keys[i])
                if cached is not self.cache.MISSING:
                    values[i] = cached
                    continue
            misses.append(i)
        miss_set = set(misses)
        hit_indices = tuple(i for i in range(len(items)) if i not in miss_set)
        hits = len(hit_indices)

        # All-hit batches never dispatch: their invocation is the cache
        # lookup pass from ``start``, as in the single-item hit path.
        invoke_start = start
        inference_time = 0.0
        if misses:
            # Routing (like the executor trip) is only paid when something
            # must be dispatched — an all-hit batch returns from cache
            # exactly as all-hit single requests would.
            self.clock.advance(cal.TASK_MANAGER_ROUTING_S)
            try:
                servable, executor = self.route(request.servable_name)
            except TaskManagerError as exc:
                self.tasks_processed += 1
                return TaskResult(
                    task_uuid=request.task_uuid,
                    status=TaskStatus.FAILED,
                    error=str(exc),
                    invocation_time=self.clock.now() - start,
                    batch_cache_hits=hits,
                    batch_hits=hit_indices,
                )
            if not executor.supports_batching:
                self.tasks_processed += 1
                return TaskResult(
                    task_uuid=request.task_uuid,
                    status=TaskStatus.FAILED,
                    error=f"executor {executor.label!r} does not support batching",
                    invocation_time=self.clock.now() - start,
                    batch_cache_hits=hits,
                    batch_hits=hit_indices,
                )
            invoke_start = self.clock.now()
            try:
                outcome = executor.invoke_batch(
                    request.servable_name, [items[i] for i in misses]
                )
            except Exception as exc:
                self.tasks_processed += 1
                return TaskResult(
                    task_uuid=request.task_uuid,
                    status=TaskStatus.FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                    invocation_time=self.clock.now() - start,
                    batch_cache_hits=hits,
                    batch_hits=hit_indices,
                )
            inference_time = outcome.inference_time
            # Rebase the executor's chunk map (indices into the miss
            # list) onto the original batch items, so downstream fan-out
            # can attribute per-chunk shares and per-chunk failures.
            chunks = tuple(
                BatchChunk(
                    items=tuple(misses[j] for j in chunk.items),
                    pod=chunk.pod,
                    inference_time=chunk.inference_time,
                    error=chunk.error,
                )
                for chunk in outcome.chunks
            )
            failed_items = {i for c in chunks if c.error for i in c.items}
            for i, value in zip(misses, outcome.value):
                if i in failed_items:
                    continue  # a failed chunk produced no usable value
                values[i] = value
                if keys[i] is not None:
                    self.cache.store(keys[i], value)
            if failed_items:
                # Some replica chunks died while siblings finished: the
                # batch envelope is FAILED, but per-chunk metadata lets
                # the serving runtime settle surviving chunks (and memo
                # hits) normally — only the failed chunk's items are
                # doomed.
                first_error = next(c.error for c in chunks if c.error)
                self.tasks_processed += 1
                return TaskResult(
                    task_uuid=request.task_uuid,
                    status=TaskStatus.FAILED,
                    value=values,
                    error=first_error,
                    inference_time=inference_time,
                    invocation_time=self.clock.now() - invoke_start,
                    batch_cache_hits=hits,
                    batch_hits=hit_indices,
                    batch_chunks=chunks,
                )
        else:
            chunks = ()
        self.tasks_processed += 1
        return TaskResult(
            task_uuid=request.task_uuid,
            status=TaskStatus.SUCCEEDED,
            value=values,
            inference_time=inference_time,
            invocation_time=self.clock.now() - invoke_start,
            cache_hit=bool(items) and not misses,
            batch_cache_hits=hits,
            batch_hits=hit_indices,
            batch_chunks=chunks,
        )
