"""The Management Service (SS IV-A): DLHub's user-facing interface.

Responsibilities reproduced here:

* **publish** — validate metadata, stage components from endpoints,
  build the servable image, register it in the repository + search index;
* **discovery** — access-controlled search over model metadata;
* **serving** — package task requests, enqueue them over the
  ZeroMQ-style queue to Task Managers, and return results with
  request-time accounting; synchronous and asynchronous modes;
* **batching** — batch task submission amortizing per-request overheads;
* **pipelines** — register multi-step pipelines and execute them
  server-side (intermediates never return to the client);
* **security** — every API call is authorized through the Auth service
  (bearer token with the ``dlhub`` scope);
* **one route** — every invocation path (``run``, ``run_async``,
  ``run_batch``, pipelines) goes through the attached serving gateway
  (:meth:`ManagementService.attach_gateway`): tenant admission and
  weighted fair queuing into the
  :class:`~repro.core.runtime.ServingRuntime`, which claims work off
  the queue on its Task Managers' behalf. A service with no gateway
  attached refuses to serve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.auth.identity import Identity
from repro.auth.service import AuthService, AuthorizationError
from repro.core.pipeline import Pipeline, PipelineError
from repro.core.repository import ModelRepository, PublishedModel
from repro.core.servable import Servable
from repro.core.tasks import (
    TaskRequest,
    TaskResult,
    TaskStatus,
    TaskStore,
    normalize_batch_item,
)
from repro.data.endpoint import Endpoint
from repro.data.transfer import TransferManager
from repro.messaging.queue import TaskQueue
from repro.messaging.serializer import PickleSerializer, estimate_nbytes
from repro.search.index import ViewerContext, Visibility
from repro.search.query import FacetRequest, SearchResult
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock
from repro.sim.latency import LatencyModel


class ManagementError(RuntimeError):
    """Raised on invalid Management Service operations."""


#: The Globus Auth scope the Management Service registers (SS IV-D).
DLHUB_SCOPE = "dlhub:all"


@dataclass
class AsyncHandle:
    """Returned by ``run_async``: the UUID used to poll for results."""

    task_uuid: str


class ManagementService:
    """The hosted DLHub service."""

    def __init__(
        self,
        clock: VirtualClock,
        repository: ModelRepository,
        auth: AuthService,
        latency: LatencyModel,
        staging_endpoint: Endpoint | None = None,
    ) -> None:
        self.clock = clock
        self.repository = repository
        self.auth = auth
        self.latency = latency
        self.queue = TaskQueue(clock)
        self.serializer = PickleSerializer(clock)
        self.task_store = TaskStore()
        self.staging_endpoint = staging_endpoint
        self.transfer = TransferManager(clock)
        self._pipelines: dict[str, Pipeline] = {}
        self._gateway = None
        self.requests_handled = 0

        if "dlhub" not in auth.resource_servers:
            auth.register_resource_server("dlhub", ["all"])

    # -- the route: a serving gateway in front of the ServingRuntime ----------
    def attach_gateway(self, gateway) -> None:
        """Attach the serving gateway every invocation path goes through.

        ``gateway`` is a :class:`~repro.gateway.gateway.ServingGateway`
        (duck-typed here to keep the dependency one-way).
        ``run``/``run_async``/``run_batch`` and pipeline steps all pass
        tenant admission and weighted fair queuing before reaching the
        runtime's fleet. Admission denials surface as
        :class:`~repro.gateway.gateway.AdmissionRejected`.
        """
        if self._gateway is not None:
            raise ManagementError("a gateway is already attached")
        self._gateway = gateway

    @property
    def gateway(self):
        """The attached serving gateway, or ``None``."""
        return self._gateway

    def _route(self):
        """The gateway this invocation is served through."""
        if self._gateway is None:
            raise ManagementError("no serving gateway attached")
        return self._gateway

    # -- auth helper -------------------------------------------------------------
    def _authorize(self, token: str) -> Identity:
        return self.auth.authorize(token, DLHUB_SCOPE)

    def _viewer(self, identity: Identity) -> ViewerContext:
        return ViewerContext(
            principal_id=identity.identity_id,
            groups=self.auth.principal_groups(identity),
        )

    # -- publication ---------------------------------------------------------------
    def publish(
        self,
        token: str,
        servable: Servable,
        visibility: Visibility | None = None,
        component_paths: list[str] | None = None,
        source_endpoint: Endpoint | None = None,
        doi: str | None = None,
    ) -> PublishedModel:
        """Publish a servable.

        If ``component_paths``/``source_endpoint`` are given, components
        are staged from the user's endpoint into DLHub's staging bucket
        first (the S3/Globus upload path of SS IV-A), with transfer costs
        charged to the clock.
        """
        identity = self._authorize(token)
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        if component_paths and source_endpoint is not None:
            if self.staging_endpoint is None:
                raise ManagementError("no staging endpoint configured")
            # Any authenticated publisher may stage into DLHub's bucket.
            self.staging_endpoint.acl.writers.add(identity.identity_id)
            for path in component_paths:
                record = self.transfer.transfer(
                    source_endpoint, self.staging_endpoint, path, identity
                )
                blob = self.staging_endpoint.get(record.path, identity).data
                servable.components.setdefault(path, blob)
        return self.repository.publish(servable, identity, visibility, doi)

    def update_visibility(self, token: str, full_name: str, visibility: Visibility) -> None:
        """Change who may discover and invoke a published servable."""
        identity = self._authorize(token)
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        self.repository.set_visibility(full_name, visibility, identity)

    # -- discovery --------------------------------------------------------------------
    def search(
        self,
        token: str,
        query: str,
        limit: int = 50,
        facets: list[FacetRequest] | None = None,
    ) -> SearchResult:
        """Access-controlled search over model metadata (SS IV-A)."""
        identity = self._authorize(token)
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        return self.repository.search(query, self._viewer(identity), limit, facets)

    def describe(self, token: str, name: str) -> dict[str, Any]:
        """The metadata document of a servable visible to the caller."""
        identity = self._authorize(token)
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        published = self.repository.resolve(name)
        if not published.visibility.allows(self._viewer(identity)):
            raise AuthorizationError(f"{name!r} is not visible to you")
        doc = published.servable.metadata.to_document()
        doc["dlhub"]["doi"] = published.doi
        doc["dlhub"]["version"] = published.version
        return doc

    # -- serving -----------------------------------------------------------------------
    def _check_invokable(self, identity: Identity, servable_name: str) -> None:
        """Access control on invocation, not just discovery (SS VI-A)."""
        published = self.repository.resolve(servable_name)
        if not published.visibility.allows(self._viewer(identity)):
            raise AuthorizationError(
                f"{identity.qualified_name} may not invoke {servable_name!r}"
            )

    def _dispatch(self, request: TaskRequest) -> TaskResult:
        """Serve one request through the gateway and collect the result;
        the MS-side serialization, WAN hops and status update are
        charged around it."""
        gateway = self._route()
        self._charge_dispatch_send(request)
        result = gateway.invoke_sync(request)
        self._charge_dispatch_return(result)
        return result

    def _charge_dispatch_send(self, shipped: Any) -> None:
        """The MS-side cost of shipping ``shipped`` (a task, or a
        pipeline's step names and arguments) to the Task Managers:
        serialization, enqueue handling, and the MS -> TM WAN hop."""
        payload = self.serializer.dumps(shipped)  # charges serialization
        self.clock.advance(cal.MANAGEMENT_ENQUEUE_S)
        self.latency.management_to_task_manager.charge_send(self.clock, len(payload))

    def _charge_dispatch_return(self, result: TaskResult) -> None:
        """The TM -> MS return hop plus the status update."""
        self.latency.management_to_task_manager.charge_send(
            self.clock, estimate_nbytes(result.value)
        )
        self.clock.advance(cal.MANAGEMENT_STATUS_UPDATE_S)

    def run(
        self,
        token: str,
        servable_name: str,
        *args: Any,
        **kwargs: Any,
    ) -> TaskResult:
        """Synchronous inference: returns the completed TaskResult.

        ``request_time`` covers receipt at the MS to receipt of the TM's
        result (the paper's request-time definition).
        """
        identity = self._authorize(token)
        start = self.clock.now()
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        if servable_name in self._pipelines:
            return self._run_pipeline(identity, servable_name, args, kwargs, start)
        self._check_invokable(identity, servable_name)
        name = self.repository.resolve(servable_name).servable.name

        request = TaskRequest(
            servable_name=name, args=args, kwargs=kwargs, identity_id=identity.identity_id
        )
        result = self._dispatch(request)
        result.request_time = self.clock.now() - start
        self.requests_handled += 1
        return result

    def run_async(self, token: str, servable_name: str, *args: Any, **kwargs: Any) -> AsyncHandle:
        """Asynchronous mode: returns a UUID immediately (SS IV-A).

        The in-process reproduction completes the task eagerly but the
        client-visible contract is identical: poll :meth:`status`, then
        fetch :meth:`result`.
        """
        identity = self._authorize(token)
        start = self.clock.now()
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        self._check_invokable(identity, servable_name)
        name = self.repository.resolve(servable_name).servable.name
        request = TaskRequest(
            servable_name=name, args=args, kwargs=kwargs, identity_id=identity.identity_id
        )
        self.task_store.create(request.task_uuid)
        self.task_store.mark_running(request.task_uuid)
        try:
            result = self._dispatch(request)
        except Exception as exc:
            # A gateway admission denial is terminal for this task: poll
            # paths must not see it RUNNING forever. The denial still
            # raises (the submitting caller gets the typed outcome).
            from repro.gateway.gateway import AdmissionRejected

            if isinstance(exc, AdmissionRejected):
                self.task_store.complete(
                    TaskResult(
                        task_uuid=request.task_uuid,
                        status=TaskStatus.FAILED,
                        error=str(exc),
                        request_time=self.clock.now() - start,
                    )
                )
            raise
        result.request_time = self.clock.now() - start
        self.task_store.complete(result)
        self.requests_handled += 1
        return AsyncHandle(task_uuid=request.task_uuid)

    def status(self, token: str, task_uuid: str) -> TaskStatus:
        """Poll an asynchronous task's status."""
        self._authorize(token)
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        return self.task_store.status(task_uuid)

    def result(self, token: str, task_uuid: str) -> TaskResult:
        """Fetch a completed asynchronous task's result."""
        self._authorize(token)
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        return self.task_store.result(task_uuid)

    def run_file(
        self,
        token: str,
        servable_name: str,
        source_endpoint: Endpoint,
        path: str,
        **kwargs: Any,
    ) -> TaskResult:
        """File-input inference (Table II: "Input types: Structured, Files").

        DLHub "integrates with Globus to provide seamless authentication
        and high performance data access for ... inference" (SS I): the
        input is fetched from the user's endpoint *by the service, on the
        user's behalf* — the endpoint ACL is enforced with the caller's
        identity, and the transfer cost is charged before serving.
        """
        identity = self._authorize(token)
        obj = source_endpoint.get(path, identity)  # EndpointError on denial
        bandwidth = (
            cal.BANDWIDTH_WAN_BPS
            if source_endpoint.latency_class == "wan"
            else cal.BANDWIDTH_LAN_BPS
        )
        self.clock.advance(obj.size / bandwidth)
        return self.run(token, servable_name, obj.data, **kwargs)

    def run_batch(self, token: str, servable_name: str, inputs: list[Any]) -> TaskResult:
        """Batched inference: one task carrying many inputs (SS V-B3)."""
        identity = self._authorize(token)
        if not inputs:
            raise ManagementError("run_batch requires at least one input")
        start = self.clock.now()
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        self._check_invokable(identity, servable_name)
        name = self.repository.resolve(servable_name).servable.name
        request = TaskRequest(
            servable_name=name, batch=list(inputs), identity_id=identity.identity_id
        )
        result = self._dispatch_batch(request)
        result.request_time = self.clock.now() - start
        self.requests_handled += 1
        return result

    def _dispatch_batch(self, request: TaskRequest) -> TaskResult:
        """Serve a pre-formed batch: split, admit, re-merge.

        The gateway meters single-item requests (its fair shares are
        per request), so the batch is split into tenant-tagged items;
        they land on one servable topic together and the runtime
        coalesces them back into micro-batches, preserving the SS V-B3
        amortization. Admission is all-or-nothing for the batch.
        """
        gateway = self._route()
        self._charge_dispatch_send(request)
        items = [
            TaskRequest(
                servable_name=request.servable_name,
                args=args,
                kwargs=kwargs,
                identity_id=request.identity_id,
            )
            for args, kwargs in map(normalize_batch_item, request.batch or [])
        ]
        item_results = gateway.invoke_sync_many(items)
        failures = [r for r in item_results if not r.ok]
        hit_indices = tuple(i for i, r in enumerate(item_results) if r.cache_hit)
        result = TaskResult(
            task_uuid=request.task_uuid,
            status=TaskStatus.FAILED if failures else TaskStatus.SUCCEEDED,
            value=[r.value for r in item_results],
            error=failures[0].error if failures else None,
            # Per-item shares of a coalesced batch sum to the batch's
            # inference; items travel together so the trip is the max.
            inference_time=sum(r.inference_time for r in item_results),
            invocation_time=max(r.invocation_time for r in item_results),
            cache_hit=bool(item_results) and len(hit_indices) == len(item_results),
            batch_cache_hits=len(hit_indices),
            batch_hits=hit_indices,
        )
        self._charge_dispatch_return(result)
        return result

    # -- pipelines ------------------------------------------------------------------------
    def register_pipeline(self, token: str, pipeline: Pipeline) -> None:
        """Register a pipeline; its steps must be resolvable servables."""
        self._authorize(token)
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        pipeline.validate()
        for step in pipeline.steps:
            self.repository.resolve(step.servable_name)  # raises if unknown
        if pipeline.name in self._pipelines:
            raise PipelineError(f"pipeline {pipeline.name!r} already registered")
        self._pipelines[pipeline.name] = pipeline

    def run_pipeline(self, token: str, pipeline_name: str, *args: Any) -> TaskResult:
        """Run a registered pipeline server-side on ``args``."""
        identity = self._authorize(token)
        start = self.clock.now()
        self.clock.advance(cal.MANAGEMENT_HANDLING_S)
        return self._run_pipeline(identity, pipeline_name, args, {}, start)

    def _run_pipeline(
        self, identity: Identity, pipeline_name: str, args: tuple, kwargs: dict, start: float
    ) -> TaskResult:
        pipeline = self._pipelines.get(pipeline_name)
        if pipeline is None:
            raise PipelineError(f"unknown pipeline {pipeline_name!r}")
        # The whole chain ships server-side as one task; intermediates
        # flow pod-to-pod over the intra-cluster link. The *whole chain*
        # is admitted up front (cost = number of steps), so a
        # rate-limited tenant is denied before step 1 instead of burning
        # steps 1..k-1 and failing at step k; each step then rides WFQ
        # into the runtime pre-admitted.
        gateway = self._route()
        step_names = [
            self.repository.resolve(step.servable_name).servable.name
            for step in pipeline.steps
        ]
        # Raises AdmissionRejected before anything executes.
        policy = gateway.admit_chain(identity, step_names)
        self._charge_dispatch_send((pipeline.step_names, args))
        invoke_start = self.clock.now()
        value: Any = args
        inference_total = 0.0
        for i, step in enumerate(pipeline.steps):
            step_name = step_names[i]
            step_args = value if isinstance(value, tuple) else (value,)
            request = TaskRequest(
                servable_name=step_name,
                args=step_args,
                identity_id=identity.identity_id,
            )
            result = gateway.invoke_sync_admitted(request, policy)
            if not result.ok:
                result.request_time = self.clock.now() - start
                return result
            value = result.value
            if step.adapter is not None:
                value = step.adapter(value)
            inference_total += result.inference_time
            if i < len(pipeline.steps) - 1:
                # Intermediate hop between servable pods.
                self.latency.intra_cluster.charge_send(
                    self.clock, estimate_nbytes(value)
                )
        invocation_time = self.clock.now() - invoke_start
        self.latency.management_to_task_manager.charge_send(
            self.clock, estimate_nbytes(value)
        )
        final = TaskResult(
            task_uuid=TaskRequest(servable_name=pipeline_name).task_uuid,
            status=TaskStatus.SUCCEEDED,
            value=value,
            inference_time=inference_total,
            invocation_time=invocation_time,
            request_time=self.clock.now() - start,
        )
        self.requests_handled += 1
        return final
