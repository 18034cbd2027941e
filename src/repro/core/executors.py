"""DLHub's flexible executor model (SS IV-C).

Three executors, one interface:

* :class:`ParslServableExecutor` — the general-purpose path: servable
  deployments on Kubernetes, IPP engines per pod, least-busy load
  balancing. Supports any servable, batch dispatch, and an asynchronous
  streaming mode used by the Fig. 7 throughput experiment.
* :class:`TFServingExecutor` — wraps the TF-Serving backend (gRPC/REST);
  TensorFlow-exportable models only.
* :class:`SageMakerExecutor` — wraps the SageMaker backend (Flask or
  embedded TF Serving).

All executors *really execute* the servable handler and account virtual
time per the calibrated cost models, returning the invocation-time and
inference-time decomposition the Task Manager records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.cluster import KubernetesCluster
from repro.cluster.deployment import Deployment
from repro.core.servable import Servable
from repro.core.tasks import BatchChunk, normalize_batch_item
from repro.parsl.ipp import IPPEnginePool
from repro.serving.base import InvocationResult, ModelSpec, ServingBackend
from repro.serving.sagemaker import SageMakerBackend
from repro.serving.tfserving import TFServingBackend
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock
from repro.sim.latency import NetworkLink


class ExecutorError(RuntimeError):
    """Raised for unknown servables or invalid executor operations."""


@dataclass
class InvocationOutcome:
    """What an executor reports back to the Task Manager."""

    value: Any
    inference_time: float
    invocation_time: float
    #: For batch invocations on a replica-aware executor: how the batch
    #: was sharded across pods (item indices are into the ``inputs``
    #: list handed to ``invoke_batch``), with per-chunk timing and
    #: per-chunk failures. Empty for single invocations and for
    #: executors without replica-aware batching.
    chunks: tuple[BatchChunk, ...] = ()


class DLHubExecutor:
    """Executor interface: deploy servables, invoke them.

    Subclasses implement ``deploy``, ``invoke``, ``get_servable`` and
    ``undeploy``. Batching is a first-class capability: callers check
    :attr:`supports_batching` and route batches through
    :meth:`invoke_batch` — there is no need to know concrete executor
    classes. Executors without batch support inherit the default
    ``invoke_batch`` that raises :class:`ExecutorError`.
    """

    label = "base"

    #: Whether :meth:`invoke_batch` dispatches a whole batch in one trip.
    supports_batching = False

    def invoke_batch(self, servable_name: str, inputs: list[Any]) -> InvocationOutcome:
        """Dispatch a batch of inputs in one executor round trip.

        Each ``inputs`` entry is normalized via
        :func:`repro.core.tasks.normalize_batch_item`, so items may be
        single values, args tuples, or ``(args, kwargs)`` pairs.
        """
        raise ExecutorError(f"executor {self.label!r} does not support batching")

    def supports(self, servable: Servable) -> bool:
        """Whether this executor can serve the given servable."""
        return True


class ParslServableExecutor(DLHubExecutor):
    """The general-purpose Parsl executor over Kubernetes deployments."""

    label = "parsl"
    supports_batching = True

    def __init__(
        self,
        clock: VirtualClock,
        cluster: KubernetesCluster,
        link: NetworkLink,
    ) -> None:
        self.clock = clock
        self.cluster = cluster
        self.link = link
        self._servables: dict[str, Servable] = {}
        self._deployments: dict[str, Deployment] = {}
        self._pools: dict[str, IPPEnginePool] = {}
        self.requests_served = 0

    # -- deployment ----------------------------------------------------------------
    def deploy(self, servable: Servable, image, replicas: int = 1) -> None:
        if servable.name in self._deployments:
            raise ExecutorError(f"servable {servable.name!r} already deployed")
        deployment = self.cluster.create_deployment(
            f"parsl-{servable.name}", image, replicas=replicas
        )
        self._servables[servable.name] = servable
        self._deployments[servable.name] = deployment
        self._pools[servable.name] = IPPEnginePool(self.clock, deployment.ready_pods())

    def scale(self, servable_name: str, replicas: int) -> None:
        deployment = self._require_deployment(servable_name)
        deployment.scale(replicas)
        self._pools[servable_name].set_pods(deployment.ready_pods())

    def undeploy(self, servable_name: str) -> None:
        self._require_deployment(servable_name)
        self.cluster.delete_deployment(f"parsl-{servable_name}")
        del self._deployments[servable_name]
        del self._pools[servable_name]
        del self._servables[servable_name]

    def _require_deployment(self, name: str) -> Deployment:
        deployment = self._deployments.get(name)
        if deployment is None:
            raise ExecutorError(f"servable {name!r} is not deployed on {self.label}")
        return deployment

    def replicas(self, servable_name: str) -> int:
        return len(self._require_deployment(servable_name).ready_pods())

    def deployed(self) -> list[str]:
        return sorted(self._deployments)

    def get_servable(self, servable_name: str) -> Servable:
        servable = self._servables.get(servable_name)
        if servable is None:
            raise ExecutorError(f"servable {servable_name!r} is not deployed")
        return servable

    # -- synchronous invocation --------------------------------------------------------
    def invoke(self, servable_name: str, args: tuple, kwargs: dict) -> InvocationOutcome:
        servable = self._servables.get(servable_name)
        pool = self._pools.get(servable_name)
        if servable is None or pool is None:
            raise ExecutorError(f"servable {servable_name!r} is not deployed")
        start = self.clock.now()
        # Parsl dispatch: serialize + engine selection (TM side).
        self.clock.advance(cal.PARSL_DISPATCH_S)
        # Ship inputs to the pod.
        self.link.charge_send(self.clock, servable.request_bytes)
        # Shim: input unwrap inside the container, then real execution.
        self.clock.advance(cal.SERVABLE_SHIM_S)
        pod = pool.select()
        infer_start = self.clock.now()
        result = pod.exec(*args, **kwargs)
        self.clock.advance(servable.inference_cost_s)
        inference_time = self.clock.now() - infer_start
        pod.busy_until = max(pod.busy_until, self.clock.now())
        # Result travels back; Parsl collects it.
        self.link.charge_send(self.clock, servable.response_bytes)
        self.clock.advance(cal.PARSL_COLLECT_S)
        self.requests_served += 1
        return InvocationOutcome(
            value=result,
            inference_time=inference_time,
            invocation_time=self.clock.now() - start,
        )

    # -- batched invocation (SS V-B3 + Fig. 7) --------------------------------------------
    def invoke_batch(self, servable_name: str, inputs: list[Any]) -> InvocationOutcome:
        """One dispatch for a whole batch, sharded across replica pods.

        Items may be single values, args tuples, or ``(args, kwargs)``
        pairs (see :func:`repro.core.tasks.normalize_batch_item`) —
        keyword arguments are passed through to the servable, not dropped.
        Returns an outcome whose ``value`` is the list of per-item results
        (in input order) and whose times cover the entire batch.

        The dispatch/shim overheads are paid once (the SS V-B3
        amortization); the batch body is then cut into per-pod chunks —
        greedy by ``busy_until`` under the calibrated per-item cost model
        (:func:`repro.core.adaptive.plan_replica_chunks`) — that execute
        concurrently (``VirtualClock.concurrent``), so replicas shorten
        the coalesced path exactly as they shorten the Fig. 7 streaming
        path. With one ready pod the timing reduces to the single-pod
        model. A chunk whose pod dies mid-execution fails alone: its
        error rides :attr:`InvocationOutcome.chunks` while sibling
        chunks' results survive; only when *every* chunk fails does the
        invocation raise.
        """
        servable = self._servables.get(servable_name)
        pool = self._pools.get(servable_name)
        if servable is None or pool is None:
            raise ExecutorError(f"servable {servable_name!r} is not deployed")
        if not inputs:
            raise ExecutorError("invoke_batch requires at least one input")
        from repro.core.adaptive import plan_replica_chunks

        start = self.clock.now()
        # One dispatch + one shim entry for the whole batch — this is the
        # amortization batching buys (SS V-B3).
        self.clock.advance(cal.PARSL_DISPATCH_S)
        self.link.charge_send(self.clock, servable.request_bytes * len(inputs))
        self.clock.advance(cal.SERVABLE_SHIM_S)
        pods = sorted(
            (p for p in pool.pods if p.ready), key=lambda p: (p.busy_until, p.name)
        )
        if not pods:
            raise ExecutorError(f"servable {servable_name!r} has no ready pods")
        per_item = servable.inference_cost_s + cal.BATCH_ITEM_MARGINAL_S
        infer_start = self.clock.now()
        plan = plan_replica_chunks(
            len(inputs),
            [p.busy_until for p in pods],
            per_item,
            start_at=infer_start,
        )
        values: list[Any] = [None] * len(inputs)
        chunks: list[BatchChunk] = []
        with self.clock.concurrent() as region:
            for pod, indices in zip(pods, plan):
                if not indices:
                    continue
                with region.branch():
                    chunk_start = self.clock.now()
                    if pod.busy_until > chunk_start:
                        self.clock.advance_to(pod.busy_until)
                    error = None
                    try:
                        for i in indices:
                            args, kwargs = normalize_batch_item(inputs[i])
                            values[i] = pod.exec(*args, **kwargs)
                        self.clock.advance(len(indices) * per_item)
                    except Exception as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        for i in indices:
                            values[i] = None
                    pod.busy_until = max(pod.busy_until, self.clock.now())
                    chunks.append(
                        BatchChunk(
                            items=tuple(indices),
                            pod=pod.name,
                            inference_time=self.clock.now() - chunk_start,
                            error=error,
                        )
                    )
        if all(chunk.error is not None for chunk in chunks):
            raise ExecutorError(
                f"all {len(chunks)} replica chunk(s) failed: {chunks[0].error}"
            )
        inference_time = self.clock.now() - infer_start
        self.link.charge_send(self.clock, servable.response_bytes * len(inputs))
        self.clock.advance(cal.PARSL_COLLECT_S)
        self.requests_served += sum(
            len(chunk.items) for chunk in chunks if chunk.ok
        )
        return InvocationOutcome(
            value=values,
            inference_time=inference_time,
            invocation_time=self.clock.now() - start,
            chunks=tuple(chunks),
        )

    # -- streaming mode for throughput experiments (SS V-B4) ------------------------------
    def submit_stream(self, servable_name: str, inputs: list[Any]) -> float:
        """Dispatch ``inputs`` asynchronously; return the makespan.

        Models the Fig. 7 experiment: the Task Manager dispatches tasks
        serially (paying dispatch cost each), engines process in parallel
        (busy-until queueing), and the makespan is when the last engine
        drains. Throughput saturates when serial dispatch dominates.
        """
        servable = self._servables.get(servable_name)
        pool = self._pools.get(servable_name)
        if servable is None or pool is None:
            raise ExecutorError(f"servable {servable_name!r} is not deployed")
        start = self.clock.now()
        # Each engine's busy window covers the pod-side shim plus the
        # model execution; the TM pays only serial dispatch per task.
        per_task_cost = cal.SERVABLE_SHIM_S + servable.inference_cost_s
        for item in inputs:
            args, kwargs = normalize_batch_item(item)
            pool.dispatch_to_pod(args, kwargs, per_task_cost)
        pool.drain()
        self.requests_served += len(inputs)
        return self.clock.now() - start


class _BackendExecutor(DLHubExecutor):
    """Shared adapter over the baseline :class:`ServingBackend` systems."""

    def __init__(self, backend: ServingBackend) -> None:
        self.backend = backend
        self._servables: dict[str, Servable] = {}

    def deploy(self, servable: Servable, image, replicas: int = 1) -> None:
        spec = ModelSpec.from_calibration(servable.name, servable.key, servable.handler)
        self.backend.deploy(spec, replicas)
        self._servables[servable.name] = servable

    def invoke(self, servable_name: str, args: tuple, kwargs: dict) -> InvocationOutcome:
        if servable_name not in self._servables:
            raise ExecutorError(
                f"servable {servable_name!r} is not deployed on {self.label}"
            )
        result: InvocationResult = self.backend.invoke(servable_name, *args, **kwargs)
        return InvocationOutcome(
            value=result.value,
            inference_time=result.inference_time,
            invocation_time=result.invocation_time,
        )

    def deployed(self) -> list[str]:
        return sorted(self._servables)

    def get_servable(self, servable_name: str) -> Servable:
        servable = self._servables.get(servable_name)
        if servable is None:
            raise ExecutorError(
                f"servable {servable_name!r} is not deployed on {self.label}"
            )
        return servable

    def undeploy(self, servable_name: str) -> None:
        if servable_name not in self._servables:
            raise ExecutorError(
                f"servable {servable_name!r} is not deployed on {self.label}"
            )
        del self._servables[servable_name]


class TFServingExecutor(_BackendExecutor):
    """TensorFlow-Serving executor (gRPC by default, SS IV-C)."""

    def __init__(self, backend: TFServingBackend) -> None:
        super().__init__(backend)
        self.label = backend.name

    def supports(self, servable: Servable) -> bool:
        from repro.serving.tfserving import TF_EXPORTABLE_KEYS

        return servable.key in TF_EXPORTABLE_KEYS


class SageMakerExecutor(_BackendExecutor):
    """SageMaker executor (Flask HTTP interface, SS IV-C)."""

    def __init__(self, backend: SageMakerBackend) -> None:
        super().__init__(backend)
        self.label = backend.name
