"""Common serving-backend interface for the Fig. 8 comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.cluster import KubernetesCluster
from repro.cluster.service import Service
from repro.containers.dockerfile import Dockerfile
from repro.containers.image import Image, ImageBuilder
from repro.sim.clock import VirtualClock
from repro.sim.latency import NetworkLink


@dataclass(frozen=True)
class ModelSpec:
    """A model as the baselines see it: a handler plus cost calibration.

    ``key`` selects calibrated inference/payload constants (see
    ``repro.sim.calibration``); ``handler`` is the real function executed
    per request.
    """

    name: str
    key: str
    handler: Callable[..., Any]
    inference_cost_s: float
    request_bytes: int
    response_bytes: int

    @classmethod
    def from_calibration(cls, name: str, key: str, handler: Callable[..., Any]) -> "ModelSpec":
        from repro.sim import calibration as cal

        return cls(
            name=name,
            key=key,
            handler=handler,
            inference_cost_s=cal.inference_cost(key),
            request_bytes=cal.payload_bytes(key),
            response_bytes=cal.response_bytes(key),
        )


@dataclass
class InvocationResult:
    """One request's outcome and timing decomposition (virtual seconds)."""

    value: Any
    invocation_time: float
    inference_time: float
    cache_hit: bool = False


class ServingBackend:
    """Base class: deploys model containers on Kubernetes and serves them.

    Subclasses provide ``_serve_cost(spec)`` (the per-request backend cost,
    excluding inference) and ``_wire_bytes(nbytes)`` (payload size on the
    wire), or override :meth:`invoke` entirely (Clipper does, for its
    frontend-cache architecture).
    """

    name = "base"

    def __init__(
        self,
        clock: VirtualClock,
        cluster: KubernetesCluster,
        link: NetworkLink,
    ) -> None:
        self.clock = clock
        self.cluster = cluster
        #: The Task Manager <-> cluster link over which requests arrive.
        self.link = link
        self._services: dict[str, Service] = {}
        self._specs: dict[str, ModelSpec] = {}
        self.requests_served = 0

    # -- deployment -----------------------------------------------------------------
    def _image_for(self, spec: ModelSpec) -> Image:
        dockerfile = (
            Dockerfile()
            .from_(self._base_image())
            .label("serving.backend", self.name)
            .label("serving.model", spec.name)
            .copy("model/", "/opt/model/")
            .entrypoint(f"serve --model /opt/model {spec.name}")
        )
        context = {"model/MODEL_INFO": spec.name.encode()}
        return ImageBuilder().build(
            dockerfile,
            context,
            repository=f"{self.name}/{spec.name}",
            tag="latest",
            handler=spec.handler,
        )

    def _base_image(self) -> str:
        return "python:3.7"

    def deploy(self, spec: ModelSpec, replicas: int = 1) -> Service:
        """Build + push the model image and create a replicated deployment."""
        if spec.name in self._services:
            raise ValueError(f"{self.name}: model {spec.name!r} already deployed")
        image = self._image_for(spec)
        self.cluster.registry.push(image)
        deployment = self.cluster.create_deployment(
            f"{self.name}-{spec.name}", image, replicas=replicas
        )
        service = self.cluster.expose(deployment, f"{self.name}-{spec.name}-svc")
        self._services[spec.name] = service
        self._specs[spec.name] = spec
        return service

    # -- request path -----------------------------------------------------------------
    def invoke(self, model_name: str, *args: Any, **kwargs: Any) -> InvocationResult:
        """Serve one request; charges link + backend + inference costs."""
        service = self._services.get(model_name)
        spec = self._specs.get(model_name)
        if service is None or spec is None:
            raise KeyError(f"{self.name}: model {model_name!r} is not deployed")
        start = self.clock.now()
        # Request travels TM -> cluster.
        self.link.charge_send(self.clock, self._wire_bytes(spec.request_bytes))
        # Backend server processing.
        self.clock.advance(self._serve_cost(spec))
        # Real model execution; inference cost charged in virtual time.
        infer_start = self.clock.now()
        pod = service.route()
        value = pod.exec(*args, **kwargs)
        self.clock.advance(spec.inference_cost_s)
        inference_time = self.clock.now() - infer_start
        # Response travels back.
        self.link.charge_send(self.clock, self._wire_bytes(spec.response_bytes))
        self.requests_served += 1
        return InvocationResult(
            value=value,
            invocation_time=self.clock.now() - start,
            inference_time=inference_time,
        )
