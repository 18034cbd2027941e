"""Clipper stand-in: query frontend + in-cluster cache + model containers.

Clipper's architecture (SS III-B4, SS V-B5): a *query frontend* pod
receives requests, checks its memoization cache, and RPCs to per-model
Docker containers. Two consequences the reproduction preserves:

* **Cache placement.** Clipper's cache lives at the in-cluster frontend,
  so even cache hits pay the Task-Manager -> cluster transmission — while
  DLHub's Parsl cache at the Task Manager answers locally (~1 ms). This
  is the Fig. 8 memoization gap.
* **Privileged deployment.** Clipper dockerizes models on the manager
  node and needs privileged access, so it refuses to deploy on
  unprivileged (HPC-style) runtimes.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.serving.base import InvocationResult, ModelSpec, ServingBackend
from repro.sim import calibration as cal


class PrivilegeError(PermissionError):
    """Raised when Clipper is deployed without privileged container access."""


class ClipperBackend(ServingBackend):
    """The Clipper prediction-serving stand-in."""

    name = "clipper"

    def __init__(self, clock, cluster, link, memoization: bool = True) -> None:
        super().__init__(clock, cluster, link)
        self.memoization = memoization
        # Distinct deployment namespace per cache configuration, so a
        # memoizing and a non-memoizing Clipper can share a cluster.
        self.name = "clipper-memo" if memoization else "clipper"
        self._cache: dict[bytes, Any] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._frontend_deployed = False

    # -- deployment --------------------------------------------------------------
    def deploy_frontend(self) -> None:
        """Deploy the query-frontend pod on the cluster."""
        if self._frontend_deployed:
            return
        # The frontend is an ordinary pod; model the start cost by charging
        # a container start through the cluster's first node runtime.
        self.clock.advance(cal.CONTAINER_START_S + cal.POD_SCHEDULE_S)
        self._frontend_deployed = True

    def deploy(self, spec: ModelSpec, replicas: int = 1):
        # Clipper requires privileged Docker access on the nodes.
        for node in self.cluster.nodes:
            if not node.runtime.privileged:
                raise PrivilegeError(
                    f"node {node.name} does not allow privileged containers; "
                    "Clipper cannot deploy (use the DLHub Parsl executor instead)"
                )
        self.deploy_frontend()
        return super().deploy(spec, replicas)

    # -- request path -------------------------------------------------------------
    @staticmethod
    def _cache_key(model_name: str, args: tuple, kwargs: dict) -> bytes:
        return pickle.dumps((model_name, args, sorted(kwargs.items())), protocol=4)

    def invoke(self, model_name: str, *args: Any, **kwargs: Any) -> InvocationResult:
        service = self._services.get(model_name)
        spec = self._specs.get(model_name)
        if service is None or spec is None:
            raise KeyError(f"clipper: model {model_name!r} is not deployed")
        start = self.clock.now()
        # Request must reach the in-cluster query frontend regardless of
        # cache state — the structural difference from DLHub's TM cache.
        self.link.charge_send(self.clock, spec.request_bytes)
        self.clock.advance(cal.CLIPPER_FRONTEND_S)

        cache_hit = False
        if self.memoization:
            try:
                key = self._cache_key(model_name, args, kwargs)
            except Exception:
                key = None
            if key is not None and key in self._cache:
                cache_hit = True
                self.cache_hits += 1
                value = self._cache[key]
                inference_time = 0.0
            elif key is not None:
                self.cache_misses += 1
        if not cache_hit:
            # Frontend -> model-container RPC, real execution, response.
            self.clock.advance(cal.CLIPPER_CONTAINER_RPC_S)
            infer_start = self.clock.now()
            pod = service.route()
            value = pod.exec(*args, **kwargs)
            self.clock.advance(spec.inference_cost_s)
            inference_time = self.clock.now() - infer_start
            self.clock.advance(cal.CLIPPER_CONTAINER_RPC_S)
            if self.memoization and key is not None:
                self._cache[key] = value
        # Response travels back to the Task Manager.
        self.link.charge_send(self.clock, spec.response_bytes)
        self.requests_served += 1
        return InvocationResult(
            value=value,
            invocation_time=self.clock.now() - start,
            inference_time=inference_time,
            cache_hit=cache_hit,
        )
