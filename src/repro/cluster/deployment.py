"""Deployments: replicated pods with scaling.

The Parsl executor "creates a Kubernetes Deployment consisting of n pods
for each servable" (SS IV-C); Fig. 7 scales replica counts. A
:class:`Deployment` owns its pods and scales up/down deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cluster.node import Node, ResourceSpec, DEFAULT_POD_REQUEST
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.scheduler import Scheduler
from repro.containers.image import Image


@dataclass
class Deployment:
    """A replicated set of identical pods for one servable image."""

    name: str
    image: Image
    scheduler: Scheduler
    nodes: list[Node]
    replicas: int = 1
    request: ResourceSpec = field(default_factory=lambda: DEFAULT_POD_REQUEST)
    labels: dict[str, str] = field(default_factory=dict)
    pods: list[Pod] = field(default_factory=list)
    _pod_ids: itertools.count = field(default_factory=lambda: itertools.count(1), repr=False)

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")

    def create(self) -> "Deployment":
        """Schedule the initial replica set."""
        self.scale(self.replicas)
        return self

    def _new_pod(self) -> Pod:
        pod = Pod(
            name=f"{self.name}-{next(self._pod_ids)}",
            image=self.image,
            request=self.request,
            labels=dict(self.labels, deployment=self.name),
        )
        self.scheduler.schedule(pod, self.nodes)
        return pod

    def scale(self, replicas: int) -> "Deployment":
        """Scale to exactly ``replicas`` ready pods.

        Scale-up starts the new pods *concurrently*, as real kubelets
        do: the virtual clock is charged the longest single pod start
        (schedule + image pull + container start), not the sum — so an
        N-replica scale-up costs one cold start, with later pods riding
        the node's now-warm layer cache.
        """
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        self.replicas = replicas
        current = self.ready_pods()
        if len(current) < replicas:
            with self.scheduler.clock.concurrent() as region:
                for _ in range(replicas - len(current)):
                    with region.branch():
                        self.pods.append(self._new_pod())
        elif len(current) > replicas:
            for pod in current[replicas:]:
                pod.terminate()
                self.pods.remove(pod)
        return self

    def ready_pods(self) -> list[Pod]:
        return [p for p in self.pods if p.ready]

    def delete(self) -> None:
        """Terminate all pods."""
        for pod in list(self.pods):
            if pod.phase is PodPhase.RUNNING:
                pod.terminate()
        self.pods.clear()
        self.replicas = 0
