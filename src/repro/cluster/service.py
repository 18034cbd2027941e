"""Services: stable endpoints that load-balance across ready pods."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.deployment import Deployment
from repro.cluster.pod import Pod


class NoReadyPods(RuntimeError):
    """Raised when a service has no ready backends."""


@dataclass
class Service:
    """A round-robin load balancer over a deployment's ready pods.

    ``route()`` picks a backend. The round-robin cursor is deterministic,
    which keeps benchmark runs reproducible.
    """

    name: str
    deployment: Deployment
    _cursor: int = field(default=0, repr=False)
    requests_routed: int = 0

    def route(self) -> Pod:
        pods = self.deployment.ready_pods()
        if not pods:
            raise NoReadyPods(f"service {self.name}: no ready pods")
        pod = pods[self._cursor % len(pods)]
        self._cursor += 1
        self.requests_routed += 1
        return pod
