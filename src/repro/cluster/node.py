"""Cluster nodes and resource accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.containers.registry import ContainerRegistry
from repro.containers.runtime import ContainerRuntime
from repro.sim.clock import VirtualClock


class InsufficientResources(RuntimeError):
    """Raised when a node cannot fit a resource request."""


@dataclass(frozen=True)
class ResourceSpec:
    """A resource request/capacity: CPU cores (millicores) and memory bytes."""

    cpu_millicores: int
    memory_bytes: int

    def __post_init__(self) -> None:
        if self.cpu_millicores < 0 or self.memory_bytes < 0:
            raise ValueError("resources must be non-negative")

    def fits_within(self, other: "ResourceSpec") -> bool:
        return (
            self.cpu_millicores <= other.cpu_millicores
            and self.memory_bytes <= other.memory_bytes
        )

    def __add__(self, other: "ResourceSpec") -> "ResourceSpec":
        return ResourceSpec(
            self.cpu_millicores + other.cpu_millicores,
            self.memory_bytes + other.memory_bytes,
        )

    def __sub__(self, other: "ResourceSpec") -> "ResourceSpec":
        return ResourceSpec(
            self.cpu_millicores - other.cpu_millicores,
            self.memory_bytes - other.memory_bytes,
        )

    @classmethod
    def zero(cls) -> "ResourceSpec":
        return cls(0, 0)


#: Default pod request when a deployment does not specify one.
DEFAULT_POD_REQUEST = ResourceSpec(cpu_millicores=1000, memory_bytes=2 * 1024**3)


@dataclass
class Node:
    """A cluster node: capacity, allocations, and a container runtime."""

    name: str
    capacity: ResourceSpec
    clock: VirtualClock
    registry: ContainerRegistry
    runtime: ContainerRuntime = field(init=False)
    allocated: ResourceSpec = field(init=False)
    ready: bool = True

    def __post_init__(self) -> None:
        self.runtime = ContainerRuntime(
            self.clock, self.registry, node_name=self.name, privileged=True
        )
        self.allocated = ResourceSpec.zero()

    @property
    def available(self) -> ResourceSpec:
        return self.capacity - self.allocated

    def can_fit(self, request: ResourceSpec) -> bool:
        return self.ready and request.fits_within(self.available)

    def allocate(self, request: ResourceSpec) -> None:
        if not self.can_fit(request):
            raise InsufficientResources(
                f"node {self.name}: request {request} exceeds available {self.available}"
            )
        self.allocated = self.allocated + request

    def release(self, request: ResourceSpec) -> None:
        new = self.allocated - request
        if new.cpu_millicores < 0 or new.memory_bytes < 0:
            raise ValueError(f"node {self.name}: releasing more than allocated")
        self.allocated = new
