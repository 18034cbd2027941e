"""Container runtime: pull, start, exec, stop — with virtual-time costs.

A :class:`ContainerRuntime` lives on each cluster node. Pulling charges
per-byte transfer for layers the node hasn't cached; starting charges the
cold-start constant; ``exec`` invokes the image's packaged handler (the
servable entrypoint) inside the container.

Failure injection: a failed pod kills its container, after which exec
raises, so tests can exercise the queue's redelivery path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.containers.image import Image
from repro.containers.registry import ContainerRegistry
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock


class ContainerError(RuntimeError):
    """Raised on invalid container operations (exec on dead container, ...)."""


def cold_start_cost_s(image_bytes: int) -> float:
    """Virtual-time cost to pull ``image_bytes`` (cold cache) and start one
    container — the price a fleet controller charges a freshly provisioned
    worker before it can serve traffic."""
    if image_bytes < 0:
        raise ValueError("image_bytes must be >= 0")
    return image_bytes * cal.IMAGE_PULL_PER_BYTE_S + cal.CONTAINER_START_S


class ContainerState(Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass
class Container:
    """A running (or stopped) container instance."""

    container_id: str
    image: Image
    state: ContainerState = ContainerState.CREATED
    env: dict[str, str] = field(default_factory=dict)
    started_at: float | None = None
    exec_count: int = 0

    @property
    def alive(self) -> bool:
        return self.state is ContainerState.RUNNING


class ContainerRuntime:
    """Per-node container engine (Docker stand-in)."""

    def __init__(
        self,
        clock: VirtualClock,
        registry: ContainerRegistry,
        node_name: str = "node",
        privileged: bool = True,
    ) -> None:
        self.clock = clock
        self.registry = registry
        self.node_name = node_name
        #: Clipper requires privileged access; HPC nodes refuse it (SS III-B4).
        self.privileged = privileged
        self._cached_layers: set[str] = set()
        self._ids = itertools.count(1)
        self.bytes_pulled = 0

    # -- images ----------------------------------------------------------------
    def pull(self, reference: str) -> Image:
        """Pull an image, charging transfer time only for uncached layers."""
        image = self.registry.pull(reference)
        missing = self.registry.missing_layer_bytes(image, self._cached_layers)
        if missing:
            self.clock.advance(missing * cal.IMAGE_PULL_PER_BYTE_S)
            self.bytes_pulled += missing
        for layer in image.layers:
            self._cached_layers.add(layer.digest)
        return image

    def has_image(self, image: Image) -> bool:
        return all(layer.digest in self._cached_layers for layer in image.layers)

    # -- lifecycle --------------------------------------------------------------
    def create(self, image: Image, env: dict[str, str] | None = None) -> Container:
        if not self.has_image(image):
            self.pull(image.reference)
        return Container(
            container_id=f"{self.node_name}-c{next(self._ids)}",
            image=image,
            env={**image.env, **(env or {})},
        )

    def start(self, container: Container) -> Container:
        if container.state is ContainerState.RUNNING:
            return container
        if container.state is ContainerState.FAILED:
            raise ContainerError(f"{container.container_id} has failed; recreate it")
        self.clock.advance(cal.CONTAINER_START_S)
        container.state = ContainerState.RUNNING
        container.started_at = self.clock.now()
        return container

    def stop(self, container: Container) -> None:
        if container.state is ContainerState.RUNNING:
            container.state = ContainerState.STOPPED

    def kill(self, container: Container) -> None:
        """Failure injection: abruptly fail a container."""
        container.state = ContainerState.FAILED

    # -- execution ----------------------------------------------------------------
    def exec(self, container: Container, *args: Any, **kwargs: Any) -> Any:
        """Invoke the image's packaged handler inside ``container``."""
        if not container.alive:
            raise ContainerError(
                f"container {container.container_id} is {container.state.value}"
            )
        handler = container.image.handler
        if handler is None:
            raise ContainerError(
                f"image {container.image.reference} has no packaged handler"
            )
        container.exec_count += 1
        return handler(*args, **kwargs)

    # -- introspection ---------------------------------------------------------------
