"""Docker-like container substrate.

DLHub converts every published model into a containerized *servable*: it
synthesizes a Dockerfile combining DLHub dependencies with user-supplied
model dependencies, builds an image containing the model components, and
pushes it to a registry (SS IV-A, "Servables"). Task Managers later pull
and start containers on cluster nodes.

This package reproduces that path:

* :mod:`repro.containers.dockerfile` — Dockerfile construction,
* :mod:`repro.containers.image` — layered images with content digests,
* :mod:`repro.containers.registry` — tagged image registry (push/pull),
* :mod:`repro.containers.runtime` — a container runtime with pull/start
  cost models and an exec interface that invokes the packaged entrypoint,
* :mod:`repro.containers.singularity` — a Singularity adapter that runs
  images unprivileged (the HPC path the paper contrasts with Clipper's
  privileged-Docker requirement).
"""

from repro.containers.dockerfile import Dockerfile, DockerfileError
from repro.containers.image import Image, Layer, ImageBuilder
from repro.containers.registry import ContainerRegistry, RegistryError
from repro.containers.runtime import (
    ContainerRuntime,
    Container,
    ContainerState,
    ContainerError,
    cold_start_cost_s,
)
from repro.containers.singularity import SingularityRuntime, SingularityImage

__all__ = [
    "Dockerfile",
    "DockerfileError",
    "Image",
    "Layer",
    "ImageBuilder",
    "ContainerRegistry",
    "RegistryError",
    "ContainerRuntime",
    "Container",
    "ContainerState",
    "ContainerError",
    "cold_start_cost_s",
    "SingularityRuntime",
    "SingularityImage",
]
