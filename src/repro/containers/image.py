"""Layered container images with content digests.

An :class:`Image` is an ordered list of :class:`Layer` objects (each a
file map plus a synthetic size for dependency layers), a config (env,
entrypoint), and a deterministic digest derived from layer digests —
so identical builds are identical images, enabling registry dedup and
cache-friendly pulls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.containers.dockerfile import Dockerfile


@dataclass(frozen=True)
class Layer:
    """One image layer: files plus extra (simulated) payload bytes."""

    name: str
    files: tuple[tuple[str, bytes], ...] = ()
    extra_bytes: int = 0

    @property
    def size(self) -> int:
        return sum(len(data) for _, data in self.files) + self.extra_bytes

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(str(self.extra_bytes).encode())
        for path, data in self.files:
            h.update(path.encode())
            h.update(hashlib.sha256(data).digest())
        return "sha256:" + h.hexdigest()


@dataclass
class Image:
    """A built container image."""

    repository: str
    tag: str
    layers: list[Layer] = field(default_factory=list)
    env: dict[str, str] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    entrypoint: str = ""
    #: The Python callable packaged as the image's serving entrypoint.
    #: (Stand-in for the code baked into a real servable container.)
    handler: Callable[..., Any] | None = field(default=None, repr=False)

    @property
    def reference(self) -> str:
        return f"{self.repository}:{self.tag}"

    @property
    def size(self) -> int:
        return sum(layer.size for layer in self.layers)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for layer in self.layers:
            h.update(layer.digest.encode())
        h.update(json.dumps(self.env, sort_keys=True).encode())
        h.update(self.entrypoint.encode())
        return "sha256:" + h.hexdigest()

    def read_file(self, path: str) -> bytes:
        """Read a file from the image (later layers shadow earlier ones)."""
        for layer in reversed(self.layers):
            for fpath, data in layer.files:
                if fpath == path:
                    return data
        raise FileNotFoundError(path)


#: Simulated sizes of well-known base images and dependency payloads (bytes).
BASE_IMAGE_SIZES = {
    "python:3.7": 340_000_000,
    "python:3.7-slim": 55_000_000,
    "dlhub/base:latest": 120_000_000,
    "tensorflow/serving:latest": 230_000_000,
    "ubuntu:18.04": 64_000_000,
}

DEFAULT_BASE_SIZE = 100_000_000
#: Approximate installed size per pip dependency (bytes).
PIP_PACKAGE_SIZE = 12_000_000


class ImageBuilder:
    """Builds an :class:`Image` from a :class:`Dockerfile` plus a file context.

    The build walks instructions in order, creating one layer per RUN/COPY
    (as Docker does), resolving COPY sources from the supplied build
    context (a ``path -> bytes`` mapping).
    """

    def __init__(self) -> None:
        self.builds = 0

    def build(
        self,
        dockerfile: Dockerfile,
        context: dict[str, bytes] | None = None,
        repository: str = "local/image",
        tag: str = "latest",
        handler: Callable[..., Any] | None = None,
    ) -> Image:
        dockerfile.validate()
        context = context or {}
        base = dockerfile.base_image
        layers = [
            Layer(name=f"base:{base}", extra_bytes=BASE_IMAGE_SIZES.get(base, DEFAULT_BASE_SIZE))
        ]
        env: dict[str, str] = {}
        entrypoint = ""
        for op, arg in dockerfile.instructions:
            if op == "FROM":
                continue
            if op == "RUN":
                n_pkgs = arg.count(" ") if "pip install" in arg else 1
                layers.append(
                    Layer(name=f"run:{arg[:48]}", extra_bytes=PIP_PACKAGE_SIZE * max(n_pkgs - 3, 1))
                )
            elif op in ("COPY", "ADD"):
                src, dst = arg.split()
                src_prefix = src.rstrip("/") + "/"
                matched = {
                    p: d
                    for p, d in context.items()
                    if p == src or p.startswith(src_prefix)
                }
                if not matched:
                    raise FileNotFoundError(f"{op} source {src!r} not in build context")
                dst_prefix = dst.rstrip("/") + "/"
                files = tuple(
                    (dst if p == src else dst_prefix + p[len(src_prefix):], d)
                    for p, d in sorted(matched.items())
                )
                layers.append(Layer(name=f"copy:{src}", files=files))
            elif op == "ENV":
                key, _, value = arg.partition("=")
                env[key] = value
            elif op == "ENTRYPOINT":
                entrypoint = arg
            elif op == "LABEL":
                pass  # collected below
        self.builds += 1
        return Image(
            repository=repository,
            tag=tag,
            layers=layers,
            env=env,
            labels=dockerfile.labels(),
            entrypoint=entrypoint,
            handler=handler,
        )
