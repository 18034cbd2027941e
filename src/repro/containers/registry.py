"""Tagged container registry with layer-level dedup accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.containers.image import Image


class RegistryError(KeyError):
    """Raised for unknown image references."""


@dataclass
class ContainerRegistry:
    """Push/pull registry keyed by ``repository:tag``.

    Tracks layer digests already stored so that pull-cost accounting can
    skip layers a node has cached (as real registries/nodes do).
    """

    name: str = "registry"
    _images: dict[str, Image] = field(default_factory=dict)
    _layer_digests: set[str] = field(default_factory=set)
    pushes: int = 0
    pulls: int = 0

    def push(self, image: Image) -> str:
        """Store ``image``; returns its content digest."""
        self._images[image.reference] = image
        for layer in image.layers:
            self._layer_digests.add(layer.digest)
        self.pushes += 1
        return image.digest

    def pull(self, reference: str) -> Image:
        image = self._images.get(reference)
        if image is None:
            raise RegistryError(reference)
        self.pulls += 1
        return image

    def exists(self, reference: str) -> bool:
        return reference in self._images

    def resolve_digest(self, reference: str) -> str:
        return self.pull_metadata(reference).digest

    def pull_metadata(self, reference: str) -> Image:
        """Like :meth:`pull` but without counting as a data pull."""
        image = self._images.get(reference)
        if image is None:
            raise RegistryError(reference)
        return image

    def tags(self, repository: str) -> list[str]:
        prefix = repository + ":"
        return sorted(
            ref[len(prefix):] for ref in self._images if ref.startswith(prefix)
        )

    def missing_layer_bytes(self, image: Image, cached_digests: set[str]) -> int:
        """Bytes that a puller with ``cached_digests`` would actually fetch."""
        return sum(
            layer.size for layer in image.layers if layer.digest not in cached_digests
        )
