"""Unit tests for the container registry."""

import pytest

from repro.containers.image import Image, Layer
from repro.containers.registry import ContainerRegistry, RegistryError


def make_image(repo="dlhub/m", tag="v1", payload=b"payload"):
    return Image(
        repository=repo,
        tag=tag,
        layers=[Layer("base", extra_bytes=100), Layer("code", files=(("f", payload),))],
    )


@pytest.fixture
def registry():
    return ContainerRegistry()


class TestPushPull:
    def test_push_pull_roundtrip(self, registry):
        image = make_image()
        digest = registry.push(image)
        assert digest == image.digest
        assert registry.pull("dlhub/m:v1") is image
        assert registry.pushes == 1 and registry.pulls == 1

    def test_pull_unknown(self, registry):
        with pytest.raises(RegistryError):
            registry.pull("ghost:latest")

    def test_exists(self, registry):
        registry.push(make_image())
        assert registry.exists("dlhub/m:v1")
        assert not registry.exists("dlhub/m:v2")

    def test_metadata_pull_not_counted(self, registry):
        registry.push(make_image())
        registry.pull_metadata("dlhub/m:v1")
        assert registry.pulls == 0

    def test_resolve_digest(self, registry):
        image = make_image()
        registry.push(image)
        assert registry.resolve_digest("dlhub/m:v1") == image.digest


class TestTagsRepos:
    def test_tags_listing(self, registry):
        registry.push(make_image(tag="v1"))
        registry.push(make_image(tag="v2", payload=b"other"))
        assert registry.tags("dlhub/m") == ["v1", "v2"]

    def test_retag_overwrites(self, registry):
        registry.push(make_image(payload=b"one"))
        newer = make_image(payload=b"two")
        registry.push(newer)
        assert registry.pull("dlhub/m:v1") is newer


class TestLayerDedup:
    def test_missing_bytes_full_for_cold_cache(self, registry):
        image = make_image()
        registry.push(image)
        assert registry.missing_layer_bytes(image, set()) == image.size

    def test_missing_bytes_zero_when_cached(self, registry):
        image = make_image()
        registry.push(image)
        cached = {layer.digest for layer in image.layers}
        assert registry.missing_layer_bytes(image, cached) == 0

    def test_shared_base_layer_dedup(self, registry):
        a = make_image(repo="dlhub/a", payload=b"aaa")
        b = make_image(repo="dlhub/b", payload=b"bbb")
        registry.push(a)
        registry.push(b)
        cached = {a.layers[0].digest}  # shared base layer
        missing = registry.missing_layer_bytes(b, cached)
        assert missing == b.layers[1].size  # only the unique code layer
