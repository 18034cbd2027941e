"""Unit tests for layered images and the image builder."""

import pytest

from repro.containers.dockerfile import Dockerfile
from repro.containers.image import BASE_IMAGE_SIZES, Image, ImageBuilder, Layer


class TestLayer:
    def test_size_counts_files_and_extra(self):
        layer = Layer("l", files=(("a", b"12"), ("b", b"345")), extra_bytes=10)
        assert layer.size == 15

    def test_digest_deterministic(self):
        a = Layer("l", files=(("a", b"x"),))
        b = Layer("l", files=(("a", b"x"),))
        assert a.digest == b.digest

    def test_digest_sensitive_to_content(self):
        a = Layer("l", files=(("a", b"x"),))
        b = Layer("l", files=(("a", b"y"),))
        assert a.digest != b.digest


class TestImage:
    def _image(self):
        return Image(
            repository="dlhub/test",
            tag="v1",
            layers=[
                Layer("base", extra_bytes=100),
                Layer("code", files=(("/app/main.py", b"print()"),)),
            ],
            entrypoint="python /app/main.py",
        )

    def test_reference(self):
        assert self._image().reference == "dlhub/test:v1"

    def test_size_sums_layers(self):
        assert self._image().size == 100 + len(b"print()")

    def test_digest_stable_across_builds(self):
        assert self._image().digest == self._image().digest

    def test_read_file_shadowing(self):
        image = self._image()
        image.layers.append(Layer("patch", files=(("/app/main.py", b"new"),)))
        assert image.read_file("/app/main.py") == b"new"

    def test_read_missing_file(self):
        with pytest.raises(FileNotFoundError):
            self._image().read_file("/nope")


class TestImageBuilder:
    def _dockerfile(self):
        return (
            Dockerfile()
            .from_("python:3.7-slim")
            .pip_install(["numpy"])
            .copy("components/", "/opt/components/")
            .env("A", "1")
            .entrypoint("serve")
        )

    def test_build_produces_layers(self):
        image = ImageBuilder().build(
            self._dockerfile(),
            {"components/weights.npz": b"wwww"},
            repository="dlhub/m",
        )
        assert image.reference == "dlhub/m:latest"
        # base + pip + copy layers.
        assert len(image.layers) == 3
        assert image.env == {"A": "1"}
        assert image.entrypoint == "serve"

    def test_base_size_applied(self):
        image = ImageBuilder().build(
            self._dockerfile(), {"components/x": b""}
        )
        assert image.layers[0].size == BASE_IMAGE_SIZES["python:3.7-slim"]

    def test_copy_rewrites_paths(self):
        image = ImageBuilder().build(
            self._dockerfile(), {"components/weights.npz": b"w"}
        )
        assert image.read_file("/opt/components/weights.npz") == b"w"

    def test_missing_copy_source_raises(self):
        with pytest.raises(FileNotFoundError):
            ImageBuilder().build(self._dockerfile(), {})

    def test_handler_attached(self):
        def handler(x):
            return x + 1
        image = ImageBuilder().build(
            self._dockerfile(), {"components/x": b""}, handler=handler
        )
        assert image.handler(1) == 2

    def test_identical_builds_identical_digests(self):
        builder = ImageBuilder()
        ctx = {"components/w": b"w"}
        a = builder.build(self._dockerfile(), ctx)
        b = builder.build(self._dockerfile(), ctx)
        assert a.digest == b.digest

    def test_labels_collected(self):
        df = Dockerfile().from_("x").label("dlhub.servable", "m")
        image = ImageBuilder().build(df, {})
        assert image.labels == {"dlhub.servable": "m"}
