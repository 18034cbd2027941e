"""Unit tests for Dockerfile synthesis."""

import pytest

from repro.containers.dockerfile import Dockerfile, DockerfileError


class TestBuilderAPI:
    def test_fluent_construction(self):
        df = (
            Dockerfile()
            .from_("python:3.7")
            .pip_install(["numpy", "keras"])
            .copy("model/", "/opt/model/")
            .env("MODE", "serve")
            .entrypoint("python serve.py")
        )
        assert df.instructions == [
            ("FROM", "python:3.7"),
            ("RUN", "pip install --no-cache-dir keras numpy"),
            ("COPY", "model/ /opt/model/"),
            ("ENV", "MODE=serve"),
            ("ENTRYPOINT", "python serve.py"),
        ]

    def test_from_only_once(self):
        df = Dockerfile().from_("a")
        with pytest.raises(DockerfileError):
            df.from_("b")

    def test_base_image_accessor(self):
        assert Dockerfile().from_("ubuntu:18.04").base_image == "ubuntu:18.04"
        with pytest.raises(DockerfileError):
            Dockerfile().base_image

    def test_labels(self):
        df = Dockerfile().from_("x").label("dlhub.servable", "cifar10")
        assert df.labels() == {"dlhub.servable": "cifar10"}

    def test_empty_pip_install_is_noop(self):
        df = Dockerfile().from_("x").pip_install([])
        assert len(df.instructions) == 1


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(DockerfileError):
            Dockerfile().validate()

    def test_must_start_with_from(self):
        df = Dockerfile()
        df.instructions.append(("RUN", "echo hi"))
        with pytest.raises(DockerfileError):
            df.validate()

    def test_unknown_instruction_rejected(self):
        df = Dockerfile().from_("x")
        df.instructions.append(("TELEPORT", "mars"))
        with pytest.raises(DockerfileError):
            df.validate()
