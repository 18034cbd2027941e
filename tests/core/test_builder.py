"""Unit tests for the servable builder (components -> Dockerfile -> image)."""

import pytest

from repro.containers.registry import ContainerRegistry
from repro.core.builder import DLHUB_BASE_DEPENDENCIES, ServableBuilder
from repro.core.servable import PythonFunctionServable
from repro.core.toolbox import MetadataBuilder
from repro.sim.clock import VirtualClock


def make_servable(name="m", dependencies=None, components=None):
    metadata = (
        MetadataBuilder(name, "Title")
        .creator("T")
        .model_type("python_function")
        .input_type("dict")
        .output_type("dict")
        .build()
    )
    servable = PythonFunctionServable(
        metadata, lambda x: x, dependencies=dependencies or []
    )
    servable.components.update(components or {})
    return servable


@pytest.fixture
def builder():
    return ServableBuilder(VirtualClock(), ContainerRegistry())


class TestDockerfileSynthesis:
    def test_structure(self, builder):
        servable = make_servable(dependencies=["pymatgen"])
        df = builder.dockerfile_for(servable)
        text = "\n".join(f"{op} {arg}" for op, arg in df.instructions)
        assert text.startswith("FROM dlhub/base:latest")
        assert "pip install" in text
        assert "pymatgen" in text
        for dep in DLHUB_BASE_DEPENDENCIES:
            assert dep in text
        assert "ENTRYPOINT python -m dlhub_shim" in text

    def test_labels_identify_servable(self, builder):
        df = builder.dockerfile_for(make_servable("cifar10"))
        assert df.labels()["dlhub.servable"] == "cifar10"

    def test_components_copied(self, builder):
        servable = make_servable(components={"weights.npz": b"w"})
        df = builder.dockerfile_for(servable)
        assert ("COPY", "components/ /opt/servable/components/") in df.instructions


class TestBuild:
    def test_build_pushes_to_registry(self, builder):
        result = builder.build(make_servable("m"))
        assert result.reference == "dlhub/m:latest"
        assert builder.registry.exists("dlhub/m:latest")
        assert result.digest == builder.registry.resolve_digest("dlhub/m:latest")

    def test_components_baked_into_image(self, builder):
        servable = make_servable(components={"estimator.pkl": b"\x80\x04"})
        result = builder.build(servable)
        assert (
            result.image.read_file("/opt/servable/components/estimator.pkl")
            == b"\x80\x04"
        )

    def test_handler_packaged(self, builder):
        result = builder.build(make_servable())
        assert result.image.handler("echo") == "echo"

    def test_build_charges_time_proportional_to_components(self, builder):
        small = builder.build(make_servable("small", components={"a": b"x"}))
        big = builder.build(
            make_servable("big", components={"a": b"x" * 50_000_000})
        )
        assert big.build_time_s > small.build_time_s

    def test_version_tags(self, builder):
        servable = make_servable()
        builder.build(servable, tag="v1")
        builder.build(servable, tag="v2")
        assert builder.registry.tags("dlhub/m") == ["v1", "v2"]
        assert builder.builds_completed == 2
