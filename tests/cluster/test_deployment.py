"""Unit tests for deployments: scaling and self-healing."""

import pytest

from repro.cluster.cluster import KubernetesCluster
from repro.cluster.node import ResourceSpec
from repro.containers.image import Image, Layer
from repro.containers.registry import ContainerRegistry
from repro.sim.clock import VirtualClock


@pytest.fixture
def env():
    clock = VirtualClock()
    registry = ContainerRegistry()
    image = Image(
        repository="dlhub/m",
        tag="v1",
        layers=[Layer("l", extra_bytes=100)],
        handler=lambda: "ok",
    )
    registry.push(image)
    cluster = KubernetesCluster(name="test", clock=clock, registry=registry)
    for i in range(3):
        cluster.add_node(f"n{i}", 16000, 2**40)
    return cluster, image


class TestScaling:
    def test_initial_replicas(self, env):
        cluster, image = env
        d = cluster.create_deployment("m", image, replicas=3)
        assert len(d.ready_pods()) == 3

    def test_scale_up(self, env):
        cluster, image = env
        d = cluster.create_deployment("m", image, replicas=1)
        d.scale(4)
        assert len(d.ready_pods()) == 4

    def test_scale_down_releases_resources(self, env):
        cluster, image = env
        d = cluster.create_deployment(
            "m", image, replicas=4, request=ResourceSpec(2000, 2**30)
        )
        allocated_before = cluster.total_allocated.cpu_millicores
        d.scale(1)
        assert len(d.ready_pods()) == 1
        assert cluster.total_allocated.cpu_millicores == allocated_before - 3 * 2000

    def test_scale_to_zero(self, env):
        cluster, image = env
        d = cluster.create_deployment("m", image, replicas=2)
        d.scale(0)
        assert d.ready_pods() == []

    def test_negative_replicas_rejected(self, env):
        cluster, image = env
        d = cluster.create_deployment("m", image, replicas=1)
        with pytest.raises(ValueError):
            d.scale(-1)

    def test_pod_names_unique(self, env):
        cluster, image = env
        d = cluster.create_deployment("m", image, replicas=3)
        d.scale(1)
        d.scale(4)
        names = [p.name for p in d.pods]
        assert len(names) == len(set(names))


class TestDelete:
    def test_delete_terminates_all(self, env):
        cluster, image = env
        cluster.create_deployment("m", image, replicas=3)
        cluster.delete_deployment("m")
        assert cluster.pod_count() == 0
        assert cluster.total_allocated.cpu_millicores == 0

    def test_duplicate_name_rejected(self, env):
        cluster, image = env
        cluster.create_deployment("m", image)
        with pytest.raises(ValueError):
            cluster.create_deployment("m", image)

    def test_delete_unknown(self, env):
        cluster, image = env
        with pytest.raises(KeyError):
            cluster.delete_deployment("ghost")
