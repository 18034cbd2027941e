"""Unit tests for services (load balancing) and pod execution."""

import pytest

from repro.cluster.cluster import KubernetesCluster
from repro.cluster.service import NoReadyPods
from repro.containers.image import Image, Layer
from repro.containers.registry import ContainerRegistry
from repro.sim.clock import VirtualClock


@pytest.fixture
def env():
    clock = VirtualClock()
    registry = ContainerRegistry()
    image = Image(
        repository="m",
        tag="v",
        layers=[Layer("l")],
        handler=lambda x=0: x + 1,
    )
    registry.push(image)
    cluster = KubernetesCluster(name="t", clock=clock, registry=registry)
    cluster.add_node("n0", 64000, 2**42)
    deployment = cluster.create_deployment("m", image, replicas=3)
    service = cluster.expose(deployment)
    return cluster, deployment, service


class TestRouting:
    def test_round_robin(self, env):
        _, deployment, service = env
        chosen = [service.route().name for _ in range(6)]
        pods = [p.name for p in deployment.ready_pods()]
        assert chosen == pods * 2

    def test_route_skips_failed(self, env):
        _, deployment, service = env
        deployment.ready_pods()[0].fail()
        names = {service.route().name for _ in range(4)}
        assert len(names) == 2

    def test_no_ready_pods_raises(self, env):
        _, deployment, service = env
        deployment.scale(0)
        with pytest.raises(NoReadyPods):
            service.route()

    def test_served_counter_increments(self, env):
        _, deployment, service = env
        pod = service.route()
        pod.exec(1)
        pod.exec(2)
        assert pod.served == 2

    def test_duplicate_service_rejected(self, env):
        cluster, deployment, _ = env
        with pytest.raises(ValueError):
            cluster.expose(deployment)


class TestClusterFacade:
    def test_petrelkube_shape(self):
        """The SS V-A testbed: 14 nodes, 2x E5-2670, 128 GB RAM."""
        from repro.cluster.cluster import petrelkube

        cluster = petrelkube(VirtualClock(), ContainerRegistry())
        assert len(cluster.nodes) == 14
        assert cluster.nodes[0].capacity.cpu_millicores == 15_000
        assert cluster.nodes[0].capacity.memory_bytes == 125 * 1024**3

    def test_capacity_totals(self, env):
        cluster, _, _ = env
        assert cluster.total_capacity.cpu_millicores == 64000
        assert cluster.total_allocated.cpu_millicores == 3000  # 3 default pods
