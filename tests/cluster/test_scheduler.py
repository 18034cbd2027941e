"""Unit tests for the pod scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node, ResourceSpec
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.scheduler import Scheduler, SchedulingError
from repro.containers.image import Image, Layer
from repro.containers.registry import ContainerRegistry
from repro.sim.clock import VirtualClock


def make_env(node_cpus=(8000, 8000)):
    clock = VirtualClock()
    registry = ContainerRegistry()
    image = Image(
        repository="m", tag="v", layers=[Layer("l", extra_bytes=10)], handler=lambda: 1
    )
    registry.push(image)
    nodes = [
        Node(f"n{i}", ResourceSpec(cpu, 2**40), clock, registry)
        for i, cpu in enumerate(node_cpus)
    ]
    return clock, Scheduler(clock), nodes, image


def make_pod(image, cpu=1000, name="p"):
    return Pod(name=name, image=image, request=ResourceSpec(cpu, 2**20))


class TestScheduling:
    def test_schedules_and_starts(self):
        clock, scheduler, nodes, image = make_env()
        pod = make_pod(image)
        node = scheduler.schedule(pod, nodes)
        assert pod.node is node
        assert pod.phase is PodPhase.RUNNING
        assert pod.ready
        assert scheduler.scheduled == 1

    def test_least_loaded_placement(self):
        clock, scheduler, nodes, image = make_env()
        pods = [make_pod(image, name=f"p{i}") for i in range(4)]
        for pod in pods:
            scheduler.schedule(pod, nodes)
        # Round-robins across the two equal nodes via least-loaded.
        placements = [p.node.name for p in pods]
        assert placements.count("n0") == 2 and placements.count("n1") == 2

    def test_charges_schedule_and_start_cost(self):
        clock, scheduler, nodes, image = make_env()
        scheduler.schedule(make_pod(image), nodes)
        assert clock.now() > 0

    def test_no_fit_raises(self):
        clock, scheduler, nodes, image = make_env(node_cpus=(500,))
        with pytest.raises(SchedulingError):
            scheduler.schedule(make_pod(image, cpu=1000), nodes)
        assert scheduler.failures == 1

    def test_cordoned_nodes_skipped(self):
        clock, scheduler, nodes, image = make_env()
        nodes[0].ready = False
        pod = make_pod(image)
        assert scheduler.schedule(pod, nodes).name == "n1"

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(100, 4000), min_size=1, max_size=25))
    def test_capacity_invariant_property(self, cpu_requests):
        """However pods are packed, no node ever exceeds capacity."""
        clock, scheduler, nodes, image = make_env(node_cpus=(8000, 6000, 4000))
        for i, cpu in enumerate(cpu_requests):
            try:
                scheduler.schedule(make_pod(image, cpu=cpu, name=f"p{i}"), nodes)
            except SchedulingError:
                pass
            for node in nodes:
                assert node.allocated.fits_within(node.capacity)
