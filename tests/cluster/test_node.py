"""Unit tests for nodes and resource accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.node import InsufficientResources, Node, ResourceSpec
from repro.containers.registry import ContainerRegistry
from repro.sim.clock import VirtualClock


def make_node(cpu=16000, mem=128 * 1024**3):
    return Node(
        name="n0",
        capacity=ResourceSpec(cpu, mem),
        clock=VirtualClock(),
        registry=ContainerRegistry(),
    )


class TestResourceSpec:
    def test_arithmetic(self):
        a = ResourceSpec(1000, 100)
        b = ResourceSpec(500, 50)
        assert (a + b) == ResourceSpec(1500, 150)
        assert (a - b) == ResourceSpec(500, 50)

    def test_fits_within(self):
        assert ResourceSpec(1000, 100).fits_within(ResourceSpec(1000, 100))
        assert not ResourceSpec(1001, 100).fits_within(ResourceSpec(1000, 100))
        assert not ResourceSpec(1000, 101).fits_within(ResourceSpec(1000, 100))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceSpec(-1, 0)


class TestAllocation:
    def test_allocate_release_cycle(self):
        node = make_node()
        request = ResourceSpec(4000, 8 * 1024**3)
        node.allocate(request)
        assert node.allocated == request
        node.release(request)
        assert node.allocated == ResourceSpec.zero()

    def test_overallocation_rejected(self):
        node = make_node(cpu=1000)
        with pytest.raises(InsufficientResources):
            node.allocate(ResourceSpec(2000, 1))

    def test_cumulative_allocation_respects_capacity(self):
        node = make_node(cpu=1000)
        node.allocate(ResourceSpec(600, 1))
        with pytest.raises(InsufficientResources):
            node.allocate(ResourceSpec(600, 1))

    def test_release_more_than_allocated_rejected(self):
        node = make_node()
        node.allocate(ResourceSpec(100, 100))
        with pytest.raises(ValueError):
            node.release(ResourceSpec(200, 100))

    @given(
        st.lists(
            st.tuples(st.integers(1, 2000), st.integers(1, 2**30)),
            max_size=20,
        )
    )
    def test_never_exceeds_capacity_property(self, requests):
        """The allocation invariant: allocated <= capacity always."""
        node = make_node(cpu=8000, mem=2**33)
        for cpu, mem in requests:
            spec = ResourceSpec(cpu, mem)
            try:
                node.allocate(spec)
            except InsufficientResources:
                pass
            assert node.allocated.fits_within(node.capacity)
