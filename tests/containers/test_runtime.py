"""Unit tests for the container runtime (pull/start/exec/failure)."""

import pytest

from repro.containers.image import Image, Layer
from repro.containers.registry import ContainerRegistry
from repro.containers.runtime import ContainerError, ContainerRuntime, ContainerState
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock


def run(runtime, reference):
    """Pull, create and start one container."""
    return runtime.start(runtime.create(runtime.pull(reference)))


@pytest.fixture
def env():
    clock = VirtualClock()
    registry = ContainerRegistry()
    image = Image(
        repository="dlhub/m",
        tag="v1",
        layers=[Layer("base", extra_bytes=1_000_000)],
        handler=lambda x: x * 2,
    )
    registry.push(image)
    runtime = ContainerRuntime(clock, registry, node_name="n0")
    return clock, runtime, image


class TestPull:
    def test_cold_pull_charges_time(self, env):
        clock, runtime, image = env
        runtime.pull("dlhub/m:v1")
        assert clock.now() == pytest.approx(1_000_000 * cal.IMAGE_PULL_PER_BYTE_S)
        assert runtime.bytes_pulled == 1_000_000

    def test_warm_pull_is_free(self, env):
        clock, runtime, image = env
        runtime.pull("dlhub/m:v1")
        t = clock.now()
        runtime.pull("dlhub/m:v1")
        assert clock.now() == t

    def test_has_image(self, env):
        _, runtime, image = env
        assert not runtime.has_image(image)
        runtime.pull(image.reference)
        assert runtime.has_image(image)


class TestLifecycle:
    def test_create_start_exec(self, env):
        clock, runtime, image = env
        container = runtime.create(image)
        assert container.state is ContainerState.CREATED
        runtime.start(container)
        assert container.alive
        assert runtime.exec(container, 21) == 42
        assert container.exec_count == 1

    def test_start_charges_cold_start(self, env):
        clock, runtime, image = env
        container = runtime.create(image)
        before = clock.now()
        runtime.start(container)
        assert clock.now() - before == pytest.approx(cal.CONTAINER_START_S)

    def test_start_idempotent(self, env):
        clock, runtime, image = env
        container = run(runtime, "dlhub/m:v1")
        t = clock.now()
        runtime.start(container)
        assert clock.now() == t


class TestFailureModes:
    def test_exec_on_stopped_raises(self, env):
        _, runtime, image = env
        container = run(runtime, "dlhub/m:v1")
        runtime.stop(container)
        with pytest.raises(ContainerError):
            runtime.exec(container, 1)

    def test_kill_then_exec_raises(self, env):
        _, runtime, image = env
        container = run(runtime, "dlhub/m:v1")
        runtime.kill(container)
        assert container.state is ContainerState.FAILED
        with pytest.raises(ContainerError):
            runtime.exec(container, 1)

    def test_failed_cannot_restart(self, env):
        _, runtime, image = env
        container = run(runtime, "dlhub/m:v1")
        runtime.kill(container)
        with pytest.raises(ContainerError):
            runtime.start(container)

    def test_exec_without_handler(self, env):
        clock, runtime, _ = env
        bare = Image(repository="x", tag="y", layers=[Layer("l")])
        runtime.registry.push(bare)
        container = run(runtime, "x:y")
        with pytest.raises(ContainerError):
            runtime.exec(container)
