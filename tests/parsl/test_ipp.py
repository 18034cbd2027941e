"""Unit tests for the IPP engine pool (load balancing, busy-until)."""

import pytest

from repro.cluster.cluster import KubernetesCluster
from repro.containers.image import Image, Layer
from repro.containers.registry import ContainerRegistry
from repro.parsl.ipp import IPPEnginePool, NoEnginesError
from repro.sim.clock import VirtualClock


@pytest.fixture
def env():
    clock = VirtualClock()
    registry = ContainerRegistry()
    image = Image(
        repository="m", tag="v", layers=[Layer("l")], handler=lambda x=0: x + 1
    )
    registry.push(image)
    cluster = KubernetesCluster(name="t", clock=clock, registry=registry)
    cluster.add_node("n0", 64000, 2**42)
    deployment = cluster.create_deployment("m", image, replicas=4)
    pool = IPPEnginePool(clock, deployment.ready_pods(), dispatch_cost_s=0.002)
    return clock, pool, deployment


class TestDispatch:
    def test_executes_on_pod(self, env):
        clock, pool, _ = env
        result, pod = pool.dispatch_to_pod((41,), exec_cost_s=0.01)
        assert result == 42
        assert pod.busy_until > 0

    def test_dispatch_cost_charged(self, env):
        clock, pool, _ = env
        t0 = clock.now()
        pool.dispatch_to_pod((1,))
        assert clock.now() - t0 == pytest.approx(0.002)

    def test_least_busy_selection(self, env):
        clock, pool, _ = env
        # 8 tasks across 4 engines: each engine gets exactly 2.
        for _ in range(8):
            pool.dispatch_to_pod((0,), exec_cost_s=1.0)
        tasks = [p.served for p in pool.pods]
        assert tasks == [2, 2, 2, 2]

    def test_busy_windows_queue(self, env):
        clock, pool, _ = env
        # One engine, three sequential tasks: busy_until stacks.
        pool.set_pods(pool.pods[:1])
        for _ in range(3):
            pool.dispatch_to_pod((0,), exec_cost_s=1.0)
        assert pool.pods[0].busy_until >= 3.0

    def test_no_engines_raises(self, env):
        clock, pool, _ = env
        pool.set_pods([])
        with pytest.raises(NoEnginesError):
            pool.dispatch_to_pod((1,))

    def test_failed_pods_skipped(self, env):
        clock, pool, deployment = env
        for pod in deployment.ready_pods()[:3]:
            pod.fail()
        result, pod = pool.dispatch_to_pod((1,))
        assert pod.ready

    def test_select_does_not_charge(self, env):
        clock, pool, _ = env
        t0 = clock.now()
        pool.select()
        assert clock.now() == t0


class TestDrain:
    def test_drain_jumps_to_last_completion(self, env):
        clock, pool, _ = env
        t0 = clock.now()
        for _ in range(8):
            pool.dispatch_to_pod((0,), exec_cost_s=5.0)
        pool.drain()
        # 2 tasks per engine at 5s each; dispatch was 8*2ms.
        assert clock.now() - t0 == pytest.approx(10.0, abs=0.2)

    def test_drain_noop_when_idle(self, env):
        clock, pool, _ = env
        t0 = clock.now()
        assert pool.drain() == t0

    def test_throughput_scales_then_saturates(self, env):
        """The Fig. 7 mechanism in miniature: adding engines helps until
        the serial dispatch cost dominates."""
        clock, pool, deployment = env

        def makespan_with(replicas, n_tasks=200, exec_cost=0.02):
            deployment.scale(replicas)
            pool.set_pods(deployment.ready_pods())
            for pod in pool.pods:
                pod.busy_until = clock.now()
            t0 = clock.now()
            for _ in range(n_tasks):
                pool.dispatch_to_pod((0,), exec_cost_s=exec_cost)
            pool.drain()
            return clock.now() - t0

        t1 = makespan_with(1)
        t5 = makespan_with(5)
        t20 = makespan_with(20)
        t40 = makespan_with(40)
        assert t5 < t1 / 3  # near-linear early scaling
        assert t40 > t20 * 0.9  # saturation: dispatch-bound floor
