"""Unit tests for the baseline serving backends (TF Serving, SageMaker,
Clipper) — deployment rules, invocation costs, cache behaviour."""

import pytest

from repro.cluster.cluster import petrelkube
from repro.containers.registry import ContainerRegistry
from repro.serving.base import ModelSpec
from repro.serving.clipper import ClipperBackend
from repro.serving.sagemaker import SageMakerBackend
from repro.serving.tfserving import NotServableError, TFServingBackend
from repro.sim.clock import VirtualClock
from repro.sim.latency import NetworkLink


@pytest.fixture
def env():
    clock = VirtualClock()
    cluster = petrelkube(clock, ContainerRegistry())
    link = NetworkLink("tm<->k8s", rtt_s=0.00017, bandwidth_bps=4e9)
    return clock, cluster, link


def cifar_spec():
    return ModelSpec.from_calibration("cifar10", "cifar10", lambda x: [x, "cat"])


def python_fn_spec():
    return ModelSpec.from_calibration("featurize", "matminer_featurize", lambda x: x)


class TestTFServing:
    def test_deploy_and_invoke(self, env):
        clock, cluster, link = env
        backend = TFServingBackend(clock, cluster, link, "grpc")
        backend.deploy(cifar_spec(), replicas=2)
        result = backend.invoke("cifar10", "img")
        assert result.value == ["img", "cat"]
        assert result.invocation_time > result.inference_time > 0

    def test_rejects_non_tf_models(self, env):
        clock, cluster, link = env
        backend = TFServingBackend(clock, cluster, link)
        with pytest.raises(NotServableError):
            backend.deploy(python_fn_spec())

    def test_grpc_faster_than_rest(self, env):
        clock, cluster, link = env
        grpc = TFServingBackend(clock, cluster, link, "grpc")
        rest = TFServingBackend(clock, cluster, link, "rest")
        grpc.deploy(cifar_spec())
        rest.deploy(cifar_spec())
        t_grpc = grpc.invoke("cifar10", "x").invocation_time
        t_rest = rest.invoke("cifar10", "x").invocation_time
        assert t_grpc < t_rest

    def test_round_robin_across_replicas(self, env):
        clock, cluster, link = env
        backend = TFServingBackend(clock, cluster, link)
        service = backend.deploy(cifar_spec(), replicas=3)
        for _ in range(6):
            backend.invoke("cifar10", "x")
        served = [p.served for p in service.deployment.ready_pods()]
        assert served == [2, 2, 2]

    def test_unknown_model_invoke(self, env):
        clock, cluster, link = env
        backend = TFServingBackend(clock, cluster, link)
        with pytest.raises(KeyError):
            backend.invoke("ghost", "x")


class TestSageMaker:
    def test_flask_serves_any_model(self, env):
        clock, cluster, link = env
        backend = SageMakerBackend(clock, cluster, link, "flask")
        backend.deploy(python_fn_spec())
        assert backend.invoke("featurize", 7).value == 7

    def test_tfserving_mode_restricted(self, env):
        clock, cluster, link = env
        backend = SageMakerBackend(clock, cluster, link, "tfserving-grpc")
        with pytest.raises(NotServableError):
            backend.deploy(python_fn_spec())

    def test_flask_slowest_path(self, env):
        clock, cluster, link = env
        flask = SageMakerBackend(clock, cluster, link, "flask")
        tfs = SageMakerBackend(clock, cluster, link, "tfserving-grpc")
        flask.deploy(cifar_spec())
        tfs.deploy(cifar_spec())
        assert (
            tfs.invoke("cifar10", "x").invocation_time
            < flask.invoke("cifar10", "x").invocation_time
        )

    def test_invalid_mode(self, env):
        clock, cluster, link = env
        with pytest.raises(ValueError):
            SageMakerBackend(clock, cluster, link, "serverless")


class TestClipper:
    def test_memoization_hits(self, env):
        clock, cluster, link = env
        clipper = ClipperBackend(clock, cluster, link, memoization=True)
        clipper.deploy(cifar_spec())
        first = clipper.invoke("cifar10", "same-input")
        second = clipper.invoke("cifar10", "same-input")
        assert not first.cache_hit and second.cache_hit
        assert second.invocation_time < first.invocation_time
        assert clipper.cache_hits == 1

    def test_cache_hits_still_pay_cluster_trip(self, env):
        """The structural claim behind Fig. 8: Clipper's cached responses
        still cross the TM->cluster link to reach the query frontend."""
        clock, cluster, link = env
        clipper = ClipperBackend(clock, cluster, link, memoization=True)
        clipper.deploy(cifar_spec())
        clipper.invoke("cifar10", "x")
        hit = clipper.invoke("cifar10", "x")
        assert hit.invocation_time > link.rtt_s / 2  # at least one traversal

    def test_memoization_disabled(self, env):
        clock, cluster, link = env
        clipper = ClipperBackend(clock, cluster, link, memoization=False)
        clipper.deploy(cifar_spec())
        clipper.invoke("cifar10", "x")
        repeat = clipper.invoke("cifar10", "x")
        assert not repeat.cache_hit

    def test_privileged_requirement(self, env):
        clock, cluster, link = env
        for node in cluster.nodes:
            node.runtime.privileged = False
        from repro.serving.clipper import PrivilegeError

        clipper = ClipperBackend(clock, cluster, link)
        with pytest.raises(PrivilegeError):
            clipper.deploy(cifar_spec())

    def test_distinct_namespaces_for_memo_variants(self, env):
        clock, cluster, link = env
        a = ClipperBackend(clock, cluster, link, memoization=True)
        b = ClipperBackend(clock, cluster, link, memoization=False)
        a.deploy(cifar_spec())
        b.deploy(cifar_spec())  # no deployment-name collision
        assert a.name != b.name
