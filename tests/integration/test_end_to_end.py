"""Integration tests: full publish -> build -> deploy -> serve round trips."""

import io

import numpy as np
import pytest

from repro.core.client import DLHubClient
from repro.core.pipeline import Pipeline
from repro.core.zoo import ZOO_NAMES, build_zoo, sample_input


@pytest.fixture(scope="module")
def full_deployment():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False)
    zoo = build_zoo(oqmd_entries=60, n_estimators=5)
    for name in ZOO_NAMES:
        testbed.publish_and_deploy(zoo[name], replicas=1)
    client = DLHubClient(testbed.management, testbed.token)
    return testbed, zoo, client


class TestPublishServeRoundTrip:
    def test_all_six_servables_serve_correctly(self, full_deployment):
        testbed, zoo, client = full_deployment
        for name in ZOO_NAMES:
            args = sample_input(name)
            via_service = client.run(name, *args)
            locally = zoo[name].run(*args)
            if isinstance(via_service, np.ndarray):
                assert np.allclose(via_service, locally)
            else:
                assert via_service == locally

    def test_served_model_output_matches_published_components(self, full_deployment):
        """Reproducibility: restoring the published weight archive yields a
        model that agrees with the served one."""
        testbed, zoo, client = full_deployment
        from repro.ml.models.cifar10 import build_cifar10_cnn

        blob = zoo["cifar10"].components["weights.npz"]
        restored = build_cifar10_cnn(seed=999)
        with np.load(io.BytesIO(blob)) as archive:
            for key, target in restored.params().items():
                target[...] = archive[key]
        x = sample_input("cifar10")[0]
        assert np.allclose(restored.predict(x), client.run("cifar10", x))

    def test_container_images_in_registry_for_all(self, full_deployment):
        testbed, _, _ = full_deployment
        for name in ZOO_NAMES:
            assert testbed.registry.exists(f"dlhub/{name}:v1")

    def test_cluster_hosts_one_pod_per_servable(self, full_deployment):
        testbed, _, _ = full_deployment
        assert testbed.cluster.pod_count() >= len(ZOO_NAMES)

    def test_search_finds_everything_published(self, full_deployment):
        _, _, client = full_deployment
        assert client.search("*", limit=100).total >= len(ZOO_NAMES)


class TestComponentStaging:
    def test_publish_with_endpoint_staging(self, full_deployment):
        """Model components staged from a user endpoint (the S3/Globus
        upload path of SS IV-A) end up inside the servable."""
        testbed, _, _ = full_deployment
        from repro.core.servable import PythonFunctionServable
        from repro.core.toolbox import MetadataBuilder
        from repro.data.endpoint import Endpoint, EndpointACL

        user, token = testbed.new_user("uploader")
        laptop = Endpoint(
            "uploader-laptop",
            testbed.store,
            EndpointACL(owner_id=user.identity_id),
            latency_class="wan",
        )
        laptop.put("weights.bin", b"\x01" * 2048, user)
        md = (
            MetadataBuilder("staged_model", "Staged")
            .creator("Uploader")
            .model_type("python_function")
            .input_type("dict")
            .output_type("dict")
            .build()
        )
        servable = PythonFunctionServable(md, lambda x: x)
        published = testbed.management.publish(
            token,
            servable,
            component_paths=["weights.bin"],
            source_endpoint=laptop,
        )
        assert servable.components["weights.bin"] == b"\x01" * 2048
        assert published.build.image.read_file(
            "/opt/servable/components/weights.bin"
        ) == b"\x01" * 2048


class TestPipelineEndToEnd:
    def test_formation_enthalpy_pipeline(self, full_deployment):
        testbed, zoo, client = full_deployment
        pipeline = (
            Pipeline("e2e_enthalpy")
            .add_step("matminer_util")
            .add_step("matminer_featurize")
            .add_step("matminer_model")
        )
        client.register_pipeline(pipeline)
        served = client.run_pipeline("e2e_enthalpy", "MgO")
        manual = zoo["matminer_model"].run(
            zoo["matminer_featurize"].run(zoo["matminer_util"].run("MgO"))
        )
        assert served == pytest.approx(manual)

    def test_pipeline_cheaper_than_separate_requests(self, full_deployment):
        testbed, _, client = full_deployment
        pipe_result = testbed.management.run_pipeline(
            testbed.token, "e2e_enthalpy", "CaO"
        )
        # Three separate requests each pay the MS->TM round trip.
        testbed.task_manager.cache.clear()
        separate = 0.0
        separate += client.run_detailed("matminer_util", "CaO").request_time
        fracs = {"Ca": 0.5, "O": 0.5}
        separate += client.run_detailed("matminer_featurize", fracs).request_time
        features = sample_input("matminer_model")[0]
        separate += client.run_detailed("matminer_model", features).request_time
        assert pipe_result.request_time < separate


class TestMultiTenancy:
    def test_two_users_independent_namespaces(self, full_deployment):
        testbed, _, _ = full_deployment
        from repro.core.servable import PythonFunctionServable
        from repro.core.toolbox import MetadataBuilder

        def publish_as(username, value):
            _, token = testbed.new_user(username)
            md = (
                MetadataBuilder("shared_name", f"{username}'s model")
                .creator(username)
                .model_type("python_function")
                .input_type("dict")
                .output_type("dict")
                .build()
            )
            return testbed.management.publish(
                token, PythonFunctionServable(md, lambda x, v=value: v)
            )

        a = publish_as("alice_e2e", "from-alice")
        b = publish_as("bob_e2e", "from-bob")
        assert a.full_name == "alice_e2e/shared_name"
        assert b.full_name == "bob_e2e/shared_name"
        from repro.core.repository import RepositoryError

        with pytest.raises(RepositoryError, match="ambiguous"):
            testbed.repository.resolve("shared_name")
