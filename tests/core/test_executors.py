"""Unit tests for the DLHub executor model (Parsl / TF Serving / SageMaker)."""

import pytest

from repro.core.executors import ExecutorError
from repro.core.zoo import build_zoo, sample_input


@pytest.fixture(scope="module")
def env():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    for name in ("noop", "cifar10", "matminer_featurize"):
        testbed.publish_and_deploy(zoo[name], replicas=2)
    return testbed, zoo


class TestParslExecutor:
    def test_invoke_decomposition(self, env):
        testbed, _ = env
        outcome = testbed.parsl_executor.invoke("noop", (), {})
        assert outcome.value == "hello world"
        assert 0 < outcome.inference_time < outcome.invocation_time

    def test_undeployed_servable(self, env):
        testbed, _ = env
        with pytest.raises(ExecutorError):
            testbed.parsl_executor.invoke("ghost", (), {})

    def test_scale_changes_replicas(self, env):
        testbed, _ = env
        executor = testbed.parsl_executor
        executor.scale("noop", 5)
        assert executor.replicas("noop") == 5
        executor.scale("noop", 2)
        assert executor.replicas("noop") == 2

    def test_double_deploy_rejected(self, env):
        testbed, zoo = env
        with pytest.raises(ExecutorError):
            testbed.parsl_executor.deploy(zoo["noop"], None)

    def test_invoke_batch_amortizes(self, env):
        testbed, _ = env
        executor = testbed.parsl_executor
        fixed = sample_input("matminer_featurize")
        single = executor.invoke("matminer_featurize", fixed, {})
        batch = executor.invoke_batch("matminer_featurize", [(fixed, {})] * 10)
        assert len(batch.value) == 10
        # 10 batched items cost less than 10 singles.
        assert batch.invocation_time < 10 * single.invocation_time

    def test_invoke_batch_empty_rejected(self, env):
        testbed, _ = env
        with pytest.raises(ExecutorError):
            testbed.parsl_executor.invoke_batch("noop", [])

    def test_submit_stream_returns_makespan(self, env):
        testbed, _ = env
        makespan = testbed.parsl_executor.submit_stream(
            "noop", [()] * 50
        )
        assert makespan > 0

    def test_deployed_listing(self, env):
        testbed, _ = env
        assert set(testbed.parsl_executor.deployed()) >= {"noop", "cifar10"}


class TestBatchingCapability:
    def test_capability_flags(self, env):
        testbed, _ = env
        assert testbed.parsl_executor.supports_batching
        assert not testbed.tfserving_executor("grpc").supports_batching
        assert not testbed.sagemaker_executor("flask").supports_batching

    def test_default_invoke_batch_raises(self, env):
        testbed, _ = env
        executor = testbed.sagemaker_executor("flask")
        with pytest.raises(ExecutorError, match="does not support batching"):
            executor.invoke_batch("anything", [((1,), {})])

    def test_batch_on_non_batching_executor_fails_gracefully(self, env):
        """The Task Manager's capability check turns a batch routed to a
        batch-less executor into a FAILED result, not a crash."""
        testbed, zoo = env
        from repro.core.tasks import TaskStatus

        from tests.processing import batch_of

        testbed.tfserving_executor("rest")
        image = testbed.repository.resolve("cifar10").build.image
        testbed.task_manager._registrations.pop("cifar10", None)
        testbed.task_manager.register_servable(
            zoo["cifar10"], image, executor_name="tfserving-rest"
        )
        records = batch_of("cifar10", sample_input("cifar10"), sample_input("cifar10"))
        testbed.task_manager.process(records)
        for result in (record.result for record in records):
            assert result.status is TaskStatus.FAILED
            assert "does not support batching" in result.error

    def test_invoke_batch_honours_kwargs(self, env):
        """Batch calls are (args, kwargs) pairs — the kwargs reach the
        servable instead of being silently dropped."""
        testbed, _ = env
        from repro.core.servable import PythonFunctionServable
        from repro.core.toolbox import MetadataBuilder

        metadata = (
            MetadataBuilder("scaler", "Scales a number")
            .creator("tests")
            .description("x * scale, scale given by keyword")
            .model_type("python_function")
            .input_type("number")
            .output_type("number")
            .build()
        )
        servable = PythonFunctionServable(
            metadata, lambda x, scale=1: x * scale, key="scaler"
        )
        testbed.publish_and_deploy(servable)
        outcome = testbed.parsl_executor.invoke_batch(
            "scaler",
            [((2,), {"scale": 3}), ((4,), {}), ((5,), {})],
        )
        assert outcome.value == [6, 4, 5]


class TestBackendExecutors:
    def test_tfserving_executor_serves_keras(self, env):
        testbed, zoo = env
        executor = testbed.tfserving_executor("grpc")
        executor.deploy(zoo["cifar10"], None)
        outcome = executor.invoke("cifar10", sample_input("cifar10"), {})
        assert outcome.value.shape == (1, 10)

    def test_tfserving_supports_check(self, env):
        testbed, zoo = env
        executor = testbed.tfserving_executor("grpc")
        assert executor.supports(zoo["inception"])
        assert not executor.supports(zoo["matminer_featurize"])

    def test_sagemaker_flask_serves_anything(self, env):
        testbed, zoo = env
        executor = testbed.sagemaker_executor("flask")
        executor.deploy(zoo["matminer_featurize"], None)
        outcome = executor.invoke(
            "matminer_featurize", sample_input("matminer_featurize"), {}
        )
        assert outcome.value.shape == (54,)

    def test_undeployed_invoke_rejected(self, env):
        testbed, _ = env
        executor = testbed.sagemaker_executor("flask")
        with pytest.raises(ExecutorError):
            executor.invoke("never_deployed", (), {})

    def test_task_manager_routes_to_registered_executor(self, env):
        """Inference tasks go to the serving executor the servable was
        registered with (SS IV-C routing)."""
        testbed, zoo = env
        from repro.core.tasks import TaskRequest

        from tests.processing import process_one

        executor = testbed.tfserving_executor("grpc")
        # cifar10 was registered on parsl in the fixture; register the
        # inception servable on TF Serving instead.
        published = testbed.management.publish(testbed.token, zoo["inception"])
        testbed.task_manager.register_servable(
            zoo["inception"], published.build.image, executor_name="tfserving-grpc"
        )
        result = process_one(
            testbed.task_manager, TaskRequest("inception", args=sample_input("inception"))
        )
        assert result.ok
        assert len(result.value) == 5  # top-5 output via TF Serving path
