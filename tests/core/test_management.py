"""Unit tests for the Management Service: publish, discover, serve, batch,
async, pipelines, and authorization at every door."""

import pytest

from repro.auth.service import AuthorizationError
from repro.core.pipeline import Pipeline, PipelineError
from repro.core.tasks import TaskStatus
from repro.core.zoo import build_zoo
from repro.search.index import Visibility


@pytest.fixture(scope="module")
def env():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    for name in ("noop", "matminer_util", "matminer_featurize", "matminer_model"):
        testbed.publish_and_deploy(zoo[name])
    return testbed, zoo


class TestAuthorization:
    def test_bad_token_rejected_everywhere(self, env):
        testbed, zoo = env
        ms = testbed.management
        with pytest.raises(AuthorizationError):
            ms.run("bogus-token", "noop")
        with pytest.raises(AuthorizationError):
            ms.search("bogus-token", "*")
        with pytest.raises(AuthorizationError):
            ms.publish("bogus-token", zoo["noop"])

    def test_restricted_model_invocation_denied(self, env):
        testbed, zoo = env
        from repro.core.servable import PythonFunctionServable
        from repro.core.toolbox import MetadataBuilder

        md = (
            MetadataBuilder("vip_model", "VIP only")
            .creator("Owner")
            .model_type("python_function")
            .input_type("dict")
            .output_type("dict")
            .build()
        )
        servable = PythonFunctionServable(md, lambda x: x)
        testbed.publish_and_deploy(
            servable, visibility=Visibility.restricted(principals=["nobody"])
        )
        _, outsider_token = testbed.new_user("outsider_mgmt")
        with pytest.raises(AuthorizationError):
            testbed.management.run(outsider_token, "vip_model", {})


class TestServing:
    def test_run_returns_timing_decomposition(self, env):
        testbed, _ = env
        result = testbed.management.run(testbed.token, "noop")
        assert result.ok and result.value == "hello world"
        assert 0 < result.inference_time < result.invocation_time < result.request_time

    def test_request_time_includes_ms_tm_rtt(self, env):
        testbed, _ = env
        testbed.task_manager.cache.clear()
        result = testbed.management.run(testbed.token, "noop")
        from repro.sim import calibration as cal

        assert result.request_time - result.invocation_time >= cal.RTT_MS_TM_S

    def test_resolves_namespaced_names(self, env):
        testbed, _ = env
        result = testbed.management.run(testbed.token, "scientist/noop")
        assert result.ok

    def test_failed_task_reported_not_raised(self, env):
        testbed, _ = env
        result = testbed.management.run(testbed.token, "matminer_util", "Bad!!")
        assert result.status is TaskStatus.FAILED
        assert result.error

    def test_metrics_recorded(self, env):
        testbed, _ = env
        before = testbed.management.requests_handled
        testbed.management.run(testbed.token, "noop")
        assert testbed.management.requests_handled == before + 1


class TestAsync:
    def test_async_lifecycle(self, env):
        testbed, _ = env
        handle = testbed.management.run_async(testbed.token, "matminer_util", "NaCl")
        assert testbed.management.status(testbed.token, handle.task_uuid) is (
            TaskStatus.SUCCEEDED
        )
        result = testbed.management.result(testbed.token, handle.task_uuid)
        assert result.value == {"Cl": 0.5, "Na": 0.5}

    def test_unknown_uuid(self, env):
        testbed, _ = env
        with pytest.raises(KeyError):
            testbed.management.status(testbed.token, "nope")


class TestBatch:
    def test_run_batch_outputs_match_sequential(self, env):
        testbed, _ = env
        formulas = [("NaCl",), ("SiO2",), ("MgO",)]
        batch = testbed.management.run_batch(testbed.token, "matminer_util", formulas)
        assert batch.ok
        singles = [
            testbed.management.run(testbed.token, "matminer_util", f[0]).value
            for f in formulas
        ]
        assert batch.value == singles

    def test_empty_batch_rejected(self, env):
        testbed, _ = env
        from repro.core.management import ManagementError

        with pytest.raises(ManagementError):
            testbed.management.run_batch(testbed.token, "matminer_util", [])


class TestPipelines:
    def test_register_and_run(self, env):
        testbed, _ = env
        pipeline = (
            Pipeline("enthalpy_test")
            .add_step("matminer_util")
            .add_step("matminer_featurize")
            .add_step("matminer_model")
        )
        testbed.management.register_pipeline(testbed.token, pipeline)
        result = testbed.management.run_pipeline(
            testbed.token, "enthalpy_test", "NaCl"
        )
        assert result.ok
        assert isinstance(result.value, float)
        assert "enthalpy_test" in testbed.management.pipelines()

    def test_pipeline_runs_via_run_too(self, env):
        testbed, _ = env
        result = testbed.management.run(testbed.token, "enthalpy_test", "SiO2")
        assert result.ok and isinstance(result.value, float)

    def test_pipeline_with_unknown_step_rejected(self, env):
        testbed, _ = env
        bad = Pipeline("broken").add_step("no_such_servable")
        from repro.core.repository import RepositoryError

        with pytest.raises(RepositoryError):
            testbed.management.register_pipeline(testbed.token, bad)

    def test_duplicate_pipeline_rejected(self, env):
        testbed, _ = env
        duplicate = Pipeline("enthalpy_test").add_step("matminer_util")
        with pytest.raises(PipelineError):
            testbed.management.register_pipeline(testbed.token, duplicate)

    def test_unknown_pipeline_run(self, env):
        testbed, _ = env
        with pytest.raises(PipelineError):
            testbed.management.run_pipeline(testbed.token, "ghost_pipeline")

    def test_pipeline_failure_propagates_as_failed_result(self, env):
        testbed, _ = env
        result = testbed.management.run_pipeline(
            testbed.token, "enthalpy_test", "NotChemistry!!"
        )
        assert result.status is TaskStatus.FAILED

    def test_pipeline_step_failure_short_circuits(self, env):
        """A failure in step 1 must not execute steps 2-3."""
        testbed, _ = env
        executor = testbed.parsl_executor
        downstream_pods = executor._deployments["matminer_featurize"].ready_pods()
        served_before = sum(p.served for p in downstream_pods)
        testbed.management.run_pipeline(testbed.token, "enthalpy_test", "Bad!!")
        # The featurize step never executed.
        assert sum(p.served for p in downstream_pods) == served_before


class TestDiscovery:
    def test_search_and_describe(self, env):
        testbed, _ = env
        hits = testbed.management.search(testbed.token, "matminer*")
        assert hits.total >= 3
        doc = testbed.management.describe(testbed.token, "matminer_model")
        assert doc["dlhub"]["model_type"] == "sklearn"
        assert "doi" in doc["dlhub"]
