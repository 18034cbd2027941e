"""Integration: no Management Service invocation path reaches a Task
Manager except through a gateway and its ServingRuntime — the one route,
whether the gateway was attached explicitly or built by a testbed's
first deploy — and tenant accounting holds end to end, including
through the SDK client."""

import pytest

from repro.core.client import DLHubClient
from repro.core.management import ManagementError
from repro.core.pipeline import Pipeline, PipelineStep
from repro.core.tasks import TaskStatus
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo, sample_input
from repro.gateway import (
    AdmissionRejected,
    TenantPolicy,
    TenantPolicyTable,
)
from repro.messaging.queue import servable_topic


@pytest.fixture()
def deployment():
    testbed = build_testbed(jitter=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    policies = TenantPolicyTable()
    policies.register(TenantPolicy(name="lab"))
    policies.set_default("lab")
    gateway = testbed.enable_gateway(policies=policies, n_workers=2)
    for name in ("noop", "matminer_util", "matminer_featurize", "matminer_model"):
        published = testbed.management.publish(testbed.token, zoo[name])
        gateway.runtime.place(zoo[name], published.build.image)
    return testbed, gateway, zoo


class TestUnifiedRouting:
    def test_no_invocation_path_bypasses_the_runtime(self, deployment):
        """run, run_async, run_batch, and run_pipeline all route through
        the gateway's ServingRuntime; the testbed's own Task Manager,
        outside the gateway's fleet, processes nothing."""
        testbed, gateway, zoo = deployment
        ms = testbed.management
        outside_tm = testbed.task_manager

        result = ms.run(testbed.token, "noop", 1)
        assert result.ok

        handle = ms.run_async(testbed.token, "noop", 2)
        assert ms.status(testbed.token, handle.task_uuid) is TaskStatus.SUCCEEDED
        assert ms.result(testbed.token, handle.task_uuid).ok

        batch = ms.run_batch(testbed.token, "noop", [3, 4, 5])
        assert batch.ok and len(batch.value) == 3

        pipeline = Pipeline(
            name="featurize-predict",
            steps=[
                PipelineStep("matminer_featurize"),
                PipelineStep("matminer_model"),
            ],
        )
        ms.register_pipeline(testbed.token, pipeline)
        pipeline_result = ms.run_pipeline(
            testbed.token, "featurize-predict", *sample_input("matminer_featurize")
        )
        assert pipeline_result.ok

        # Every task crossed the runtime; the Task Manager outside the
        # fleet served nothing.
        assert outside_tm.tasks_processed == 0
        expected_items = 1 + 1 + 3 + 2  # run + async + batch(3) + 2 pipeline steps
        assert gateway.runtime.items_served == expected_items

    def test_sdk_client_traffic_is_tenant_accounted(self, deployment):
        testbed, gateway, zoo = deployment
        client = DLHubClient(testbed.management, testbed.token)
        assert client.run("noop", 7) is not None
        values = client.run_batch("noop", [1, 2])
        assert len(values) == 2
        counters = gateway.metrics.counters("lab")
        assert counters.admitted == 3
        assert counters.completed == 3
        assert gateway.admitted_count("noop") == 3

    def test_batch_and_single_share_the_worker_memo_cache(self, deployment):
        testbed, gateway, zoo = deployment
        ms = testbed.management
        first = ms.run(testbed.token, "noop", 42)
        assert not first.cache_hit
        again = ms.run_batch(testbed.token, "noop", [42, 42])
        # Both items hit the memo entry the single run populated
        # (requests land on the same runtime workers, unlike the old
        # split sync-lane/coalescing-lane worlds).
        assert again.batch_cache_hits == 2
        assert again.cache_hit

    def test_admission_rejection_surfaces_through_ms_and_async_store(self):
        testbed = build_testbed(jitter=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        policies = TenantPolicyTable()
        policies.register(
            TenantPolicy(name="throttled", rate_limit_rps=1.0, burst=1)
        )
        policies.set_default("throttled")
        gateway = testbed.enable_gateway(policies=policies, n_workers=2)
        published = testbed.management.publish(testbed.token, zoo["noop"])
        gateway.runtime.place(zoo["noop"], published.build.image)

        assert testbed.management.run(testbed.token, "noop", 1).ok
        with pytest.raises(AdmissionRejected):
            testbed.management.run(testbed.token, "noop", 2)

        # run_async: the denial raises AND the stored task is failed,
        # so a poller never sees RUNNING forever.
        testbed.clock.advance(1.0)  # one token refills
        handle = testbed.management.run_async(testbed.token, "noop", 3)
        assert testbed.management.result(testbed.token, handle.task_uuid).ok
        with pytest.raises(AdmissionRejected):
            testbed.management.run_async(testbed.token, "noop", 4)
        failed = [
            uuid
            for uuid in testbed.management.task_store._status
            if testbed.management.task_store.status(uuid) is TaskStatus.FAILED
        ]
        assert len(failed) == 1
        assert "rate_limit" in testbed.management.result(
            testbed.token, failed[0]
        ).error

    def test_gateway_attach_is_exclusive(self, deployment):
        testbed, gateway, zoo = deployment
        from repro.core.management import ManagementError

        with pytest.raises(ManagementError):
            testbed.management.attach_gateway(gateway)



class TestDefaultRoute:
    """A bare testbed's first deploy builds the one route: a permissive
    gateway over the testbed's Task Manager."""

    @pytest.fixture()
    def bare(self):
        testbed = build_testbed(jitter=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        for name in ("noop", "matminer_featurize", "matminer_model"):
            testbed.publish_and_deploy(zoo[name])
        return testbed

    def test_every_path_uses_the_default_route(self, bare):
        ms = bare.management
        runtime = ms.gateway.runtime
        assert ms.run(bare.token, "noop", 1).ok
        handle = ms.run_async(bare.token, "noop", 2)
        assert ms.result(bare.token, handle.task_uuid).ok
        batch = ms.run_batch(bare.token, "noop", [3, 4, 5])
        assert batch.ok and len(batch.value) == 3
        ms.register_pipeline(
            bare.token,
            Pipeline(
                name="featurize-predict",
                steps=[
                    PipelineStep("matminer_featurize"),
                    PipelineStep("matminer_model"),
                ],
            ),
        )
        assert ms.run_pipeline(
            bare.token, "featurize-predict", *sample_input("matminer_featurize")
        ).ok
        expected_items = 1 + 1 + 3 + 2  # run + async + batch(3) + 2 pipeline steps
        assert runtime.items_served == expected_items
        assert bare.task_manager.tasks_processed == runtime.batches_dispatched
        # The batch dispatched whole, as one task.
        assert runtime.batches_dispatched == 1 + 1 + 1 + 2
        # Every task rode the public tenant's lane, none a "sync" lane.
        enqueued = {
            name: ms.queue.enqueued_count(servable_topic(name, lane="tenant-public"))
            for name in ("noop", "matminer_featurize", "matminer_model")
        }
        assert enqueued == {"noop": 5, "matminer_featurize": 1, "matminer_model": 1}
        for name in enqueued:
            assert ms.queue.enqueued_count(servable_topic(name, lane="sync")) == 0

    def test_run_without_a_route_raises(self):
        testbed = build_testbed(jitter=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        testbed.management.publish(testbed.token, zoo["noop"])
        with pytest.raises(ManagementError, match="no serving gateway"):
            testbed.management.run(testbed.token, "noop", 1)
