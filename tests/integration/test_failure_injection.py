"""Failure-injection integration tests.

Exercises the reliability mechanisms the paper asserts: the queue
"ensures tasks are received and executed" (redelivery after worker
death), deployments self-heal failed pods, and the serving path degrades
gracefully (failed tasks become FAILED results, never lost work).
"""

import pytest

from repro.core.tasks import TaskRequest, TaskStatus
from repro.core.zoo import build_zoo


@pytest.fixture
def deployment():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    testbed.publish_and_deploy(zoo["noop"], replicas=3)
    return testbed, zoo


class TestQueueRedelivery:
    def test_worker_death_before_ack_redelivers(self, deployment):
        """A Task Manager that claims a task and dies never loses it."""
        testbed, _ = deployment
        queue = testbed.management.queue
        queue.put(TaskRequest("noop"))
        # Worker claims then crashes (no ack).
        queue.claim()
        assert queue.inflight_count == 1
        # Visibility timeout lapses; the message is redelivered.
        testbed.clock.advance(queue.visibility_timeout_s)
        assert queue.expire_inflight() == 1
        message = queue.claim()
        result = testbed.task_manager.process(message.body)
        queue.ack(message.delivery_tag)
        assert result is not None and result.ok
        assert queue.total_redelivered == 1

    def test_multiple_crashes_eventually_dead_letter(self, deployment):
        testbed, _ = deployment
        queue = testbed.management.queue
        queue.put(TaskRequest("noop"))
        for _ in range(queue.max_deliveries):
            queue.claim()  # the worker claims, then dies before acking
            testbed.clock.advance(queue.visibility_timeout_s)
            queue.expire_inflight()
        assert len(queue) == 0
        assert len(queue.dead_letters) == 1


class TestPodFailure:
    def test_serving_survives_single_pod_failure(self, deployment):
        """With replicas > 1, killing one pod leaves the service up."""
        testbed, _ = deployment
        executor = testbed.parsl_executor
        pods = executor._deployments["noop"].ready_pods()
        pods[0].fail()
        for _ in range(4):
            outcome = executor.invoke("noop", (), {})
            assert outcome.value == "hello world"

    def test_all_pods_failed_is_reported_not_lost(self, deployment):
        testbed, _ = deployment
        for pod in testbed.parsl_executor._deployments["noop"].ready_pods():
            pod.fail()
        result = testbed.task_manager.process(TaskRequest("noop"))
        assert result.status is TaskStatus.FAILED
        assert result.error


class TestHandlerErrors:
    def test_exception_in_model_becomes_failed_result(self, deployment):
        testbed, zoo = deployment
        testbed.publish_and_deploy(zoo["matminer_util"])
        result = testbed.management.run(
            testbed.token, "matminer_util", "ThisIsNotChemistry!!"
        )
        assert result.status is TaskStatus.FAILED
        assert "CompositionError" in result.error

    def test_failures_are_not_memoized(self, deployment):
        """A transient failure must not poison the cache."""
        testbed, zoo = deployment
        testbed.publish_and_deploy(zoo["cifar10"])
        tm = testbed.task_manager
        bad_request = TaskRequest("cifar10", args=("not an image",))
        first = tm.process(bad_request)
        assert first.status is TaskStatus.FAILED
        again = tm.process(TaskRequest("cifar10", args=("not an image",)))
        assert not again.cache_hit  # failure was never cached

    def test_failure_then_success_isolated_across_inputs(self, deployment):
        testbed, zoo = deployment
        testbed.publish_and_deploy(zoo["matminer_featurize"])
        bad = testbed.management.run(testbed.token, "matminer_featurize", "Zz!!")
        good = testbed.management.run(
            testbed.token, "matminer_featurize", {"Na": 0.5, "Cl": 0.5}
        )
        assert bad.status is TaskStatus.FAILED
        assert good.ok
