"""Queue failure paths under the ServingRuntime fleet.

The at-least-once contract must survive server-side batching: a worker
that claims a micro-batch and dies never loses the work — the visibility
timeout lapses and the requests are redelivered to a *different* Task
Manager; poisoned work dead-letters after ``MAX_DELIVERIES``.
"""


from repro.core.runtime import ServingRuntime
from repro.core.task_manager import TaskManager
from repro.core.tasks import TaskRequest
from repro.core.zoo import build_zoo
from repro.messaging.queue import (
    MAX_DELIVERIES,
    VISIBILITY_TIMEOUT_S,
    TaskQueue,
    servable_topic,
)


def build_fleet():
    """Two workers, noop replicated on both, over their own queue."""
    from repro.cluster.cluster import petrelkube
    from repro.core.executors import ParslServableExecutor
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    queue = TaskQueue(testbed.clock)
    workers = []
    for i in range(2):
        cluster = petrelkube(testbed.clock, testbed.registry)
        tm = TaskManager(testbed.clock, queue, name=f"worker-{i}")
        tm.add_executor(
            "parsl",
            ParslServableExecutor(
                testbed.clock, cluster, testbed.latency.task_manager_to_cluster
            ),
        )
        workers.append(tm)
    runtime = ServingRuntime(testbed.clock, queue, workers, max_batch_size=8)
    published = testbed.management.publish(testbed.token, zoo["noop"])
    runtime.place(zoo["noop"], published.build.image, copies=2)
    return testbed, runtime, queue


class TestWorkerCrashRedelivery:
    def test_crashed_claim_redelivers_to_other_worker(self):
        """Worker 0 claims a micro-batch and dies before acking; after
        ``expire_inflight`` the work is served by worker 1."""
        testbed, runtime, queue = build_fleet()
        for _ in range(3):
            runtime.submit(TaskRequest("noop"))
        # Worker 0 claims the whole window, then crashes (never acks).
        crashed = runtime.workers[0]
        doomed = queue.claim_many(servable_topic("noop"), runtime.max_batch_size)
        assert len(doomed) == 3 and queue.inflight_count == 3
        runtime.mark_down(crashed.name)
        # Visibility timeout lapses; drain redelivers and re-dispatches.
        testbed.clock.advance(VISIBILITY_TIMEOUT_S)
        results = runtime.drain()
        assert len(results) == 3
        assert all(r.result.ok for r in results)
        assert {r.worker for r in results} == {runtime.workers[1].name}
        assert queue.total_redelivered == 3
        assert queue.inflight_count == 0 and len(queue) == 0

    def test_redelivered_batch_keeps_batching(self):
        """Redelivered requests coalesce again on the surviving worker."""
        testbed, runtime, queue = build_fleet()
        for _ in range(4):
            runtime.submit(TaskRequest("noop"))
        queue.claim_many(servable_topic("noop"), runtime.max_batch_size)
        runtime.mark_down(runtime.workers[0].name)
        testbed.clock.advance(VISIBILITY_TIMEOUT_S)
        results = runtime.drain()
        assert {r.batch_size for r in results} == {4}
        assert all(r.result.ok for r in results)
        assert queue.total_redelivered == 4

    def test_drain_waits_out_visibility_timeout_itself(self):
        """serve()/drain() sleeps until the in-flight expiry rather than
        declaring the queue drained — no manual clock advance needed."""
        testbed, runtime, queue = build_fleet()
        for _ in range(2):
            runtime.submit(TaskRequest("noop"))
        queue.claim_many(servable_topic("noop"), runtime.max_batch_size)
        runtime.mark_down(runtime.workers[0].name)
        results = runtime.drain()  # advances virtual time to the expiry
        assert len(results) == 2 and all(r.result.ok for r in results)
        assert queue.total_redelivered == 2

    def test_recovered_worker_serves_again(self):
        testbed, runtime, queue = build_fleet()
        primary = runtime.placement()["noop"][0]
        runtime.mark_down(primary)
        runtime.submit(TaskRequest("noop"))
        assert runtime.drain()[0].worker != primary
        runtime.mark_up(primary)
        runtime.submit(TaskRequest("noop"))
        assert runtime.drain()[0].worker == primary


class TestDeadLetter:
    def test_poisoned_work_dead_letters_after_max_deliveries(self):
        """Every delivery crashes its claimant; after ``MAX_DELIVERIES``
        the message parks in the dead-letter list instead of looping."""
        testbed, runtime, queue = build_fleet()
        runtime.submit(TaskRequest("noop"))
        for _ in range(MAX_DELIVERIES):
            claimed = queue.claim_many(servable_topic("noop"), 8)
            assert len(claimed) == 1  # still being redelivered
            testbed.clock.advance(VISIBILITY_TIMEOUT_S)
            queue.expire_inflight()
        assert len(queue) == 0
        assert len(queue.dead_letters) == 1
        assert queue.dead_letters[0].deliveries == MAX_DELIVERIES
        # The runtime has nothing left to serve — the loop terminates.
        assert runtime.drain() == []

    def test_dead_letter_does_not_block_healthy_traffic(self):
        testbed, runtime, queue = build_fleet()
        runtime.submit(TaskRequest("noop"))
        for _ in range(MAX_DELIVERIES):  # the last expiry dead-letters it
            queue.claim_many(servable_topic("noop"), 8)
            testbed.clock.advance(VISIBILITY_TIMEOUT_S)
            queue.expire_inflight()
        assert len(queue.dead_letters) == 1
        runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert len(results) == 1 and results[0].result.ok
