"""The batch path's failure cases, pinned to exact values.

Three micro-batches on one gateway stack: a partial replica-chunk
failure with a memo hit in the batch (a), pods that die between the
claim and the executor trip with a memo hit in the batch (b), and a
batch of memo hits only (c). Every member's outcome, the worker's
clock and the ``dispatch`` / ``inference`` stage samples are compared
as exact floats, so any change to the order or amount of a clock
advance on these paths shows here.
"""

from __future__ import annotations

import pytest

from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.gateway import TenantPolicy, TenantPolicyTable

from tests.integration.conservation import assert_conserved


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


class Stack:
    """One own-clock worker behind a gateway, ``noop`` on two replica
    pods, memoization on, batches of up to four."""

    def __init__(self, zoo) -> None:
        testbed = build_testbed(jitter=False, memoize_tm=True)
        policies = TenantPolicyTable()
        policies.register(TenantPolicy(name="t"))
        identity, self.token = testbed.new_user("u")
        policies.bind_identity(identity, "t")
        self.worker = testbed.add_fleet_worker("w0")
        self.gateway = testbed.enable_gateway(
            policies=policies,
            workers=[self.worker],
            max_batch_size=4,
            max_coalesce_delay_s=0.002,
        )
        published = testbed.management.publish(testbed.token, zoo["noop"])
        self.gateway.runtime.place(zoo["noop"], published.build.image, replicas=2)
        self.pods = self.worker.executors["parsl"]._pools["noop"].pods
        self.offered: list[TaskRequest] = []
        self.records = []

    def serve(self, *inputs: str):
        """Offer one request per input, all at once; ids are explicit so
        no process-wide counter moves a modelled size."""
        requests = []
        for value in inputs:
            n = len(self.offered) + 1
            request = TaskRequest("noop", args=(value,), task_uuid=f"task-pin-{n:05d}")
            requests.append(request)
            self.offered.append(request)
        records = self.gateway.serve([(0.0, self.token, r) for r in requests])
        self.records += records
        return records

    def observed(self, records) -> dict:
        stages = self.gateway.runtime.stage_metrics
        return {
            "members": [
                (
                    r.status.value,
                    r.error,
                    r.inference_time,
                    r.invocation_time,
                    r.completed_at,
                    r.cache_hit,
                )
                for r in records
            ],
            "worker_clock": self.worker.clock.now(),
            "dispatch": stages.samples("dispatch", "noop"),
            "inference": stages.samples("inference", "noop"),
        }

    def assert_conserved(self) -> None:
        counters = self.gateway.metrics.counters("t")
        assert_conserved(
            self.offered,
            self.records,
            self.gateway,
            dead_letters=self.gateway.runtime.queue.dead_letters,
            settles=counters.completed + counters.failed,
        )


def explode(*args, **kwargs):
    raise RuntimeError("pod crashed mid-chunk")


def partial_chunk_failure(zoo):
    """(a) One memo hit and three misses; the misses shard into two
    chunks and the chunk on the first-picked pod dies."""
    stack = Stack(zoo)
    stack.serve("warm")
    victim = sorted(stack.pods, key=lambda p: (p.busy_until, p.name))[0]
    victim.exec = explode
    records = stack.serve("warm", "m1", "m2", "m3")
    return stack, records


def pods_crash_before_dispatch(zoo):
    """(b) One memo hit and two misses; every pod fails after the claim,
    so the executor finds no ready pod."""
    stack = Stack(zoo)
    stack.serve("warm")
    worker = stack.worker
    process = worker.process

    def crash_then_process(batch):
        for pod in stack.pods:
            if pod.ready:
                pod.fail()
        return process(batch)

    worker.process = crash_then_process
    records = stack.serve("warm", "m1", "m2")
    return stack, records


def all_hit_batch(zoo):
    """(c) Three inputs served once, then all three again at once."""
    stack = Stack(zoo)
    stack.serve("h1", "h2", "h3")
    records = stack.serve("h1", "h2", "h3")
    return stack, records


PINNED = {
    "partial_chunk_failure": {
        "members": [
            (
                'succeeded',
                None,
                0.0,
                0.011790071999999707,
                2.5355600959999998,
                True,
            ),
            (
                'failed',
                'RuntimeError: pod crashed mid-chunk',
                0.0,
                0.011790071999999707,
                2.5355600959999998,
                False,
            ),
            (
                'succeeded',
                None,
                0.0008200000000000429,
                0.011790071999999707,
                2.5355600959999998,
                False,
            ),
            (
                'failed',
                'RuntimeError: pod crashed mid-chunk',
                0.0,
                0.011790071999999707,
                2.5355600959999998,
                False,
            ),
        ],
        "worker_clock": 2.5355600959999998,
        "dispatch": [0.013570023999999847, 0.015070072000000323],
        "inference": [0.0005999999999999339, 0.0008200000000000429],
    },
    "pods_crash_before_dispatch": {
        "members": [
            (
                'succeeded',
                None,
                0.0,
                0.000500000000000167,
                2.5376550559999993,
                True,
            ),
            (
                'failed',
                "ExecutorError: servable 'noop' has no ready pods",
                0.0,
                0.01188503200000035,
                2.5376550559999993,
                False,
            ),
            (
                'failed',
                "ExecutorError: servable 'noop' has no ready pods",
                0.0,
                0.01188503200000035,
                2.5376550559999993,
                False,
            ),
        ],
        "worker_clock": 2.5376550559999993,
        "dispatch": [0.013570023999999847, 0.013685032000000152],
        "inference": [0.0005999999999999339, 0.0],
    },
    "all_hit_batch": {
        "members": [
            (
                'succeeded',
                None,
                0.0,
                0.001500000000000501,
                2.527010072,
                True,
            ),
            (
                'succeeded',
                None,
                0.0,
                0.001500000000000501,
                2.527010072,
                True,
            ),
            (
                'succeeded',
                None,
                0.0,
                0.001500000000000501,
                2.527010072,
                True,
            ),
        ],
        "worker_clock": 2.527010072,
        "dispatch": [0.014570072000000156, 0.0033000000000003027],
        "inference": [0.0016400000000000858, 0.0],
    },
}


def test_a_partial_chunk_failure_fails_only_its_chunk(zoo):
    stack, records = partial_chunk_failure(zoo)
    assert stack.observed(records) == PINNED["partial_chunk_failure"]
    stack.assert_conserved()


def test_pods_crashing_before_dispatch_fail_the_misses_and_reserve_the_hit(zoo):
    stack, records = pods_crash_before_dispatch(zoo)
    assert stack.observed(records) == PINNED["pods_crash_before_dispatch"]
    stack.assert_conserved()


def test_an_all_hit_batch_never_dispatches(zoo):
    stack, records = all_hit_batch(zoo)
    assert stack.observed(records) == PINNED["all_hit_batch"]
