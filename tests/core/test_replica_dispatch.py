"""Replica-aware batch dispatch: sharding, per-chunk recovery, budgets.

The coalesced hot path shards each micro-batch across a deployment's
ready pods (``ParslServableExecutor.invoke_batch``), the Task Manager
writes results into the members' records with per-chunk inference
shares and per-chunk failure granularity (``TaskManager.process``), and
the gateway's
dispatch-slot budget tracks live fleet capacity.
"""

import pytest

from repro.core.executors import ExecutorError, plan_replica_chunks
from repro.core.tasks import TaskRequest, TaskStatus
from repro.core.zoo import build_zoo, sample_input


@pytest.fixture()
def env():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    return testbed, zoo


def place_on_fleet_worker(testbed, zoo, name="matminer_util", replicas=4, **kwargs):
    from repro.core.runtime import ServingRuntime

    worker = testbed.add_fleet_worker("rw-0")
    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        [worker],
        max_batch_size=kwargs.pop("max_batch_size", 8),
        max_coalesce_delay_s=0.002,
        **kwargs,
    )
    published = testbed.management.publish(testbed.token, zoo[name])
    runtime.place(zoo[name], published.build.image, replicas=replicas)
    return runtime, worker


class TestChunkPlanner:
    def test_balances_equal_cost_items(self):
        chunks = plan_replica_chunks(8, [0.0, 0.0, 0.0, 0.0], 0.01)
        assert sorted(len(c) for c in chunks) == [2, 2, 2, 2]
        # Every item appears exactly once, in order within its chunk.
        flat = sorted(i for c in chunks for i in c)
        assert flat == list(range(8))
        assert all(c == sorted(c) for c in chunks)

    def test_busy_replica_takes_smaller_share(self):
        # Replica 0 frees 4 item-costs late: it should receive ~2 fewer.
        chunks = plan_replica_chunks(10, [0.04, 0.0], 0.01, start_at=0.0)
        assert len(chunks[0]) < len(chunks[1])
        assert len(chunks[0]) + len(chunks[1]) == 10

    def test_batch_smaller_than_replica_count(self):
        chunks = plan_replica_chunks(2, [0.0] * 5, 0.01)
        assert sum(len(c) for c in chunks) == 2
        assert sum(1 for c in chunks if c) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_replica_chunks(1, [], 0.01)
        with pytest.raises(ValueError):
            plan_replica_chunks(-1, [0.0], 0.01)
        with pytest.raises(ValueError):
            plan_replica_chunks(1, [0.0], -0.01)


class TestExecutorReplicaBatch:
    def test_replicas_speed_up_batches(self, env):
        testbed, zoo = env
        fixed = sample_input("matminer_util")
        testbed.publish_and_deploy(zoo["matminer_util"], replicas=1)
        single = testbed.parsl_executor.invoke_batch(
            "matminer_util", [(fixed, {})] * 16
        )
        testbed.parsl_executor.scale("matminer_util", 4)
        sharded = testbed.parsl_executor.invoke_batch(
            "matminer_util", [(fixed, {})] * 16
        )
        assert sharded.invocation_time < single.invocation_time / 2
        assert sharded.value == single.value
        # 16 items over 4 pods: four chunks of four, distinct pods.
        assert len(sharded.chunks) == 4
        assert sorted(len(c.items) for c in sharded.chunks) == [4, 4, 4, 4]
        assert len({c.pod for c in sharded.chunks}) == 4

    def test_chunk_indices_partition_inputs_in_order(self, env):
        testbed, zoo = env
        testbed.publish_and_deploy(zoo["noop"], replicas=3)
        outcome = testbed.parsl_executor.invoke_batch("noop", [((), {})] * 7)
        flat = sorted(i for c in outcome.chunks for i in c.items)
        assert flat == list(range(7))
        assert all(list(c.items) == sorted(c.items) for c in outcome.chunks)

    def test_batch_smaller_than_replicas_uses_subset(self, env):
        testbed, zoo = env
        testbed.publish_and_deploy(zoo["cifar10"], replicas=5)
        fixed = sample_input("cifar10")
        outcome = testbed.parsl_executor.invoke_batch("cifar10", [(fixed, {})] * 2)
        assert len(outcome.chunks) == 2
        assert all(len(c.items) == 1 for c in outcome.chunks)

    def test_single_ready_pod_gets_whole_batch(self, env):
        testbed, zoo = env
        testbed.publish_and_deploy(zoo["matminer_util"], replicas=3)
        pool = testbed.parsl_executor._pools["matminer_util"]
        for pod in pool.pods[1:]:
            pod.fail()
        fixed = sample_input("matminer_util")
        outcome = testbed.parsl_executor.invoke_batch(
            "matminer_util", [(fixed, {})] * 6
        )
        assert len(outcome.chunks) == 1
        assert len(outcome.chunks[0].items) == 6

    def test_partial_chunk_failure_reports_survivors(self, env):
        testbed, zoo = env
        testbed.publish_and_deploy(zoo["matminer_util"], replicas=2)
        pool = testbed.parsl_executor._pools["matminer_util"]
        victim = sorted(pool.pods, key=lambda p: p.name)[0]

        def explode(*args, **kwargs):
            raise RuntimeError("container died mid-batch")

        victim.exec = explode
        fixed = sample_input("matminer_util")
        outcome = testbed.parsl_executor.invoke_batch(
            "matminer_util", [(fixed, {})] * 6
        )
        failed = [c for c in outcome.chunks if c.error]
        ok = [c for c in outcome.chunks if c.ok]
        assert len(failed) == 1 and len(ok) == 1
        assert "container died" in failed[0].error
        for i in failed[0].items:
            assert outcome.value[i] is None
        for i in ok[0].items:
            assert outcome.value[i] is not None

    def test_all_chunks_failing_raises(self, env):
        testbed, zoo = env
        testbed.publish_and_deploy(zoo["noop"], replicas=2)
        pool = testbed.parsl_executor._pools["noop"]
        for pod in pool.pods:
            pod.exec = lambda *a, **k: (_ for _ in ()).throw(RuntimeError("dead"))
        with pytest.raises(ExecutorError, match="replica chunk"):
            testbed.parsl_executor.invoke_batch("noop", [((), {})] * 4)


class TestRuntimeReplicaDispatch:
    def test_coalesced_batch_shards_across_replicas(self, env):
        testbed, zoo = env
        runtime, worker = place_on_fleet_worker(testbed, zoo, replicas=4)
        fixed = sample_input("matminer_util")
        for _ in range(8):
            runtime.submit(TaskRequest("matminer_util", args=fixed))
        results = runtime.drain()
        assert len(results) == 8 and all(r.result.ok for r in results)
        assert runtime.batches_dispatched == 1
        # Per-chunk shares: four chunks of two -> each item is charged
        # its chunk's half, and all shares are positive.
        assert all(r.result.inference_time > 0 for r in results)

    def test_replicas_shorten_coalesced_makespan(self, env):
        testbed, zoo = env
        runtime1, _ = place_on_fleet_worker(testbed, zoo, replicas=1)
        fixed = sample_input("matminer_util")
        t0 = testbed.clock.now()
        runtime1.serve([(0.0, TaskRequest("matminer_util", args=fixed))] * 16)
        serial = testbed.clock.now() - t0

        testbed2, zoo2 = build_fresh()
        runtime4, _ = place_on_fleet_worker(testbed2, zoo2, replicas=4)
        t0 = testbed2.clock.now()
        runtime4.serve([(0.0, TaskRequest("matminer_util", args=fixed))] * 16)
        sharded = testbed2.clock.now() - t0
        assert sharded < serial / 1.5

    def test_partial_chunk_failure_settles_survivors_and_hits(self, env):
        testbed, zoo = env
        runtime, worker = place_on_fleet_worker(
            testbed, zoo, name="noop", replicas=2, max_batch_size=4
        )
        worker.memoize = True
        # Warm the memo cache with one distinguishable input.
        warm = runtime.serve([(0.0, TaskRequest("noop", args=("warm",)))])
        assert warm[0].result.ok

        executor = worker.executors["parsl"]
        pool = executor._pools["noop"]
        victim = sorted(pool.pods, key=lambda p: (p.busy_until, p.name))[0]

        def explode(*args, **kwargs):
            raise RuntimeError("pod crashed mid-chunk")

        victim.exec = explode
        # One memo hit + three misses; misses shard into two chunks of
        # at most two, one of which dies.
        requests = [
            TaskRequest("noop", args=("warm",)),
            TaskRequest("noop", args=("m1",)),
            TaskRequest("noop", args=("m2",)),
            TaskRequest("noop", args=("m3",)),
        ]
        results = runtime.serve([(0.0, r) for r in requests])
        by_uuid = {r.request.task_uuid: r for r in results}
        hit = by_uuid[requests[0].task_uuid]
        assert hit.result.ok and hit.result.cache_hit
        outcomes = [by_uuid[r.task_uuid].result for r in requests[1:]]
        failed = [r for r in outcomes if not r.ok]
        survived = [r for r in outcomes if r.ok]
        assert failed and survived, "expected a partial chunk failure"
        assert all("pod crashed" in r.error for r in failed)
        assert all(not r.cache_hit and r.inference_time > 0 for r in survived)

    def test_pods_crash_between_claim_and_dispatch(self, env):
        testbed, zoo = env
        runtime, worker = place_on_fleet_worker(
            testbed, zoo, name="noop", replicas=2, max_batch_size=4
        )
        worker.memoize = True
        warm = runtime.serve([(0.0, TaskRequest("noop", args=("warm",)))])
        assert warm[0].result.ok
        # The pods crash *between* the runtime's claim_many and the
        # executor trip: the batch is already claimed when invoke_batch
        # finds no ready pod to shard onto.
        pool = worker.executors["parsl"]._pools["noop"]
        original_process = worker.process

        def crash_then_process(records):
            for pod in pool.pods:
                if pod.ready:
                    pod.fail()
            return original_process(records)

        worker.process = crash_then_process
        requests = [
            TaskRequest("noop", args=("warm",)),
            TaskRequest("noop", args=("m1",)),
            TaskRequest("noop", args=("m2",)),
        ]
        results = runtime.serve([(0.0, r) for r in requests])
        by_uuid = {r.request.task_uuid: r for r in results}
        assert by_uuid[requests[0].task_uuid].result.ok
        assert by_uuid[requests[0].task_uuid].result.cache_hit
        for req in requests[1:]:
            failed = by_uuid[req.task_uuid].result
            assert failed.status is TaskStatus.FAILED
            assert "no ready pods" in failed.error

    def test_chunks_stay_tenant_pure(self, env):
        testbed, zoo = env
        runtime, worker = place_on_fleet_worker(
            testbed, zoo, replicas=2, max_batch_size=8
        )
        executor = worker.executors["parsl"]
        calls = []
        original = executor.invoke_batch

        def spy(servable_name, inputs):
            calls.append(len(inputs))
            return original(servable_name, inputs)

        executor.invoke_batch = spy
        fixed = sample_input("matminer_util")
        arrivals = []
        for i in range(4):
            req_a = TaskRequest("matminer_util", args=fixed, tenant="tenant-a")
            req_b = TaskRequest("matminer_util", args=fixed, tenant="tenant-b")
            arrivals += [(0.0, req_a), (0.0, req_b)]
        results = runtime.serve(arrivals)
        assert all(r.result.ok for r in results)
        # Lanes coalesce independently: two tenant-pure batches of four,
        # each sharded across replicas, never one mixed batch of eight.
        assert calls == [4, 4]
        by_batch = {}
        for r in results:
            by_batch.setdefault((r.worker, r.completed_at), set()).add(
                r.request.tenant
            )
        assert all(len(tenants) == 1 for tenants in by_batch.values())


def build_fresh():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    return testbed, zoo


class TestDispatchArbitration:
    def test_wfq_tag_outranks_older_window(self, env):
        """Two lanes due at once: the head with the smaller WFQ
        virtual-finish tag dispatches first, even though the other
        lane's window closed earlier (the pre-PR oldest-head rule)."""
        testbed, zoo = env
        runtime, _ = place_on_fleet_worker(
            testbed, zoo, name="noop", replicas=1, max_batch_size=4
        )
        hot = [
            TaskRequest("noop", tenant="hot", dispatch_tag=10.0 + i)
            for i in range(4)
        ]
        light = TaskRequest("noop", tenant="light", dispatch_tag=1.0)
        for request in hot:
            runtime.submit(request)
        runtime.submit(light)  # newest arrival, smallest tag
        # Let both coalescing windows come due: the hot lane is full
        # (due at its head's enqueue) and the light lane's delay lapses.
        testbed.clock.advance(0.005)
        results = runtime.drain()
        finish = {r.request.task_uuid: r.completed_at for r in results}
        assert finish[light.task_uuid] < min(finish[r.task_uuid] for r in hot)

    def test_untagged_traffic_keeps_oldest_first(self, env):
        """Without dispatch tags (no gateway), arbitration is unchanged:
        the older window dispatches first."""
        testbed, zoo = env
        runtime, _ = place_on_fleet_worker(
            testbed, zoo, name="noop", replicas=1, max_batch_size=4
        )
        first = [TaskRequest("noop", tenant="early") for _ in range(4)]
        for request in first:
            runtime.submit(request)
        testbed.clock.advance(0.001)
        late = TaskRequest("noop", tenant="late")
        runtime.submit(late)
        testbed.clock.advance(0.005)  # both windows due; older wins
        results = runtime.drain()
        finish = {r.request.task_uuid: r.completed_at for r in results}
        assert max(finish[r.task_uuid] for r in first) < finish[late.task_uuid]


class TestLiveSlotBudget:
    def _gateway(self, testbed, zoo, n_workers=2):
        from repro.core.runtime import ServingRuntime
        from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable

        workers = [testbed.add_fleet_worker(f"gw-{i}") for i in range(n_workers)]
        runtime = ServingRuntime(
            testbed.clock,
            testbed.management.queue,
            workers,
            max_batch_size=8,
        )
        published = testbed.management.publish(testbed.token, zoo["noop"])
        runtime.place(zoo["noop"], published.build.image)
        policies = TenantPolicyTable()
        policies.register(TenantPolicy(name="public"))
        policies.set_default("public")
        return ServingGateway(testbed.auth, runtime, policies), runtime

    def test_budget_re_derives_on_add_and_remove(self, env):
        testbed, zoo = env
        gateway, runtime = self._gateway(testbed, zoo, n_workers=2)
        base = gateway.max_dispatch_slots
        assert base == 8 * 2 + max(1, 16 // 8)

        joined = runtime.add_worker(testbed.add_fleet_worker("gw-late"))
        grown = gateway.max_dispatch_slots
        assert grown > base

        runtime.remove_worker(joined.name)
        assert gateway.max_dispatch_slots == base

    def test_budget_tracks_liveness_flips(self, env):
        testbed, zoo = env
        gateway, runtime = self._gateway(testbed, zoo, n_workers=3)
        base = gateway.max_dispatch_slots
        runtime.mark_down("gw-2")
        assert gateway.max_dispatch_slots < base
        runtime.mark_up("gw-2")
        assert gateway.max_dispatch_slots == base

    def test_cold_starting_worker_is_not_capacity_yet(self, env):
        testbed, zoo = env
        gateway, runtime = self._gateway(testbed, zoo, n_workers=2)
        base = gateway.max_dispatch_slots
        cold = testbed.add_fleet_worker("gw-cold")
        # A provisioning cold start charged to the worker's clock before
        # it joins (what FleetController._grow_to does).
        cold.clock.advance(2.0)
        runtime.add_worker(cold)
        assert runtime.is_warming(cold)
        assert gateway.max_dispatch_slots == base
        # Once global time catches up, the next tick counts it.
        testbed.clock.advance(2.0)
        assert not runtime.is_warming(cold)
        gateway.on_tick(testbed.clock.now())
        assert gateway.max_dispatch_slots > base

    def test_busy_worker_stays_counted_however_heavy_the_batch(self, env):
        """A worker mid-batch (clock ahead of global by one batch, even
        a long one) is capacity; only provisioning/placement cold
        starts are excluded."""
        testbed, zoo = env
        gateway, runtime = self._gateway(testbed, zoo, n_workers=2)
        base = gateway.max_dispatch_slots
        busy = runtime.workers[0]
        busy.clock.advance(5.0)  # serving, not provisioning
        gateway.on_tick(testbed.clock.now())
        assert not runtime.is_warming(busy)
        assert gateway.max_dispatch_slots == base


class TestPodUtilizationRecording:
    def test_chunk_shares_land_on_per_pod_gauges(self, env):
        testbed, zoo = env
        runtime, worker = place_on_fleet_worker(testbed, zoo, replicas=4)
        fixed = sample_input("matminer_util")
        for _ in range(8):
            runtime.submit(TaskRequest("matminer_util", args=fixed))
        results = runtime.drain()
        assert all(r.result.ok for r in results)
        busy = runtime.stage_metrics.pod_busy("matminer_util")
        # Eight misses over four pods: every pod served a chunk, keyed
        # by "worker/pod" so hosts stay distinguishable.
        assert len(busy) == 4
        assert all(pod.startswith(f"{worker.name}/") for pod in busy)
        assert all(share > 0 for share in busy.values())
        # An even backlog shards evenly: imbalance stays near 1.
        imbalance = runtime.stage_metrics.pod_imbalance(
            "matminer_util", prefix=f"{worker.name}/"
        )
        assert imbalance == pytest.approx(1.0, abs=0.2)

    def test_failed_chunks_do_not_pollute_the_gauge(self, env):
        testbed, zoo = env
        runtime, worker = place_on_fleet_worker(
            testbed, zoo, name="noop", replicas=2, max_batch_size=4
        )
        executor = worker.executors["parsl"]
        pool = executor._pools["noop"]
        victim = sorted(pool.pods, key=lambda p: (p.busy_until, p.name))[0]

        def explode(*args, **kwargs):
            raise RuntimeError("pod crashed mid-chunk")

        victim.exec = explode
        results = runtime.serve(
            [(0.0, TaskRequest("noop", args=(i,))) for i in range(4)]
        )
        assert any(not r.result.ok for r in results)
        busy = runtime.stage_metrics.pod_busy("noop")
        assert f"{worker.name}/{victim.name}" not in busy
        assert len(busy) == 1  # the surviving chunk's pod
