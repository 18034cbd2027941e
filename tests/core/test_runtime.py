"""Unit tests for the ServingRuntime: coalescing, sharding, stage metrics.

The runtime is the server-side batching layer: single-item requests land
on per-servable topics and are claimed in micro-batches bounded by
``max_batch_size`` and ``max_coalesce_delay_s`` on the virtual clock.
"""

import math

import pytest

from repro.core.runtime import ServingRuntime, ServingRuntimeError
from repro.core.tasks import TaskRequest
from repro.core.zoo import build_zoo
from repro.messaging.queue import servable_topic
from tests.core.serve_oracles import polled_serve


def build_fleet(
    n_workers=2,
    servables=("noop", "matminer_util"),
    copies=1,
    memoize=True,
    **runtime_kwargs,
):
    """A testbed-backed fleet: extra Task Managers on the shared queue."""
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=memoize)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    workers = [testbed.task_manager]
    workers += [testbed.add_task_manager(f"tm-{i}") for i in range(1, n_workers)]
    runtime = ServingRuntime(
        testbed.clock, testbed.management.queue, workers, **runtime_kwargs
    )
    for name in servables:
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image, copies=copies)
    return testbed, zoo, runtime


class TestConstruction:
    def test_requires_workers(self, clock):
        from repro.messaging.queue import TaskQueue

        with pytest.raises(ServingRuntimeError):
            ServingRuntime(clock, TaskQueue(clock), [])

    def test_rejects_duplicate_worker_names(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False)
        dupe = testbed.add_task_manager(testbed.task_manager.name)
        with pytest.raises(ServingRuntimeError, match="unique"):
            ServingRuntime(
                testbed.clock,
                testbed.management.queue,
                [testbed.task_manager, dupe],
            )

    def test_rejects_bad_bounds(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False)
        with pytest.raises(ServingRuntimeError):
            ServingRuntime(
                testbed.clock,
                testbed.management.queue,
                [testbed.task_manager],
                max_batch_size=0,
            )
        with pytest.raises(ServingRuntimeError):
            ServingRuntime(
                testbed.clock,
                testbed.management.queue,
                [testbed.task_manager],
                max_coalesce_delay_s=-1.0,
            )


class TestPlacement:
    def test_shards_spread_across_workers(self):
        testbed, zoo, runtime = build_fleet(
            n_workers=2, servables=("noop", "matminer_util", "cifar10")
        )
        placement = runtime.placement()
        hosting_counts = {w.name: 0 for w in runtime.workers}
        for hosts in placement.values():
            assert len(hosts) == 1
            hosting_counts[hosts[0]] += 1
        # 3 servables over 2 workers: a 2/1 split, never 3/0.
        assert sorted(hosting_counts.values()) == [1, 2]

    def test_copies_register_on_distinct_workers(self):
        testbed, zoo, runtime = build_fleet(n_workers=2, servables=("noop",), copies=2)
        hosts = runtime.placement()["noop"]
        assert len(hosts) == 2 and len(set(hosts)) == 2

    def test_double_place_rejected(self):
        testbed, zoo, runtime = build_fleet(servables=("noop",))
        with pytest.raises(ServingRuntimeError, match="already placed"):
            runtime.place(zoo["noop"], None)

    def test_too_many_copies_rejected(self):
        testbed, zoo, runtime = build_fleet(n_workers=2, servables=())
        with pytest.raises(ServingRuntimeError, match="copies"):
            runtime.place(zoo["noop"], None, copies=3)

    def test_unplaced_servable_routing_fails(self):
        testbed, zoo, runtime = build_fleet(servables=())
        with pytest.raises(ServingRuntimeError, match="not placed"):
            runtime.hosts("ghost")


class TestCoalescing:
    def test_backlog_coalesces_into_one_batch(self):
        testbed, _, runtime = build_fleet(servables=("noop",), max_batch_size=8)
        for _ in range(8):
            runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert len(results) == 8
        assert all(r.result.ok for r in results)
        assert runtime.batches_dispatched == 1
        assert {r.batch_size for r in results} == {8}

    def test_max_batch_size_caps_windows(self):
        testbed, _, runtime = build_fleet(servables=("noop",), max_batch_size=4)
        for _ in range(10):
            runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert len(results) == 10
        assert runtime.batches_dispatched == 3
        assert sorted(r.batch_size for r in results) == [2, 2, 4, 4, 4, 4, 4, 4, 4, 4]

    def test_submit_rejects_preformed_batches(self):
        testbed, _, runtime = build_fleet(servables=("noop",))
        with pytest.raises(ServingRuntimeError, match="single-item"):
            runtime.submit(TaskRequest("noop", batch=[(), ()]))

    def test_submit_rejects_unplaced_servable(self):
        """Bad requests bounce at the door instead of poisoning drain()."""
        testbed, _, runtime = build_fleet(servables=("noop",))
        with pytest.raises(ServingRuntimeError, match="not placed"):
            runtime.submit(TaskRequest("ghost"))
        assert runtime.drain() == []

    def test_coalesce_delay_bounds_window(self):
        """Sparse arrivals close by timeout; the recorded coalesce delay
        never exceeds the configured bound."""
        delay = 0.005
        testbed, _, runtime = build_fleet(
            servables=("noop",), max_batch_size=100, max_coalesce_delay_s=delay
        )
        arrivals = [(i * 0.002, TaskRequest("noop")) for i in range(20)]
        results = runtime.serve(arrivals)
        assert len(results) == 20
        assert runtime.batches_dispatched > 1  # windows did close early
        for sample in runtime.stage_metrics.samples("coalesce_delay", "noop"):
            assert sample <= delay + 1e-9

    def test_sparse_arrivals_stay_unbatched(self):
        """Arrivals spaced wider than the window are served singly."""
        testbed, _, runtime = build_fleet(
            servables=("noop",), max_batch_size=100, max_coalesce_delay_s=0.001
        )
        arrivals = [(i * 0.5, TaskRequest("noop")) for i in range(4)]
        results = runtime.serve(arrivals)
        assert len(results) == 4
        assert {r.batch_size for r in results} == {1}

    def test_mixed_servables_coalesce_per_topic(self):
        testbed, zoo, runtime = build_fleet(
            n_workers=2, servables=("noop", "matminer_util"), max_batch_size=16
        )
        for _ in range(6):
            runtime.submit(TaskRequest("noop"))
            runtime.submit(TaskRequest("matminer_util", args=("NaCl",)))
        results = runtime.drain()
        assert len(results) == 12
        by_servable = {}
        for r in results:
            by_servable.setdefault(r.request.servable_name, set()).add(r.batch_size)
        # Topics never mix: each servable coalesced into its own batch.
        assert by_servable == {"noop": {6}, "matminer_util": {6}}
        # Routing honoured the placement shards.
        placement = runtime.placement()
        for r in results:
            assert r.worker in placement[r.request.servable_name]


class TestStageMetrics:
    def test_all_stages_recorded(self):
        testbed, _, runtime = build_fleet(servables=("noop",), max_batch_size=4)
        for _ in range(8):
            runtime.submit(TaskRequest("noop"))
        runtime.drain()
        metrics = runtime.stage_metrics
        assert metrics.count("queue_wait", "noop") == 8  # one per item
        assert metrics.count("coalesce_delay", "noop") == 2  # one per batch
        assert metrics.count("dispatch", "noop") == 2
        assert metrics.count("inference", "noop") == 2
        assert metrics.summarize("inference", "noop").median > 0

    def test_latency_measured_from_intended_arrival(self):
        testbed, _, runtime = build_fleet(servables=("noop",), max_batch_size=2)
        arrivals = [(0.0, TaskRequest("noop")), (0.001, TaskRequest("noop"))]
        results = runtime.serve(arrivals)
        for r in results:
            assert r.completed_at >= r.arrival_time
            assert r.latency == pytest.approx(r.completed_at - r.arrival_time)


class TestServerSideMemo:
    def test_batch_dispatches_only_misses(self):
        """Acceptance: coalesced batches hit the memo cache per item — a
        batch of previously-seen inputs dispatches only the misses."""
        testbed, _, runtime = build_fleet(
            servables=("matminer_util",), memoize=True, max_batch_size=8
        )
        warm = TaskRequest("matminer_util", args=("NaCl",))
        runtime.submit(warm)
        runtime.drain()
        executor = testbed.parsl_executor
        served_before = executor.requests_served
        hits_before = runtime.memo_hits
        # 3 repeats of the seen input + 1 new input, coalesced into one batch.
        for formula in ("NaCl", "NaCl", "NaCl", "SiO2"):
            runtime.submit(TaskRequest("matminer_util", args=(formula,)))
        results = runtime.drain()
        assert len(results) == 4 and all(r.result.ok for r in results)
        assert runtime.batches_dispatched == 2  # warmup + the batch
        assert executor.requests_served - served_before == 1  # only SiO2
        assert runtime.memo_hits - hits_before == 3
        # Per-item hit identity survives the batch split.
        by_formula = {r.request.args[0]: r.result for r in results}
        assert by_formula["NaCl"].cache_hit and not by_formula["SiO2"].cache_hit
        assert by_formula["NaCl"].inference_time == 0.0
        assert by_formula["SiO2"].inference_time > 0.0

    def test_failed_dispatch_recovers_memo_hits(self):
        """When a batch's dispatch fails, only the misses fail — items
        the cache answered are re-served individually."""
        testbed, _, runtime = build_fleet(
            servables=("matminer_util",), memoize=True, max_batch_size=8
        )
        runtime.submit(TaskRequest("matminer_util", args=("NaCl",)))
        runtime.drain()
        # Kill every pod so the next executor dispatch fails.
        for pod in testbed.parsl_executor._deployments["matminer_util"].ready_pods():
            pod.fail()
        for formula in ("NaCl", "SiO2"):
            runtime.submit(TaskRequest("matminer_util", args=(formula,)))
        results = runtime.drain()
        by_formula = {r.request.args[0]: r.result for r in results}
        assert by_formula["NaCl"].ok and by_formula["NaCl"].cache_hit
        assert not by_formula["SiO2"].ok
        assert "no ready pods" in by_formula["SiO2"].error

    def test_a_coalesced_member_is_called_and_keyed_as_alone(self):
        """A request whose ``args`` is a list gets the same servable call
        and the same memo key whether it rides a micro-batch or goes
        alone."""

        def list_args():
            return TaskRequest("matminer_util", args=["NaCl"])

        _, _, alone = build_fleet(n_workers=1, servables=("matminer_util",))
        (lone,) = alone.serve([(0.0, list_args())])
        assert lone.result.ok, lone.error
        _, _, runtime = build_fleet(n_workers=1, servables=("matminer_util",))
        member, other = runtime.serve(
            [(0.0, list_args()), (0.0, TaskRequest("matminer_util", args=("SiO2",)))]
        )
        assert runtime.batches_dispatched == 1 and member.batch_size == 2
        assert member.result.ok, member.error
        assert member.value == lone.value and other.result.ok
        (alone_host,) = alone.hosts("matminer_util")
        (host,) = runtime.hosts("matminer_util")
        lone_keys = {key for key, _ in alone_host.cache.export_entries()}
        assert lone_keys <= {key for key, _ in host.cache.export_entries()}
        (again,) = runtime.serve([(0.0, list_args())])
        assert again.result.cache_hit

    def test_fully_cached_batch_serves_in_cache_time(self):
        testbed, _, runtime = build_fleet(
            servables=("matminer_util",), memoize=True, max_batch_size=8
        )
        runtime.submit(TaskRequest("matminer_util", args=("NaCl",)))
        runtime.drain()
        executor = testbed.parsl_executor
        served_before = executor.requests_served
        for _ in range(5):
            runtime.submit(TaskRequest("matminer_util", args=("NaCl",)))
        results = runtime.drain()
        assert all(r.result.ok for r in results)
        assert executor.requests_served == served_before  # never left the TM
        assert all(r.result.cache_hit for r in results)


class TestLiveness:
    def test_mark_down_reroutes_to_surviving_host(self):
        testbed, zoo, runtime = build_fleet(
            n_workers=2, servables=("noop",), copies=2
        )
        primary = runtime.placement()["noop"][0]
        runtime.mark_down(primary)
        runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert results[0].result.ok
        assert results[0].worker != primary

    def test_all_hosts_down_leaves_work_queued(self):
        """Unroutable work is neither served nor dropped: with nothing
        to heal the fleet, ``drain`` raises at once and leaves the
        message queued, and it is served once a host comes back."""
        testbed, zoo, runtime = build_fleet(n_workers=2, servables=("noop",), copies=2)
        hosts = runtime.placement()["noop"]
        for name in hosts:
            runtime.mark_down(name)
        runtime.submit(TaskRequest("noop"))
        with pytest.raises(ServingRuntimeError, match=r"^1 request\(s\) held open"):
            runtime.drain()
        assert testbed.management.queue.ready_count(servable_topic("noop")) == 1
        runtime.mark_up(hosts[0])
        results = runtime.drain()
        assert len(results) == 1 and results[0].result.ok

    def test_mark_up_restores_routing(self):
        testbed, zoo, runtime = build_fleet(servables=("noop",))
        name = runtime.placement()["noop"][0]
        runtime.mark_down(name)
        runtime.mark_up(name)
        runtime.submit(TaskRequest("noop"))
        assert runtime.drain()[0].result.ok

    def test_unknown_worker_rejected(self):
        testbed, zoo, runtime = build_fleet()
        with pytest.raises(ServingRuntimeError, match="unknown worker"):
            runtime.mark_down("nobody")


class Heartbeat:
    """A controller that wakes every 0.7 s and, at ``heal_at``, recovers
    every crashed worker."""

    def __init__(self, runtime, heal_at=math.inf):
        self.runtime = runtime
        self.next_at = runtime.clock.now()
        self.heal_at = heal_at

    def next_wakeup(self):
        return min(self.next_at, self.heal_at)

    def on_tick(self):
        now = self.runtime.clock.now()
        if now + 1e-12 >= self.heal_at:
            self.heal_at = math.inf
            for worker in self.runtime.workers:
                worker.recover()
        if now + 1e-12 >= self.next_at:
            self.next_at = now + 0.7


class TestQuiescence:
    """With no ingress, work queued on the runtime's own topics is open:
    ``serve`` returns only when there is none. ``r0`` arrives 2.0 s in
    on a fleet whose two noop hosts crashed first; the kernel and the
    polled oracle must agree on what follows."""

    def _serve_r0(self, serve, heal_at=math.inf):
        testbed, _, runtime = build_fleet(n_workers=2, servables=("noop",), copies=2)
        for worker in runtime.hosts("noop"):
            worker.crash()
        start = testbed.clock.now()
        runtime.attach_controller(Heartbeat(runtime, start + heal_at))
        try:
            records = serve(runtime, [(2.0, TaskRequest("noop", task_uuid="r0"))])
            error = None
        except ServingRuntimeError as exc:
            records, error = [], str(exc)
        return {
            "error": error,
            "settled": [(r.body.task_uuid, r.worker, r.completed_at - start) for r in records],
            "at": testbed.clock.now() - start,
            "queued": runtime.queue.ready_count(servable_topic("noop")),
        }

    def test_queued_work_waits_for_a_heal(self):
        """The heal comes 1.6 s after ``r0``: ``serve`` sleeps to it
        instead of returning at 2.0 s, and serves ``r0``."""
        result = self._serve_r0(ServingRuntime.serve, heal_at=3.6)
        assert result == self._serve_r0(polled_serve, heal_at=3.6)
        assert result["error"] is None and result["queued"] == 0
        ((uuid, _, completed_at),) = result["settled"]
        assert uuid == "r0" and completed_at > 3.6

    def test_an_unhealable_fleet_raises_at_the_visibility_timeout(self):
        """Nothing heals: the loop sleeps to the heartbeat until its
        next beat lies past the visibility timeout after ``r0`` arrived
        (32.2 s), and raises at the last beat before (31.5 s), with
        ``r0`` still queued."""
        result = self._serve_r0(ServingRuntime.serve)
        assert result == self._serve_r0(polled_serve)
        assert result["error"] == (
            "1 request(s) held open with no next event after 29.500 s stalled"
        )
        assert result["at"] == pytest.approx(31.5)
        assert result["settled"] == [] and result["queued"] == 1


class TestTopicConvention:
    def test_submit_uses_servable_topic(self):
        testbed, _, runtime = build_fleet(servables=("noop",))
        msg = runtime.submit(TaskRequest("noop"))
        assert msg.topic == servable_topic("noop")
        assert testbed.management.queue.ready_count(servable_topic("noop")) == 1
        runtime.drain()

    def test_service_run_never_joins_untagged_batches(self):
        """A Management Service run rides its tenant's lane through the
        gateway: it never joins a batch parked on the default lane."""
        from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable

        testbed, _, runtime = build_fleet(servables=("matminer_util",))
        policies = TenantPolicyTable()
        policies.register(TenantPolicy(name="public"))
        policies.set_default("public")
        testbed.management.attach_gateway(
            ServingGateway(testbed.auth, runtime, policies)
        )
        parked = TaskRequest("matminer_util", args=("NaCl",))
        runtime.submit(parked)
        sync = testbed.management.run(testbed.token, "matminer_util", "SiO2")
        assert sync.ok
        assert runtime.items_served == runtime.batches_dispatched == 2
        assert testbed.management.queue.enqueued_count(
            servable_topic("matminer_util", lane="tenant-public")
        ) == 1


class TestDynamicMembership:
    def test_add_worker_becomes_placement_target(self):
        testbed, zoo, runtime = build_fleet(n_workers=1, servables=("noop",))
        joined = runtime.add_worker(testbed.add_task_manager("tm-late"))
        runtime.add_copy("noop", joined)
        assert runtime.placement()["noop"] == [runtime.workers[0].name, "tm-late"]

    def test_add_worker_rejects_duplicates_and_foreign_queues(self):
        from repro.core.task_manager import TaskManager
        from repro.messaging.queue import TaskQueue

        testbed, zoo, runtime = build_fleet(n_workers=1, servables=())
        with pytest.raises(ServingRuntimeError, match="already in fleet"):
            runtime.add_worker(testbed.add_task_manager(runtime.workers[0].name))
        stranger = TaskManager(testbed.clock, TaskQueue(testbed.clock), name="alien")
        with pytest.raises(ServingRuntimeError, match="queue"):
            runtime.add_worker(stranger)

    def test_remove_worker_requires_empty_host(self):
        testbed, zoo, runtime = build_fleet(n_workers=2, servables=("noop",))
        host, idle = runtime.placement()["noop"][0], None
        idle = next(w.name for w in runtime.workers if w.name != host)
        with pytest.raises(ServingRuntimeError, match="still hosts"):
            runtime.remove_worker(host)
        runtime.remove_worker(idle)
        assert [w.name for w in runtime.workers] == [host]
        with pytest.raises(ServingRuntimeError, match="last worker"):
            runtime.remove_worker(host)

    def test_copy_lifecycle(self):
        testbed, zoo, runtime = build_fleet(n_workers=2, servables=("noop",))
        placement = runtime.placement()["noop"]
        other = next(w for w in runtime.workers if w.name != placement[0])
        runtime.add_copy("noop", other)
        assert set(runtime.placement()["noop"]) == {w.name for w in runtime.workers}
        with pytest.raises(ServingRuntimeError, match="already hosts"):
            runtime.add_copy("noop", other)
        runtime.remove_copy("noop", other.name)
        assert runtime.placement()["noop"] == placement
        # The removed copy is genuinely undeployed from the worker.
        assert "noop" not in other.registered_servables()
        with pytest.raises(ServingRuntimeError, match="last copy"):
            runtime.remove_copy("noop", placement[0])

    def test_spec_records_placement_parameters(self):
        testbed, zoo, runtime = build_fleet(servables=("noop",))
        spec = runtime.spec("noop")
        assert spec.servable is zoo["noop"]
        assert spec.executor_name == "parsl"
        with pytest.raises(ServingRuntimeError, match="not placed"):
            runtime.spec("ghost")


class TestReviveAndStats:
    def test_revive_restores_routing(self):
        testbed, zoo, runtime = build_fleet(servables=("noop",))
        name = runtime.placement()["noop"][0]
        runtime.mark_down(name)
        runtime.submit(TaskRequest("noop"))
        with pytest.raises(ServingRuntimeError, match="held open"):
            runtime.drain()
        revived = runtime.revive(name)
        assert revived.name == name
        results = runtime.drain()
        assert len(results) == 1 and results[0].result.ok

    def test_revive_requires_down(self):
        testbed, zoo, runtime = build_fleet(servables=("noop",))
        with pytest.raises(ServingRuntimeError, match="not down"):
            runtime.revive(runtime.workers[0].name)

    def test_crashed_worker_is_not_routable(self):
        """A failed probe takes a worker out of routing even before any
        controller marks it down."""
        testbed, zoo, runtime = build_fleet(n_workers=2, servables=("noop",), copies=2)
        primary = runtime.hosts("noop")[0]
        primary.crash()
        runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert results[0].result.ok and results[0].worker != primary.name

    def test_fleet_stats_snapshot(self):
        testbed, zoo, runtime = build_fleet(
            n_workers=2, servables=("noop", "matminer_util")
        )
        runtime.mark_down(runtime.workers[1].name)
        runtime.submit(TaskRequest("noop"))
        stats = runtime.fleet_stats()
        assert stats.time == testbed.clock.now()
        assert stats.down == {runtime.workers[1].name}
        assert stats.routable_workers == (runtime.workers[0].name,)
        by_name = {w.name: w for w in stats.workers}
        assert by_name[runtime.workers[1].name].down
        hosted = [s for w in stats.workers for s in w.hosted]
        assert sorted(hosted) == ["matminer_util", "noop"]
        assert stats.placements["noop"] == tuple(runtime.placement()["noop"])
        assert stats.queue_depths == {"noop": 1, "matminer_util": 0}
        runtime.drain()


class TestConcurrentWorkers:
    """Own-clock workers overlap; shared-clock workers stay serial."""

    def build_concurrent_fleet(self, n_workers, **runtime_kwargs):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False, memoize_tm=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        workers = [testbed.add_fleet_worker(f"cw-{i}") for i in range(n_workers)]
        runtime = ServingRuntime(
            testbed.clock, testbed.management.queue, workers, **runtime_kwargs
        )
        published = testbed.management.publish(testbed.token, zoo["noop"])
        runtime.place(zoo["noop"], published.build.image, copies=n_workers)
        return testbed, runtime

    def test_backlog_spreads_across_free_workers(self):
        testbed, runtime = self.build_concurrent_fleet(2, max_batch_size=4)
        for _ in range(8):
            runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert len(results) == 8 and all(r.result.ok for r in results)
        assert {r.worker for r in results} == {"cw-0", "cw-1"}

    def test_two_workers_halve_the_makespan(self):
        def makespan(n_workers):
            testbed, runtime = self.build_concurrent_fleet(
                n_workers, max_batch_size=4, max_coalesce_delay_s=0.0
            )
            start = testbed.clock.now()
            runtime.serve([(0.0, TaskRequest("noop")) for _ in range(32)])
            return testbed.clock.now() - start

        solo, duo = makespan(1), makespan(2)
        assert duo < 0.65 * solo

    def test_results_settle_at_worker_completion_times(self):
        testbed, runtime = self.build_concurrent_fleet(2, max_batch_size=4)
        for _ in range(8):
            runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert runtime.inflight_batches == 0
        for r in results:
            assert r.completed_at > r.enqueued_at
            assert r.completed_at <= testbed.clock.now() + 1e-9

    def test_cold_start_makes_new_copy_busy(self):
        """Registering a servable on a concurrent worker charges the
        deployment cold start to that worker, not to global time."""
        testbed, runtime = self.build_concurrent_fleet(1)
        late = testbed.add_fleet_worker("cw-late")
        runtime.add_worker(late)
        before = testbed.clock.now()
        runtime.add_copy("noop", late)
        assert testbed.clock.now() == before  # global time untouched
        assert runtime.free_at(late) > before  # the worker is busy warming
