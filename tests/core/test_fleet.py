"""Unit + integration tests for the fleet control plane.

The :class:`FleetController` reconciles the :class:`ServingRuntime`
data plane: health from claim activity + probes, worker scaling with
container cold starts, placement rebalancing, and Fig. 7 replica
scaling — all audited through the :class:`FleetEvent` log.
"""


import pytest

from repro.core.adaptive import replicas_for_rate
from repro.core.fleet import (
    BACKLOG_HORIZON_S,
    EWMA_ALPHA,
    FORECAST_LEAD_TIME_S,
    SCALE_DOWN_UTILIZATION,
    TARGET_UTILIZATION,
    FleetController,
    FleetControllerError,
    FleetObservation,
    FleetPolicy,
    FleetPlan,
    PredictiveScaling,
    QueueLatencySLOPolicy,
    ServableDemand,
    TargetUtilizationPolicy,
    per_copy_capacity_rps,
)
from repro.core.obsloop import ReactiveSLOPolicy
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.zoo import build_zoo, sample_input
from repro.messaging.queue import servable_topic
from repro.sim import calibration as cal

INTERVAL = 0.25


def build_controlled_fleet(
    servables=("noop",),
    n_workers=1,
    max_workers=4,
    policy=None,
    copies=1,
    **controller_kwargs,
):
    """A concurrent (own-clock) fleet with an attached controller."""
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(n_workers)]
    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        workers,
        max_batch_size=16,
        max_coalesce_delay_s=0.005,
    )
    for name in servables:
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image, copies=copies)
    controller_kwargs.setdefault("autoscale_replicas", False)
    controller_kwargs.setdefault("min_workers", 1)
    controller = FleetController(
        runtime,
        provision_worker=testbed.add_fleet_worker,
        policy=policy,
        interval_s=INTERVAL,
        max_workers=max_workers,
        **controller_kwargs,
    )
    return testbed, zoo, runtime, controller


def flat_rate(servable, rate_rps, duration_s, start_s=0.0):
    fixed = sample_input(servable)
    return [
        (start_s + i / rate_rps, TaskRequest(servable, args=fixed))
        for i in range(int(rate_rps * duration_s))
    ]


def demand(**overrides):
    base = dict(
        name="noop",
        queue_depth=0,
        arrival_rate_rps=0.0,
        live_copies=1,
        per_copy_capacity_rps=100.0,
    )
    base.update(overrides)
    return ServableDemand(**base)


def observation(demands, routable=1, max_workers=4):
    return FleetObservation(
        time=0.0,
        routable_workers=routable,
        draining_workers=0,
        min_workers=1,
        max_workers=max_workers,
        demands=tuple(demands),
    )


class TestCapacityModel:
    def test_per_copy_capacity_is_batch_amortized(self):
        cap = per_copy_capacity_rps(cal.INFERENCE_COST_S["noop"], 16)
        serial = (
            cal.TASK_MANAGER_HANDLING_S
            + cal.TASK_MANAGER_ROUTING_S
            + cal.PARSL_DISPATCH_S
            + cal.SERVABLE_SHIM_S
            + cal.PARSL_COLLECT_S
        )
        per_item = cal.INFERENCE_COST_S["noop"] + cal.BATCH_ITEM_MARGINAL_S
        assert cap == pytest.approx(16 / (serial + 16 * per_item))
        # Bigger windows amortize the serial overheads further.
        assert per_copy_capacity_rps(cal.INFERENCE_COST_S["noop"], 32) > cap

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            per_copy_capacity_rps(0.001, 0)


class TestTargetUtilizationPolicy:
    def test_scales_copies_with_pressure(self):
        policy = TargetUtilizationPolicy()
        plan = policy.plan(
            observation([demand(arrival_rate_rps=150.0)], max_workers=8)
        )
        # 150 rps at 65% of 100 rps/copy -> 3 copies.
        assert TARGET_UTILIZATION == 0.65
        assert plan.copies["noop"] == 3
        assert plan.target_workers == 3

    def test_backlog_counts_as_pressure(self):
        policy = TargetUtilizationPolicy()
        # 75 queued, drained over 0.5 s, is 150 rps of pressure.
        plan = policy.plan(
            observation(
                [demand(queue_depth=round(150 * BACKLOG_HORIZON_S))], max_workers=8
            )
        )
        assert plan.copies["noop"] == 3

    def test_scale_down_is_gradual_and_hysteretic(self):
        policy = TargetUtilizationPolicy()
        # Busy enough that 3 copies stay (100 rps > 0.3 * 2 * 100), though
        # 2 copies would carry it under the setpoint.
        assert 100.0 > SCALE_DOWN_UTILIZATION * 2 * 100.0
        hold = policy.plan(
            observation([demand(arrival_rate_rps=100.0, live_copies=3)])
        )
        assert hold.copies["noop"] == 3
        # Nearly idle: shed exactly one copy per pass.
        shrink = policy.plan(
            observation([demand(arrival_rate_rps=1.0, live_copies=3)])
        )
        assert shrink.copies["noop"] == 2

    def test_copies_clamped_to_max_workers(self):
        policy = TargetUtilizationPolicy()
        plan = policy.plan(
            observation([demand(arrival_rate_rps=1e5)], max_workers=4)
        )
        assert plan.copies["noop"] == 4
        assert plan.target_workers == 4

    def test_validation(self):
        # The setpoints are constants in the ranges the policy needs, and
        # it takes no keyword to move them.
        assert 0 < TARGET_UTILIZATION <= 1
        assert 0 <= SCALE_DOWN_UTILIZATION < TARGET_UTILIZATION
        assert BACKLOG_HORIZON_S > 0
        for option in ("target_utilization", "scale_down_utilization", "backlog_horizon_s"):
            with pytest.raises(TypeError):
                TargetUtilizationPolicy(**{option: 0.5})


class TestQueueLatencySLOPolicy:
    def test_backlog_must_drain_within_slo(self):
        policy = QueueLatencySLOPolicy(slo_s=0.1, safety=1.0)
        # 50 queued at 100 rps/copy: need 5 copies to clear in 100 ms.
        plan = policy.plan(
            observation([demand(queue_depth=50)], max_workers=8)
        )
        assert plan.copies["noop"] == 5

    def test_p95_breach_forces_exploratory_copy(self):
        policy = QueueLatencySLOPolicy(slo_s=0.05)
        plan = policy.plan(
            observation(
                [demand(recent_queue_waits_s=(0.2,), live_copies=2)],
                max_workers=8,
            )
        )
        assert plan.copies["noop"] == 3

    def test_scale_down_needs_comfortable_tail(self):
        policy = QueueLatencySLOPolicy(slo_s=0.1)
        uneasy = policy.plan(
            observation([demand(live_copies=3, recent_queue_waits_s=(0.05,))])
        )
        assert uneasy.copies["noop"] == 3
        comfy = policy.plan(
            observation([demand(live_copies=3, recent_queue_waits_s=(0.01,))])
        )
        assert comfy.copies["noop"] == 2
        # A fully idle servable (no fresh samples, empty queue) drains too.
        idle = policy.plan(observation([demand(live_copies=3)]))
        assert idle.copies["noop"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueLatencySLOPolicy(slo_s=0)
        with pytest.raises(ValueError):
            QueueLatencySLOPolicy(safety=1.5)


class TestControllerConstruction:
    def test_attaches_to_runtime(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        assert runtime._controllers == (controller,)
        assert controller.next_wakeup() == testbed.clock.now()

    def test_validation(self):
        testbed, zoo, runtime, _ = build_controlled_fleet()
        with pytest.raises(FleetControllerError):
            FleetController(runtime, interval_s=0)
        with pytest.raises(FleetControllerError):
            FleetController(runtime, min_workers=3, max_workers=2)
        assert 0 < EWMA_ALPHA <= 1
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            FleetController(runtime, ewma_alpha=1.0)

    def test_default_policy(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        assert isinstance(controller.policy, TargetUtilizationPolicy)


class TestObservation:
    def test_arrival_rate_estimated_from_enqueue_deltas(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        controller.observe()
        for _ in range(50):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(0.5)
        obs = controller.observe()
        # 100 rps in the first measured interval: that interval seeds
        # the estimate (the unmeasured first sight stored no rate)...
        assert obs.demands[0].arrival_rate_rps == pytest.approx(100.0)
        assert obs.demands[0].queue_depth == 50
        for _ in range(25):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(0.5)
        # ...and the next interval's 50 rps (its own 25 arrivals only)
        # moves it EWMA_ALPHA of the way there.
        estimate = EWMA_ALPHA * 50.0 + (1 - EWMA_ALPHA) * 100.0
        assert controller.observe().demands[0].arrival_rate_rps == pytest.approx(estimate)
        runtime.drain()

    def test_recent_p95_windows_not_all_time(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        for _ in range(8):
            runtime.submit(TaskRequest("noop"))
        runtime.drain()
        first = controller.observe()
        assert first.demands[0].recent_p95_queue_wait_s is not None
        # No new samples since: the window is empty, not the old tail.
        second = controller.observe()
        assert second.demands[0].recent_p95_queue_wait_s is None


class TestWorkerScaling:
    def test_backlog_provisions_up_to_max(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(max_workers=3)
        for _ in range(400):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        assert len(runtime.alive_workers()) == 3
        provisioned = controller.events_of("worker_provisioned")
        assert len(provisioned) == 2
        cold = provisioned[0].detail["cold_start_s"]
        assert cold > cal.CONTAINER_START_S  # pull + start
        # Fresh workers join busy: the cold start is on their clock.
        for event in provisioned:
            worker = runtime.worker(event.subject)
            assert runtime.free_at(worker) > testbed.clock.now()
        assert len(controller.events_of("copy_added")) == 2
        runtime.drain()

    def test_drain_and_retire_after_idle(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(max_workers=3)
        for _ in range(400):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        runtime.drain()
        for _ in range(20):
            testbed.clock.advance(INTERVAL)
            controller.reconcile()
        assert len(runtime.alive_workers()) == 1
        assert len(runtime.workers) == 1  # retired, not just unroutable
        assert controller.events_of("worker_draining")
        assert controller.events_of("worker_retired")
        # The survivor still hosts the servable.
        assert runtime.placement()["noop"] == [runtime.workers[0].name]

    def test_no_provisioner_means_fixed_fleet(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        controller.provision_worker = None
        for _ in range(400):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        assert len(runtime.workers) == 1
        assert not controller.events_of("worker_provisioned")
        runtime.drain()

    def test_peak_tracking(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(max_workers=3)
        assert controller.peak_routable_workers == 1
        for _ in range(400):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        runtime.drain()
        for _ in range(20):
            testbed.clock.advance(INTERVAL)
            controller.reconcile()
        assert controller.peak_routable_workers == 3
        assert len(runtime.alive_workers()) == 1


class TestHealth:
    def test_crash_detected_and_migrated(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(
            n_workers=2, min_workers=2
        )
        controller.reconcile()
        primary = runtime.hosts("noop")[0]
        primary.crash()
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        assert controller.health[primary.name].status == "down"
        assert controller.events_of("worker_down")
        migrated = controller.events_of("servable_migrated")
        assert migrated and migrated[0].subject == "noop"
        # Traffic keeps flowing on the migrated copy.
        runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert results[0].result.ok and results[0].worker != primary.name

    def test_recovered_worker_is_revived(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(
            n_workers=2, min_workers=2
        )
        controller.reconcile()
        primary = runtime.hosts("noop")[0]
        primary.crash()
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        primary.recover()
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        assert controller.events_of("worker_revived")
        assert controller.health[primary.name].status == "healthy"
        assert primary in runtime.alive_workers()

    def test_claim_activity_counts_as_liveness(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        controller.reconcile()
        before = controller.health[runtime.workers[0].name].last_active
        runtime.submit(TaskRequest("noop"))
        runtime.drain()
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        health = controller.health[runtime.workers[0].name]
        assert health.last_active > before
        assert health.tasks_processed == runtime.workers[0].tasks_processed

    def test_sole_worker_crash_provisions_replacement(self):
        """Self-healing: losing the only routable worker triggers both a
        replacement and a placement migration in one reconcile."""
        testbed, zoo, runtime, controller = build_controlled_fleet()
        controller.reconcile()
        runtime.workers[0].crash()
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        assert controller.events_of("worker_provisioned")
        assert controller.events_of("servable_migrated")
        runtime.submit(TaskRequest("noop"))
        results = runtime.drain()
        assert results[0].result.ok


class TestReplicaScaling:
    def test_live_traffic_scales_host_replicas(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(
            servables=("inception",),
            autoscale_replicas=True,
            max_replicas_per_host=4,
        )
        worker = runtime.hosts("inception")[0]
        executor = worker.route("inception")[1]
        assert executor.replicas("inception") == 1
        controller.observe()
        for _ in range(100):
            runtime.submit(TaskRequest("inception", args=sample_input("inception")))
        testbed.clock.advance(1.0)  # the first measured interval: 100 rps
        controller.reconcile()
        events = controller.events_of("replicas_scaled")
        assert events and events[0].subject == "inception"
        want = events[0].detail["replicas"]
        assert executor.replicas("inception") == want
        # Unified sizing: the controller's per-host Autoscaler inverts
        # the same shared capacity model the policies plan copies from,
        # at the runtime's micro-batch size (16).
        expected = replicas_for_rate(
            cal.inference_cost("inception"), 16, 100.0, max_replicas=4
        )
        assert want == expected
        runtime.drain()


class TestServeIntegration:
    def test_controller_reconciles_inside_serve(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(max_workers=4)
        results = runtime.serve(flat_rate("noop", 400.0, 2.0))
        assert len(results) == 800 and all(r.result.ok for r in results)
        assert controller.reconciles >= 4  # ticked along the schedule
        assert controller.peak_routable_workers > 1
        assert controller.events_of("worker_provisioned")

    def test_custom_policy_plugs_in(self):
        class PinnedPolicy(FleetPolicy):
            """Always wants exactly two of everything."""

            name = "pinned"

            def plan(self, obs):
                return FleetPlan(
                    target_workers=2,
                    copies={d.name: 2 for d in obs.demands},
                )

        testbed, zoo, runtime, controller = build_controlled_fleet(
            policy=PinnedPolicy(), max_workers=4
        )
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        assert len(runtime.alive_workers()) == 2
        assert len(runtime.placement()["noop"]) == 2

    def test_events_are_clock_stamped_and_queryable(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(max_workers=2)
        for _ in range(200):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(INTERVAL)
        now = testbed.clock.now()
        controller.reconcile()
        event = controller.events_of("worker_provisioned")[0]
        assert event.time == pytest.approx(now)
        assert controller.events_of("worker_provisioned", "copy_added") == [
            e
            for e in controller.events
            if e.kind in ("worker_provisioned", "copy_added")
        ]
        runtime.drain()

    def test_queue_topic_ownership_respected(self):
        """The controller only observes topics the runtime owns."""
        testbed, zoo, runtime, controller = build_controlled_fleet()
        testbed.management.queue.put("foreign", topic="other/lane")
        obs = controller.observe()
        assert {d.name for d in obs.demands} == {"noop"}
        assert testbed.management.queue.ready_count("other/lane") == 1

    def test_served_topic_depth_matches(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        runtime.submit(TaskRequest("noop"))
        assert (
            testbed.management.queue.ready_count(servable_topic("noop")) == 1
        )
        obs = controller.observe()
        assert obs.demands[0].queue_depth == 1
        runtime.drain()

    def test_zero_dt_sample_does_not_swallow_arrivals(self):
        """Back-to-back samples at the same virtual time must not consume
        enqueue deltas without feeding the rate estimator."""
        testbed, zoo, runtime, controller = build_controlled_fleet()
        controller.observe()
        for _ in range(50):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(0.5)
        controller.observe()  # consumes the 50-arrival delta at 100 rps
        obs = controller.observe()  # dt == 0: keeps the estimate
        assert obs.demands[0].arrival_rate_rps == pytest.approx(100.0)
        runtime.drain()


class TestFirstReconcile:
    """The controller plans no shrink from demand it has not measured:
    first sight stores no rate, the first measured interval seeds the
    estimate, and a reconcile that measured no interval only grows."""

    POLICIES = {
        "target-utilization": TargetUtilizationPolicy,
        "queue-latency-slo": QueueLatencySLOPolicy,
        "predictive": PredictiveScaling,
        "reactive-slo": ReactiveSLOPolicy,
    }

    @staticmethod
    def shrinks(controller):
        return controller.events_of(
            "copy_removed", "worker_draining", "worker_retired"
        )

    @pytest.mark.parametrize("min_workers", [1, 3])
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_first_reconcile_keeps_a_warm_idle_fleet(self, policy, min_workers):
        testbed, zoo, runtime, controller = build_controlled_fleet(
            n_workers=3,
            max_workers=3,
            copies=3,
            min_workers=min_workers,
            policy=self.POLICIES[policy](),
        )
        now = testbed.clock.now()
        # Warm: every worker could be drained now.
        assert all(runtime.free_at(w) <= now for w in runtime.workers)
        plan = controller.reconcile()
        assert plan.copies == {"noop": 3}
        assert plan.target_workers == 3
        assert not self.shrinks(controller)
        assert len(runtime.hosts("noop")) == 3
        assert len(runtime.alive_workers()) == 3

    def test_first_reconcile_keeps_replica_pods(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(
            servables=("inception",), autoscale_replicas=True
        )
        executor = runtime.hosts("inception")[0].route("inception")[1]
        executor.scale("inception", 2)
        controller.reconcile()
        assert executor.replicas("inception") == 2
        assert not controller.events_of("replicas_scaled")

    def test_first_measured_interval_seeds_the_estimate(self):
        """At one copy's capacity, three copies hold (the shed copy's
        remainder would sit above the hysteresis band); half of it, the
        old zero-seeded first estimate, would shed one."""
        testbed, zoo, runtime, controller = build_controlled_fleet(
            n_workers=3, max_workers=3, copies=3
        )
        capacity = per_copy_capacity_rps(
            zoo["noop"].inference_cost_s, runtime.max_batch_size
        )
        assert capacity / 2 <= SCALE_DOWN_UTILIZATION * 2 * capacity < capacity
        runtime.serve(flat_rate("noop", capacity, 3 * INTERVAL))
        assert controller.reconciles >= 3
        assert not self.shrinks(controller)
        assert len(runtime.hosts("noop")) == 3
        assert len(runtime.alive_workers()) == 3

    def test_first_reconcile_still_grows_for_a_backlog(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(
            servables=("noop", "cifar10"), n_workers=2, copies=2
        )
        runtime.remove_copy("cifar10", runtime.hosts("cifar10")[1].name)
        fixed = sample_input("cifar10")
        for _ in range(400):
            runtime.submit(TaskRequest("cifar10", args=fixed))
        controller.reconcile()
        # The backlogged servable grows; the idle one keeps both copies.
        assert controller.events_of("worker_provisioned")
        assert len(runtime.hosts("cifar10")) > 1
        assert len(runtime.hosts("noop")) == 2
        assert not self.shrinks(controller)
        runtime.drain()


class TestProvisionerGuard:
    def test_shared_clock_provisioner_rejected(self):
        """A provisioner returning shared-clock workers would warp global
        time with cold starts; the controller fails fast instead."""
        testbed, zoo, runtime, controller = build_controlled_fleet()
        controller.provision_worker = testbed.add_task_manager
        for _ in range(400):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(INTERVAL)
        with pytest.raises(FleetControllerError, match="own\\s+clock"):
            controller.reconcile()


class TestPredictiveScaling:
    def test_flat_traffic_matches_base_policy(self):
        base = TargetUtilizationPolicy()
        policy = PredictiveScaling(TargetUtilizationPolicy())
        flat = demand(arrival_rate_rps=100.0, live_copies=2)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            obs = FleetObservation(
                time=t,
                routable_workers=2,
                draining_workers=0,
                min_workers=1,
                max_workers=4,
                demands=(flat,),
            )
            predictive_plan = policy.plan(obs)
            base_plan = base.plan(obs)
        # A zero-trend history projects flat: no over-provisioning.
        assert predictive_plan.copies == base_plan.copies
        assert predictive_plan.target_workers == base_plan.target_workers
        assert policy.last_planning_rates["noop"] == pytest.approx(100.0)

    def test_rising_edge_plans_ahead_of_base(self):
        base = TargetUtilizationPolicy()
        policy = PredictiveScaling(TargetUtilizationPolicy())
        rates = [100.0, 100.0, 100.0, 220.0, 380.0]
        for i, rate in enumerate(rates):
            obs = observation([demand(arrival_rate_rps=rate)], max_workers=8)
            obs = FleetObservation(
                time=i * 0.25,
                routable_workers=1,
                draining_workers=0,
                min_workers=1,
                max_workers=8,
                demands=(demand(arrival_rate_rps=rate),),
            )
            predictive_plan = policy.plan(obs)
        base_plan = base.plan(obs)
        # The projection runs ahead of the observed rate...
        assert policy.last_forecasts["noop"].rate_rps > 380.0
        assert policy.last_planning_rates["noop"] > 380.0
        # ...so the wrapped policy asks for more capacity than the
        # reactive baseline does from the same observation.
        assert predictive_plan.copies["noop"] > base_plan.copies["noop"]

    def test_weighted_rate_carries_the_boost(self):
        policy = PredictiveScaling(TargetUtilizationPolicy())
        for i, rate in enumerate((50.0, 150.0, 300.0)):
            obs = FleetObservation(
                time=i * 0.25,
                routable_workers=1,
                draining_workers=0,
                min_workers=1,
                max_workers=8,
                demands=(
                    demand(
                        arrival_rate_rps=1.0,
                        weighted_arrival_rate_rps=rate,
                    ),
                ),
            )
            policy.plan(obs)
        # effective_rate_rps prefers the weighted figure; the forecast
        # must have been fed (and boosted) from it, not the raw rate.
        assert policy.last_planning_rates["noop"] > 300.0

    def test_default_lead_time_covers_cold_start(self):
        from repro.containers.runtime import cold_start_cost_s
        from repro.core.fleet import WORKER_IMAGE_BYTES

        policy = PredictiveScaling()
        assert policy.lead_time_s >= cold_start_cost_s(WORKER_IMAGE_BYTES)
        # The cold start plus one 0.25 s reconcile, as the
        # demand_forecast events record it.
        assert policy.lead_time_s == FORECAST_LEAD_TIME_S
        assert round(FORECAST_LEAD_TIME_S, 3) == 2.064

    def test_validation(self):
        # The horizon and the forecaster are fixed: no keyword moves them.
        for option in ("lead_time_s", "forecaster", "reconcile_interval_s"):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                PredictiveScaling(**{option: 1.0})

    def test_forecaster_sees_every_planned_servable(self):
        policy = PredictiveScaling()
        obs = observation([demand(arrival_rate_rps=10.0)])
        policy.plan(obs)
        assert policy.forecaster.keys() == ["noop"]


class TestPredictiveController:
    def test_forecast_events_and_earlier_scale_up(self):
        """A spiking schedule under PredictiveScaling logs demand_forecast
        events and provisions no later than the forecast fires."""
        testbed, zoo, runtime, controller = build_controlled_fleet(
            policy=PredictiveScaling(TargetUtilizationPolicy()),
            max_workers=4,
        )
        spike = flat_rate("noop", 150.0, 1.0) + flat_rate(
            "noop", 900.0, 2.0, start_s=1.0
        )
        results = runtime.serve(sorted(spike, key=lambda pair: pair[0]))
        assert len(results) == len(spike)
        forecasts = controller.events_of("demand_forecast")
        assert forecasts, "no pre-provision decisions were logged"
        detail = forecasts[0].detail
        assert detail["forecast_rps"] > detail["rate_rps"]
        assert detail["lead_time_s"] == pytest.approx(
            controller.policy.lead_time_s, abs=1e-3
        )
        provisions = controller.events_of("worker_provisioned")
        assert provisions
        # The first provision came with (or after) a forecast, never
        # before the forecaster had signal.
        assert provisions[0].time >= forecasts[0].time

    def test_warming_visible_in_fleet_stats(self):
        testbed, zoo, runtime, controller = build_controlled_fleet(max_workers=2)
        for _ in range(200):
            runtime.submit(TaskRequest("noop"))
        testbed.clock.advance(INTERVAL)
        controller.reconcile()
        stats = runtime.fleet_stats()
        fresh = [w for w in stats.workers if w.name.startswith("fleet-w")]
        assert fresh, "controller provisioned no worker"
        # The provisioned worker is still paying its container cold
        # start: pre-provisioned capacity is observable before it lands.
        assert fresh[0].warming
        assert fresh[0].warm_at > stats.time
        runtime.drain()
        # Once global time passes every cold start, nothing is warming.
        horizon = max(w.warm_at for w in runtime.fleet_stats().workers)
        if horizon > testbed.clock.now():
            testbed.clock.advance_to(horizon + 1e-6)
        assert not any(w.warming for w in runtime.fleet_stats().workers)


class TestImbalanceDerate:
    """The windowed ``pod_imbalance`` gauge de-rates planned capacity."""

    def test_on_by_default(self):
        """Default-on: a lopsided window de-rates planned capacity
        with no opt-in (threshold 1.25)."""
        testbed, zoo, runtime, controller = build_controlled_fleet()
        baseline = controller.observe().demands[0].per_copy_capacity_rps
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 30.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 0.0)
        obs = controller.observe()
        assert obs.demands[0].per_copy_capacity_rps < baseline

    def test_scale_transient_excluded(self):
        """A window overlapping a scale event is consumed but not
        judged: warm-up skew right after a provision must not read as
        straggler imbalance — and because the cursor still advanced,
        the transient data cannot poison the next settled window."""
        testbed, zoo, runtime, controller = build_controlled_fleet()
        baseline = controller.observe().demands[0].per_copy_capacity_rps
        controller._record("worker_provisioned", "w1")
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 30.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 0.0)
        obs = controller.observe()
        assert obs.demands[0].per_copy_capacity_rps == baseline
        # Past the settle period, a *new* skewed window derates again.
        testbed.clock.advance(2 * controller.interval_s)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 30.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 0.0)
        obs = controller.observe()
        assert obs.demands[0].per_copy_capacity_rps < baseline

    def test_straggler_imbalance_derates_capacity(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        baseline = controller.observe().demands[0].per_copy_capacity_rps
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 3.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 1.0)
        obs = controller.observe()
        # max/mean = 3.0/2.0 = 1.5 > 1.25: plan on the straggler's pace.
        assert obs.demands[0].per_copy_capacity_rps == pytest.approx(
            baseline / 1.5
        )

    def test_balanced_pods_leave_capacity_alone(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        baseline = controller.observe().demands[0].per_copy_capacity_rps
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 2.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 2.0)
        obs = controller.observe()
        assert obs.demands[0].per_copy_capacity_rps == baseline

    def test_jitter_below_threshold_ignored(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        baseline = controller.observe().demands[0].per_copy_capacity_rps
        # max/mean = 1.2/1.0 = 1.2 < 1.25: routine scatter, no derate.
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 1.2)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 0.8)
        obs = controller.observe()
        assert obs.demands[0].per_copy_capacity_rps == baseline

    def test_derate_capped_for_pathological_windows(self):
        testbed, zoo, runtime, controller = build_controlled_fleet()
        baseline = controller.observe().demands[0].per_copy_capacity_rps
        # Three pods, one doing all the work: imbalance 3.0, capped 2.0.
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 6.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 0.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-2", 0.0)
        obs = controller.observe()
        assert obs.demands[0].per_copy_capacity_rps == pytest.approx(
            baseline / 2.0
        )

    def test_window_forgets_old_imbalance(self):
        """The gauge is consumed through deltas: once a skewed interval
        has been observed, a quiet follow-up interval stops the derate —
        cumulative-since-start ratios would pin it forever."""
        testbed, zoo, runtime, controller = build_controlled_fleet()
        baseline = controller.observe().demands[0].per_copy_capacity_rps
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-0", 3.0)
        runtime.stage_metrics.record_pod_share("noop", "w0/pod-1", 1.0)
        derated = controller.observe().demands[0].per_copy_capacity_rps
        assert derated < baseline
        # No new busy time since: an all-zero window reads as even.
        recovered = controller.observe().demands[0].per_copy_capacity_rps
        assert recovered == baseline

    def test_replica_events_judge_the_derate_window(self):
        """A ``replicas_scaled`` event judges chunk imbalance on the
        derate's per-observe pod window, restricted to the scaled
        worker's pods: one cursor over the gauge, not two."""
        testbed, zoo, runtime, controller = build_controlled_fleet(
            servables=("inception",),
            autoscale_replicas=True,
            max_replicas_per_host=4,
        )
        gauge = runtime.stage_metrics
        gauge.record_pod_share("inception", "w0/pod-0", 10.0)
        controller.observe()  # consumes the history before the window
        for _ in range(100):
            runtime.submit(TaskRequest("inception", args=sample_input("inception")))
        gauge.record_pod_share("inception", "w0/pod-0", 3.0)
        gauge.record_pod_share("inception", "w0/pod-1", 1.0)
        gauge.record_pod_share("inception", "w9/pod-0", 50.0)  # another host
        testbed.clock.advance(1.0)
        controller.reconcile()
        assert controller._pod_windows["inception"] == {
            "w0/pod-0": 3.0,
            "w0/pod-1": 1.0,
            "w9/pod-0": 50.0,
        }
        events = {e.detail["worker"]: e for e in controller.events_of("replicas_scaled")}
        assert events["w0"].detail["chunk_imbalance"] == 1.5  # 3 s over a 2 s mean
        # A freshly provisioned host has no chunks in the window.
        assert "chunk_imbalance" not in events["fleet-w1"].detail
        runtime.drain()

    def test_the_constants_are_not_options(self):
        for option in (
            "imbalance_derate_threshold",
            "imbalance_derate_cap",
            "imbalance_settle_s",
            "worker_image_bytes",
            "worker_name_prefix",
        ):
            with pytest.raises(TypeError):
                build_controlled_fleet(**{option: 1})
