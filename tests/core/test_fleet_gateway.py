"""Fleet controller x serving gateway: tenant-aware demand signals.

With a gateway attached, the controller reads *admitted* arrival
counters (offered load the WFQ throttle hasn't released yet), folds
lane-held backlog into queue depth, and weights per-tenant rates so
scale-up respects tenant weights. Also covers the dropped idle-only
restriction on replica scaling (parallel pod scale-up satellite).
"""

import math

import pytest

from repro.core.fleet import (
    FleetController,
    QueueLatencySLOPolicy,
    ServableDemand,
    TargetUtilizationPolicy,
)
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo, sample_input
from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable


def build_gateway_fleet(weights=("heavy", 4.0, "light", 1.0), n_workers=2):
    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(n_workers)]
    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        workers,
        max_batch_size=8,
        max_coalesce_delay_s=0.005,
    )
    published = testbed.management.publish(testbed.token, zoo["noop"])
    runtime.place(zoo["noop"], published.build.image)
    policies = TenantPolicyTable()
    tokens = {}
    for name, weight in zip(weights[::2], weights[1::2]):
        policies.register(TenantPolicy(name=name, weight=weight))
        identity, token = testbed.new_user(f"{name}_user")
        policies.bind_identity(identity, name)
        tokens[name] = token
    gateway = ServingGateway(testbed.auth, runtime, policies)
    return testbed, runtime, gateway, tokens


class TestEffectiveRate:
    def test_falls_back_to_raw_rate(self):
        demand = ServableDemand(
            name="s",
            queue_depth=0,
            arrival_rate_rps=50.0,
            live_copies=1,
            per_copy_capacity_rps=100.0,
        )
        assert demand.effective_rate_rps == 50.0

    def test_weighted_rate_wins_when_present(self):
        demand = ServableDemand(
            name="s",
            queue_depth=0,
            arrival_rate_rps=50.0,
            live_copies=1,
            per_copy_capacity_rps=100.0,
            weighted_arrival_rate_rps=80.0,
            tenant_rates=(("a", 30.0), ("b", 20.0)),
        )
        assert demand.effective_rate_rps == 80.0

    def test_policies_plan_on_the_effective_rate(self):
        base = dict(
            name="s",
            queue_depth=0,
            arrival_rate_rps=10.0,
            live_copies=1,
            per_copy_capacity_rps=100.0,
        )
        obs_kwargs = dict(
            time=0.0,
            routable_workers=4,
            draining_workers=0,
            min_workers=1,
            max_workers=4,
        )
        from repro.core.fleet import FleetObservation

        weighted = FleetObservation(
            demands=(
                ServableDemand(**base, weighted_arrival_rate_rps=300.0),
            ),
            **obs_kwargs,
        )
        raw = FleetObservation(demands=(ServableDemand(**base),), **obs_kwargs)
        for policy in (TargetUtilizationPolicy(), QueueLatencySLOPolicy()):
            assert policy.plan(weighted).copies["s"] > policy.plan(raw).copies["s"]


class TestGatewayObservation:
    def test_observe_reads_admitted_counts_and_lane_backlog(self):
        testbed, runtime, gateway, tokens = build_gateway_fleet()
        controller = FleetController(
            runtime,
            gateway=gateway,
            interval_s=0.25,
            autoscale_replicas=False,
        )
        controller.observe()  # baseline the counters
        # 60 heavy + 20 light admissions in one virtual second; throttle
        # the pump hard so most requests sit in lanes, invisible to the
        # queue but not to the controller.
        gateway.max_dispatch_slots = 4
        identity = {
            t: testbed.auth.tokens.introspect(tok).identity
            for t, tok in tokens.items()
        }
        for _ in range(60):
            gateway.offer(TaskRequest("noop", args=(1,)), identity=identity["heavy"])
        for _ in range(20):
            gateway.offer(TaskRequest("noop", args=(2,)), identity=identity["light"])
        testbed.clock.advance(1.0)
        observation = controller.observe()
        demand = observation.demands[0]
        # Raw rate comes from admitted counters (80 over 1 s, the first
        # measured interval, which seeds the estimate)...
        assert demand.arrival_rate_rps == pytest.approx(80.0)
        # ...the lane-held backlog counts as queue depth...
        assert demand.queue_depth >= gateway.queued_count("noop") > 0
        # ...and the weighted rate amplifies the heavy tenant:
        # mean weight (4+1)/2 = 2.5 -> 60*4/2.5 + 20*1/2.5 = 104.
        assert demand.weighted_arrival_rate_rps == pytest.approx(104.0)
        assert dict(demand.tenant_rates) == pytest.approx(
            {"heavy": 60.0, "light": 20.0}
        )

    def test_equal_weights_leave_rate_unchanged(self):
        testbed, runtime, gateway, tokens = build_gateway_fleet(
            weights=("a", 1.0, "b", 1.0)
        )
        controller = FleetController(
            runtime,
            gateway=gateway,
            interval_s=0.25,
            autoscale_replicas=False,
        )
        controller.observe()
        identity = {
            t: testbed.auth.tokens.introspect(tok).identity
            for t, tok in tokens.items()
        }
        for _ in range(30):
            gateway.offer(TaskRequest("noop", args=(1,)), identity=identity["a"])
        testbed.clock.advance(1.0)
        demand = controller.observe().demands[0]
        assert demand.weighted_arrival_rate_rps == pytest.approx(
            demand.arrival_rate_rps
        )


class TestServeHealsAroundCrash:
    def test_lane_work_survives_sole_host_crash_via_controller(self):
        """A crash of the only host while admitted work sits in tenant
        lanes must not kill serve(): the attached controller migrates
        the servable at its next reconcile and the loop resumes
        (regression — serve used to raise before consulting the
        controller's wakeup)."""
        testbed, runtime, gateway, tokens = build_gateway_fleet(
            weights=("lab", 1.0), n_workers=2
        )
        controller = FleetController(
            runtime, gateway=gateway, interval_s=0.25, autoscale_replicas=False
        )
        host = runtime.hosts("noop")[0]
        arrivals = [
            (i / 200.0, tokens["lab"], TaskRequest("noop", args=(i,)))
            for i in range(20)
        ]
        # Crash the sole host mid-schedule: requests admitted after the
        # crash pile up in lanes with no routable copy.
        arrivals_with_crash = arrivals[:5] + arrivals[5:]
        host.crash()
        results = gateway.serve(arrivals_with_crash)
        assert len(results) == 20
        assert all(r.admitted and r.ok for r in results)
        migrated = [e for e in controller.events if e.kind == "servable_migrated"]
        assert migrated and migrated[0].subject == "noop"


class TestBusyWorkerReplicaScaling:
    def test_replicas_scale_on_a_busy_worker(self):
        """The idle-only restriction is gone: a worker mid-batch still
        gets its pods scaled (cold starts are charged as one concurrent
        start, not per pod)."""
        from repro.sim import calibration as cal

        testbed = build_testbed(jitter=False, memoize_tm=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        worker = testbed.add_fleet_worker("w0")
        runtime = ServingRuntime(
            testbed.clock, testbed.management.queue, [worker], max_batch_size=16
        )
        published = testbed.management.publish(testbed.token, zoo["inception"])
        runtime.place(zoo["inception"], published.build.image)
        controller = FleetController(
            runtime,
            interval_s=0.25,
            autoscale_replicas=True,
            max_replicas_per_host=4,
        )
        controller.observe()
        for _ in range(100):
            runtime.submit(
                TaskRequest("inception", args=sample_input("inception"))
            )
        testbed.clock.advance(1.0)  # the first measured interval: 100 rps
        # Make the worker busy: its own clock runs ahead of global time.
        worker.clock.advance(5.0)
        assert runtime.free_at(worker) > testbed.clock.now()
        controller.reconcile()
        events = controller.events_of("replicas_scaled")
        assert events and events[0].subject == "inception"
        executor = worker.route("inception")[1]
        expected = min(
            math.ceil(
                100.0 * (cal.SERVABLE_SHIM_S + cal.inference_cost("inception"))
            ),
            4,
        )
        assert executor.replicas("inception") == expected
        runtime.drain()
