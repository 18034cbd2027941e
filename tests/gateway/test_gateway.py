"""Behavior tests for the ServingGateway: admission failure paths,
work conservation, fairness under skew, and tenant tagging through
micro-batch coalescing."""

import numpy as np
import pytest

from repro.core.management import ManagementService
from repro.core.tasks import TaskRequest
from repro.core.testbed import DLHubTestbed
from repro.core.zoo import build_zoo, sample_input
from repro.durability import ChaosHarness
from repro.gateway import (
    AdmissionOutcome,
    AdmissionRejected,
    GatewayError,
    ServingGateway,
    TenantPolicy,
    TenantPolicyTable,
)


def build_gateway(tenant_policies, n_workers=2, max_batch_size=8, **gateway_kwargs):
    """Testbed + placed 'noop'/'matminer_util' + gateway with bound users.

    ``tenant_policies`` maps username -> TenantPolicy; returns
    (testbed, gateway, {username: token}).
    """
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    policies = TenantPolicyTable()
    tokens = {}
    identities = {}
    for username, policy in tenant_policies.items():
        policies.register(policy)
        identity, token = testbed.new_user(username)
        policies.bind_identity(identity, policy.name)
        tokens[username] = token
        identities[username] = identity
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(n_workers)]
    from repro.core.runtime import ServingRuntime

    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        workers,
        max_batch_size=max_batch_size,
        max_coalesce_delay_s=0.005,
        # The tracer attaches to the runtime (one attach point covers
        # the whole path); the gateway inherits it at construction.
        tracer=gateway_kwargs.pop("tracer", None),
    )
    for name in ("noop", "matminer_util"):
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image, copies=n_workers)
    gateway = ServingGateway(testbed.auth, runtime, policies, **gateway_kwargs)
    testbed._identities = identities  # convenience for tests
    return testbed, gateway, tokens


def requests_at(rate_rps, duration_s, token, servable="noop", args=(1,)):
    return [
        (i / rate_rps, token, TaskRequest(servable, args=args))
        for i in range(int(rate_rps * duration_s))
    ]


class TestAdmissionFailurePaths:
    def test_an_open_request_cannot_be_admitted_again(self):
        # A second admission of an open request would overwrite its open
        # result and journal a second admit: every door refuses it, and
        # one batch may not name a request twice.
        testbed, gateway, tokens = build_gateway({"u": TenantPolicy(name="t")})
        identity = testbed._identities["u"]
        request = TaskRequest("noop", args=(1,))
        assert gateway.offer(request, token=tokens["u"]).admitted
        twice = TaskRequest("noop", args=(2,))
        for door in (
            lambda: gateway.offer(request, token=tokens["u"]),
            lambda: gateway.invoke_sync_many([TaskRequest("noop"), request], identity),
            lambda: gateway.invoke_sync_many([twice, twice], identity),
        ):
            with pytest.raises(GatewayError, match="already admitted"):
                door()
        # Refused before admission: nothing more was charged, and the
        # first admission still settles once.
        assert gateway.admission.in_flight("t") == 1
        gateway.runtime.drain()
        assert gateway.metrics.counters("t").completed == 1

    def test_invalid_token_is_a_typed_outcome_not_an_exception(self):
        testbed, gateway, tokens = build_gateway({"u": TenantPolicy(name="t")})
        results = gateway.serve(
            [(0.0, "not-a-token", TaskRequest("noop", args=(1,)))]
        )
        assert len(results) == 1
        assert results[0].decision.outcome is AdmissionOutcome.REJECTED_AUTH
        assert not results[0].admitted
        assert gateway.runtime.items_served == 0

    def test_expired_token_rejected_at_admission(self):
        testbed, gateway, tokens = build_gateway({"u": TenantPolicy(name="t")})
        expiring = testbed.auth.tokens.issue(
            testbed._identities["u"], ["dlhub:all"], lifetime_s=1.0
        )
        testbed.clock.advance(2.0)
        results = gateway.serve(
            [(0.0, expiring.token, TaskRequest("noop", args=(1,)))]
        )
        assert results[0].decision.outcome is AdmissionOutcome.REJECTED_AUTH
        assert "expired" in results[0].decision.detail

    def test_unknown_tenant_rejected(self):
        testbed, gateway, tokens = build_gateway({"u": TenantPolicy(name="t")})
        _, stranger_token = testbed.new_user("stranger")  # no binding, no default
        results = gateway.serve(
            [(0.0, stranger_token, TaskRequest("noop", args=(1,)))]
        )
        assert (
            results[0].decision.outcome
            is AdmissionOutcome.REJECTED_UNKNOWN_TENANT
        )

    def test_sync_path_raises_typed_rejection(self):
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t", rate_limit_rps=1.0, burst=1)}
        )
        identity = testbed._identities["u"]
        assert gateway.invoke_sync(
            TaskRequest("noop", args=(1,)), identity=identity
        ).ok
        with pytest.raises(AdmissionRejected) as excinfo:
            gateway.invoke_sync(TaskRequest("noop", args=(2,)), identity=identity)
        assert (
            excinfo.value.decision.outcome
            is AdmissionOutcome.REJECTED_RATE_LIMIT
        )

    def test_shed_when_lane_full(self):
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t", max_queued=2)},
            n_workers=1,
            max_batch_size=1,
        )
        # One worker of batch size 1 derives 2 slots, 1 of them reserve:
        # a lone tenant has one releasable slot. Burst of 10 at one
        # instant: 1 released to the runtime, 2 lane slots, the rest
        # shed with a typed outcome.
        results = gateway.serve(
            [(0.0, tokens["u"], TaskRequest("noop", args=(i,))) for i in range(10)]
        )
        outcomes = [r.decision.outcome for r in results]
        assert outcomes.count(AdmissionOutcome.ADMITTED) == 3
        assert outcomes.count(AdmissionOutcome.SHED_LANE_FULL) == 7
        shed = gateway.metrics.counters("t").denied
        assert shed == {"shed_lane_full": 7}

    def test_unplaced_servable_is_a_gateway_error(self):
        testbed, gateway, tokens = build_gateway({"u": TenantPolicy(name="t")})
        with pytest.raises(Exception):
            gateway.offer(
                TaskRequest("missing", args=(1,)),
                identity=testbed._identities["u"],
            )

    def test_unplaced_servable_batch_charges_nothing(self):
        """invoke_sync_many must fail the placement guard *before*
        admission, or the denial would strand in-flight charges and
        lane entries forever (regression)."""
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t", max_in_flight=8)}
        )
        identity = testbed._identities["u"]
        with pytest.raises(Exception):
            gateway.invoke_sync_many(
                [TaskRequest("missing", args=(i,)) for i in range(3)],
                identity=identity,
            )
        assert gateway.admission.in_flight("t") == 0
        assert gateway.pending() == 0
        # The gateway is still fully usable afterwards.
        assert gateway.invoke_sync(
            TaskRequest("noop", args=(1,)), identity=identity
        ).ok


class TestWorkConservationAndQuotas:
    def test_over_quota_tenant_while_others_idle_is_work_conserving(self):
        """A quota-capped tenant's denials never idle the fleet for the
        others — and an idle fleet still serves the capped tenant up to
        its cap."""
        testbed, gateway, tokens = build_gateway(
            {
                "capped": TenantPolicy(
                    name="capped", rate_limit_rps=10.0, burst=5
                ),
                "free": TenantPolicy(name="free"),
            }
        )
        arrivals = requests_at(200.0, 0.5, tokens["capped"]) + requests_at(
            100.0, 0.5, tokens["free"], args=(2,)
        )
        results = gateway.serve(sorted(arrivals, key=lambda a: a[0]))
        capped = [r for r in results if r.decision.tenant == "capped"]
        free = [r for r in results if r.decision.tenant == "free"]
        # The free tenant is untouched by its neighbour's denials.
        assert all(r.admitted and r.ok for r in free)
        # The capped tenant got its bucket's worth (burst + refill), and
        # every denial is the rate-limit outcome.
        admitted_capped = [r for r in capped if r.admitted]
        assert 5 <= len(admitted_capped) <= 12
        assert all(
            r.decision.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
            for r in capped
            if not r.admitted
        )
        assert all(r.ok for r in admitted_capped)

    def test_lone_backlogged_tenant_overflows_its_share(self):
        """Work conservation: with no competition, one tenant may use
        (almost) all dispatch slots, not just its weighted share."""
        testbed, gateway, tokens = build_gateway(
            {"solo": TenantPolicy(name="solo"), "ghost": TenantPolicy(name="ghost")},
        )
        results = gateway.serve(
            [
                (0.0, tokens["solo"], TaskRequest("noop", args=(i,)))
                for i in range(14)
            ]
        )
        assert all(r.admitted and r.ok for r in results)
        # The default 2 x 8 fleet derives 18 slots, 2 in reserve: the
        # solo tenant's outstanding exceeded its 50% share (9) — the
        # fallback released beyond it.
        assert gateway.runtime.items_served == 14

    def test_slot_reserve_keeps_headroom_for_new_tenant(self):
        testbed, gateway, tokens = build_gateway(
            {"hog": TenantPolicy(name="hog"), "late": TenantPolicy(name="late")},
        )
        hog_burst = [
            (0.0, tokens["hog"], TaskRequest("matminer_util", args=sample_input("matminer_util")))
            for _ in range(30)
        ]
        late_one = [(0.010, tokens["late"], TaskRequest("noop", args=(1,)))]
        results = gateway.serve(sorted(hog_burst + late_one, key=lambda a: a[0]))
        late = [r for r in results if r.decision.tenant == "late"]
        assert late[0].admitted and late[0].ok
        # The late arrival was released immediately (reserve headroom),
        # not parked behind the hog's 30-deep burst.
        late_runtime = late[0].runtime_result
        assert late_runtime.enqueued_at - late[0].arrived_at < 1e-9


class TestFairnessUnderSkew:
    def test_10_to_1_skew_protects_the_light_tenant(self):
        testbed, gateway, tokens = build_gateway(
            {"hot": TenantPolicy(name="hot"), "light": TenantPolicy(name="light")},
            n_workers=2,
            max_batch_size=8,
        )
        fixed = sample_input("matminer_util")
        arrivals = sorted(
            requests_at(400.0, 1.0, tokens["hot"], "matminer_util", fixed)
            + requests_at(40.0, 1.0, tokens["light"], "matminer_util", fixed),
            key=lambda a: a[0],
        )
        results = gateway.serve(arrivals)
        assert all(r.admitted and r.ok for r in results)
        lat = {
            tenant: np.array(
                [r.latency for r in results if r.request.tenant == tenant]
            )
            for tenant in ("hot", "light")
        }
        light_p95 = float(np.percentile(lat["light"], 95))
        hot_p95 = float(np.percentile(lat["hot"], 95))
        # The hot tenant eats its own backlog; the light tenant doesn't.
        assert light_p95 < hot_p95 / 3
        # And the light tenant's tail stays in the tens of milliseconds
        # even though the fleet is saturated.
        assert light_p95 < 0.120

    def test_weights_divide_dispatch_bandwidth(self):
        testbed, gateway, tokens = build_gateway(
            {
                "paid": TenantPolicy(name="paid", weight=3.0),
                "free": TenantPolicy(name="free", weight=1.0),
            },
            n_workers=2,
            max_batch_size=4,
        )
        fixed = sample_input("matminer_util")
        arrivals = sorted(
            requests_at(300.0, 1.0, tokens["paid"], "matminer_util", fixed)
            + requests_at(300.0, 1.0, tokens["free"], "matminer_util", fixed),
            key=lambda a: a[0],
        )
        results = gateway.serve(arrivals)
        lat = {
            tenant: np.median(
                [r.latency for r in results if r.request.tenant == tenant]
            )
            for tenant in ("paid", "free")
        }
        # Equal offered load, 3:1 weights: the paid tenant's backlog
        # drains ~3x faster, so its median latency sits well below.
        assert lat["paid"] < 0.6 * lat["free"]


class TestTenantTagging:
    def test_tags_survive_micro_batch_coalescing(self):
        testbed, gateway, tokens = build_gateway(
            {"a": TenantPolicy(name="a"), "b": TenantPolicy(name="b")},
            n_workers=2,
            max_batch_size=8,
        )
        fixed = sample_input("matminer_util")
        arrivals = sorted(
            requests_at(500.0, 0.4, tokens["a"], "matminer_util", fixed)
            + requests_at(500.0, 0.4, tokens["b"], "matminer_util", fixed),
            key=lambda a: a[0],
        )
        results = gateway.serve(arrivals)
        assert all(r.admitted and r.ok for r in results)
        coalesced = [r for r in results if r.runtime_result.batch_size > 1]
        assert coalesced, "the burst must have produced real micro-batches"
        # Every item kept its tenant through batching...
        for result in results:
            assert result.request.tenant == result.decision.tenant
        # ...and lanes are tenant-pure: checking any coalesced batch's
        # members (same worker + completion) agree on tenant.
        by_batch = {}
        for r in results:
            key = (r.runtime_result.worker, r.runtime_result.completed_at)
            by_batch.setdefault(key, set()).add(r.request.tenant)
        assert all(len(tenants) == 1 for tenants in by_batch.values())

    def test_in_flight_ledger_settles_after_serve(self):
        testbed, gateway, tokens = build_gateway(
            {"t": TenantPolicy(name="t", max_in_flight=64)}
        )
        results = gateway.serve(requests_at(200.0, 0.5, tokens["t"]))
        assert all(r.admitted for r in results)
        assert gateway.admission.in_flight("t") == 0
        assert gateway.outstanding == 0
        assert gateway.pending() == 0
        counters = gateway.metrics.counters("t")
        assert counters.admitted == counters.completed == len(results)


class TestServeGuards:
    def test_serve_is_not_reentrant(self):
        testbed, gateway, tokens = build_gateway({"t": TenantPolicy(name="t")})
        gateway._serving = True
        try:
            with pytest.raises(GatewayError):
                gateway.serve([])
        finally:
            gateway._serving = False

    def test_offer_requires_identity_or_token(self):
        testbed, gateway, tokens = build_gateway({"t": TenantPolicy(name="t")})
        with pytest.raises(GatewayError):
            gateway.offer(TaskRequest("noop", args=(1,)))

    def test_batch_requests_must_be_split(self):
        testbed, gateway, tokens = build_gateway({"t": TenantPolicy(name="t")})
        with pytest.raises(GatewayError):
            gateway.offer(
                TaskRequest("noop", batch=[1, 2]),
                identity=testbed._identities["t"],
            )


class TestDrainDeadline:
    """A live budget that shrinks below ``outstanding`` must not suspend
    fairness forever: past ``drain_deadline_s`` the gateway reclaims
    released-but-unclaimed requests back into its WFQ lanes."""

    def _overcommitted_gateway(self, drain_deadline_s=1.0):
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t")},
            n_workers=3,
            max_batch_size=8,
            drain_deadline_s=drain_deadline_s,
        )
        # Fill the releasable budget (a lone tenant never eats the slot
        # reserve): every admitted request is released straight into
        # the runtime queue (nothing is being served yet).
        releasable = gateway.max_dispatch_slots - gateway.slot_reserve
        for i in range(releasable):
            result = gateway.offer(
                TaskRequest("noop", args=(i,)), token=tokens["u"]
            )
            assert result.admitted
        assert gateway.outstanding == releasable
        assert len(gateway.scheduler) == 0
        # Two of three workers drop out: the budget re-derives smaller
        # than what is already outstanding.
        gateway.runtime.mark_down("w1")
        gateway.runtime.mark_down("w2")
        assert gateway.outstanding > gateway.max_dispatch_slots
        return testbed, gateway, tokens

    def test_reclaims_unclaimed_releases_after_deadline(self):
        testbed, gateway, tokens = self._overcommitted_gateway()
        assert gateway.requests_reclaimed == 0
        excess = gateway.outstanding - gateway.max_dispatch_slots
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed == excess
        assert gateway.outstanding == gateway.max_dispatch_slots
        # Reclaimed requests wait in lanes again (still admitted, still
        # counted as pending so the serve loop cannot strand them).
        assert len(gateway.scheduler) == excess
        assert gateway.pending() == excess

    def test_reclaimed_requests_complete_when_capacity_returns(self):
        testbed, gateway, tokens = self._overcommitted_gateway()
        offered = gateway.outstanding
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed > 0
        gateway.runtime.mark_up("w1")
        gateway.runtime.mark_up("w2")
        gateway.runtime.drain()
        counters = gateway.metrics.counters("t")
        assert counters.completed == offered
        assert counters.in_progress == 0
        assert gateway.outstanding == 0

    def test_deadline_not_fired_before_it_lapses(self):
        testbed, gateway, tokens = self._overcommitted_gateway(
            drain_deadline_s=5.0
        )
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed == 0

    def test_next_event_wakes_the_loop_at_the_deadline(self):
        testbed, gateway, tokens = self._overcommitted_gateway()
        armed_at = testbed.clock.now()
        assert gateway.next_event() == pytest.approx(armed_at + 1.0)

    def test_recovery_before_deadline_disarms_the_timer(self):
        testbed, gateway, tokens = self._overcommitted_gateway()
        gateway.runtime.mark_up("w1")
        gateway.runtime.mark_up("w2")
        # Budget is back above outstanding: the timer must clear.
        assert gateway.next_event() == float("inf")
        testbed.clock.advance(5.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed == 0

    def test_validation(self):
        """Must be positive; the deadline is always on, so there is no
        ``None`` = "never reclaim" mode to ask for either."""
        for deadline in (0.0, None):
            with pytest.raises(GatewayError):
                build_gateway(
                    {"u": TenantPolicy(name="t")}, drain_deadline_s=deadline
                )

    def test_reclaimed_requests_keep_their_enqueue_age(self):
        """Re-released reclaimed work must not look freshly arrived to
        the queue-wait metric: the original enqueue timestamp rides
        along, so waits include the over-commit stall."""
        testbed, gateway, tokens = self._overcommitted_gateway()
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed > 0
        gateway.runtime.mark_up("w1")
        gateway.runtime.mark_up("w2")
        gateway.runtime.drain()
        waits = gateway.runtime.stage_metrics.samples("queue_wait", "noop")
        # The reclaimed requests stalled >= 1 s (the drain deadline)
        # before re-release; an un-anchored re-submit would record
        # only the few-ms post-re-release wait.
        assert max(waits) >= 1.0

    def test_reclaim_round_robins_across_tenants(self):
        """No tenant's queue positions are sacrificed wholesale: the
        reclaim sweep takes one request per tenant lane per pass."""
        testbed, gateway, tokens = build_gateway(
            {"a": TenantPolicy(name="ta"), "z": TenantPolicy(name="tz")},
            n_workers=3,
            max_batch_size=8,
            drain_deadline_s=1.0,
        )
        # Alternate offers so both tenants fill their slot shares.
        for i in range(40):
            user = "a" if i % 2 == 0 else "z"
            gateway.offer(TaskRequest("noop", args=(i,)), token=tokens[user])
        before = dict(gateway.scheduler.outstanding_by_tenant)
        assert before["ta"] > 4 and before["tz"] > 4
        gateway.runtime.mark_down("w1")
        gateway.runtime.mark_down("w2")
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed > 0
        after = gateway.scheduler.outstanding_by_tenant
        lost = {t: before[t] - after[t] for t in before}
        # Round-robin: the reclaim burden splits evenly (± one sweep).
        assert abs(lost["ta"] - lost["tz"]) <= 1

    def test_foreign_tail_message_does_not_shield_reclamation(self):
        """A hand-tagged request submitted straight to the runtime sits
        at the lane tail; the reclaim sweep must dig past it instead of
        endlessly re-popping it while gateway releases beneath go
        unreclaimed."""
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t")},
            n_workers=3,
            max_batch_size=8,
            drain_deadline_s=1.0,
        )
        releasable = gateway.max_dispatch_slots - gateway.slot_reserve
        for i in range(releasable):
            assert gateway.offer(
                TaskRequest("noop", args=(i,)), token=tokens["u"]
            ).admitted
        # Foreign request on the same tenant lane, newest position.
        foreign = TaskRequest("noop", args=("foreign",))
        foreign.tenant = "t"
        gateway.runtime.submit(foreign)
        gateway.runtime.mark_down("w1")
        gateway.runtime.mark_down("w2")
        excess = gateway.outstanding - gateway.max_dispatch_slots
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        # Full reclamation despite the foreign shield...
        assert gateway.requests_reclaimed == excess
        assert gateway.outstanding == gateway.max_dispatch_slots
        # ...and the foreign message survives untouched in the queue.
        from repro.messaging.queue import servable_topic

        lane = servable_topic("noop", lane="tenant-t")
        bodies = [
            m.body.args
            for m in gateway.runtime.queue._ready[lane]
        ]
        assert ("foreign",) in bodies

    def test_reclaimed_requests_rerelease_before_younger_lane_mates(self):
        """Per-tenant FIFO survives reclamation: taken-back releases go
        to the *front* of the lane, ahead of requests admitted later."""
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t")},
            n_workers=3,
            max_batch_size=8,
            drain_deadline_s=1.0,
        )
        releasable = gateway.max_dispatch_slots - gateway.slot_reserve
        # Fill the releasable budget, then three younger lane-queued.
        for i in range(releasable + 3):
            assert gateway.offer(
                TaskRequest("noop", args=(i,)), token=tokens["u"]
            ).admitted
        gateway.runtime.mark_down("w1")
        gateway.runtime.mark_down("w2")
        excess = gateway.outstanding - gateway.max_dispatch_slots
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed == excess
        lane = [entry.item.args[0] for entry in gateway.scheduler._lanes["t"]]
        # Reclaimed (older, previously released) requests sit ahead of
        # the three younger lane-queued ones, in FIFO order.
        assert lane == sorted(lane)
        assert lane[-3:] == [releasable, releasable + 1, releasable + 2]
        assert all(i < releasable for i in lane[:-3])


class TestReactiveAdmissionTightening:
    def test_tighten_caps_one_tenant_relax_restores(self):
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t"), "v": TenantPolicy(name="other")}
        )
        gateway.tighten_admission("t", 40.0)
        assert gateway.admission_override("t") == 40.0
        assert gateway.admission_override("other") is None
        # 40 rps cap, quarter-second burst: 10 of 30 instant arrivals
        # pass; the untouched tenant takes no collateral damage.
        capped = gateway.serve(
            [(0.0, tokens["u"], TaskRequest("noop", args=(i,)))
             for i in range(30)]
            + [(0.0, tokens["v"], TaskRequest("noop", args=(i,)))
               for i in range(5)]
        )
        by_tenant = {"t": [], "other": []}
        for result in capped:
            by_tenant[result.decision.tenant].append(result.admitted)
        assert sum(by_tenant["t"]) == 10
        assert all(by_tenant["other"])
        rejected = [
            r.decision for r in capped if not r.admitted
        ]
        assert all(
            d.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
            for d in rejected
        )
        assert gateway.relax_admission("t") is True
        assert gateway.relax_admission("t") is False
        assert gateway.admission_override("t") is None
        again = gateway.serve(
            [(0.0, tokens["u"], TaskRequest("noop", args=(i,)))
             for i in range(5)]
        )
        assert all(r.admitted for r in again)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ServingGateway(None, None, None, max_dispatch_slots=4),
        lambda: DLHubTestbed.enable_gateway(None, slot_reserve=1),
        lambda: ChaosHarness(
            clock=None, auth=None, policies=None, workers=(), placements=(),
            store=None, max_deliveries=3,
        ),
        lambda: ManagementService(None, None, None, None, memoize=True),
    ],
    ids=["pinned-budget", "pinned-reserve", "harness-redelivery", "ms-cache"],
)
def test_options_nothing_passed_are_gone(call):
    """The slot budget is live, the harness uses the queue's redelivery
    defaults and the Management Service keeps no result cache: the
    arguments that said otherwise are not accepted."""
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()
