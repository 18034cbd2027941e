"""Trace propagation through the gateway's hostile paths.

The happy path (admission -> lane_wait -> runtime stages -> settle) is
covered by the fairness bench's telemetry arm; these tests pin the
paths that historically lose context: over-commit reclaims that pull a
released request back out of the runtime queue (withdraw_newest /
restore / requeue_front), re-release after recovery, and admission
denials that never settle at all. In every case the request must end
the run with one finished, well-nested span tree.
"""

import pytest

from repro.core.pipeline import Pipeline
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.telemetry import Tracer
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.durability import FaultInjector
from tests.gateway.test_gateway import build_gateway

from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable


def _overcommitted_traced_gateway(sample_rate=1.0):
    """The drain-deadline recipe from test_gateway, with a tracer on."""
    tracer = Tracer(sample_rate=sample_rate, slow_threshold_s=None)
    testbed, gateway, tokens = build_gateway(
        {"u": TenantPolicy(name="t")},
        n_workers=3,
        max_batch_size=8,
        drain_deadline_s=1.0,
        tracer=tracer,
    )
    releasable = gateway.max_dispatch_slots - gateway.slot_reserve
    for i in range(releasable):
        assert gateway.offer(
            TaskRequest("noop", args=(i,)), token=tokens["u"]
        ).admitted
    assert gateway.outstanding == releasable
    # Two of three workers drop out: the budget re-derives below what
    # is already outstanding, arming the drain deadline.
    gateway.runtime.mark_down("w1")
    gateway.runtime.mark_down("w2")
    assert gateway.outstanding > gateway.max_dispatch_slots
    return testbed, gateway, tokens, tracer


class TestReclaimPropagation:
    def test_reclaim_marks_the_trace_in_place(self):
        testbed, gateway, tokens, tracer = _overcommitted_traced_gateway()
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed > 0
        marked = [
            result.request.trace
            for result in gateway._open.values()
            if any(m[0] == "reclaim" for m in result.request.trace.marks)
        ]
        assert len(marked) == gateway.requests_reclaimed
        for trace in marked:
            # The reclaim is a point annotation, not a span, and it
            # carries enough context to read the waterfall alone.
            ((name, at, attrs),) = [
                m for m in trace.marks if m[0] == "reclaim"
            ]
            assert at == testbed.clock.now()
            assert attrs == {"tenant": "t", "servable": "noop"}
            # Reclaim closed the first lane stay's span already; the
            # trace itself is still open (the request will settle).
            assert not trace.finished
            assert len(trace.stages("lane_wait")) == 1

    def test_reclaimed_requests_settle_with_complete_trees(self):
        testbed, gateway, tokens, tracer = _overcommitted_traced_gateway()
        offered = gateway.outstanding
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        reclaimed = gateway.requests_reclaimed
        assert reclaimed > 0
        gateway.runtime.mark_up("w1")
        gateway.runtime.mark_up("w2")
        gateway.runtime.drain()
        assert gateway.outstanding == 0
        # 100% sampling: every admitted request's trace was retained,
        # finished, and is complete + well-nested despite the reclaim
        # round trip (withdraw_newest -> requeue_front -> re-release).
        assert len(tracer.retained) == offered
        twice_waited = 0
        for trace in tracer.retained:
            assert trace.finished and not trace.error
            assert trace.missing_stages(gateway=True) == set()
            assert trace.well_formed()
            lane_waits = trace.stages("lane_wait")
            assert len(lane_waits) in (1, 2)
            twice_waited += len(lane_waits) == 2
        # Each reclaimed request waited in its WFQ lane twice: once at
        # admission, once between reclaim and re-release.
        assert twice_waited == reclaimed

    def test_reclaimed_trace_keeps_its_enqueue_age(self):
        """The dispatch_window span of a reclaimed request spans the
        over-commit stall: it anchors at the *original* release, not
        the re-release (mirrors the queue-wait metric guarantee)."""
        testbed, gateway, tokens, tracer = _overcommitted_traced_gateway()
        armed_at = testbed.clock.now()
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed > 0
        gateway.runtime.mark_up("w1")
        gateway.runtime.mark_up("w2")
        gateway.runtime.drain()
        reclaimed_traces = [
            t
            for t in tracer.retained
            if any(m[0] == "reclaim" for m in t.marks)
        ]
        assert reclaimed_traces
        for trace in reclaimed_traces:
            (window,) = trace.stages("dispatch_window")
            # Released before the workers went down, claimed after the
            # >= 1 s drain-deadline stall.
            assert window.start <= armed_at
            assert window.duration >= 1.0
            # And the second lane stay starts at the reclaim mark.
            ((_, reclaim_at, _),) = [
                m for m in trace.marks if m[0] == "reclaim"
            ]
            second_stay = trace.stages("lane_wait")[1]
            assert second_stay.start == reclaim_at

    def test_second_lane_wait_even_when_unsampled(self):
        """Span recording is retention-independent: an unsampled trace
        opened by the gateway still accumulates both lane stays (it
        just gets dropped at finish)."""
        testbed, gateway, tokens, tracer = _overcommitted_traced_gateway(
            sample_rate=0.0
        )
        testbed.clock.advance(1.0)
        gateway.on_tick(testbed.clock.now())
        assert gateway.requests_reclaimed > 0
        gateway.runtime.mark_up("w1")
        gateway.runtime.mark_up("w2")
        results = {
            uuid: result.request for uuid, result in gateway._open.items()
        }
        gateway.runtime.drain()
        assert len(tracer.retained) == 0  # nothing sampled, nothing slow
        assert tracer.dropped == len(results)
        twice = [
            r
            for r in results.values()
            if len(r.trace.stages("lane_wait")) == 2
        ]
        assert len(twice) > 0
        for request in twice:
            assert request.trace.well_formed()


class TestDenialTraces:
    def test_denied_request_closes_as_error_trace(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t", rate_limit_rps=1.0, burst=1)},
            tracer=tracer,
        )
        first = gateway.offer(TaskRequest("noop", args=(1,)), token=tokens["u"])
        assert first.admitted
        denied = gateway.offer(TaskRequest("noop", args=(2,)), token=tokens["u"])
        assert not denied.admitted
        trace = denied.request.trace
        assert trace.finished and trace.error
        (admission,) = trace.stages("admission")
        assert admission.status == "error"
        assert admission.attrs["outcome"] == denied.decision.outcome.value
        # Tail-keep: even at 0% head sampling the denial is retained.
        assert trace in tracer.retained
        assert tracer.kept_tail >= 1

    def test_auth_failure_traced_without_tenant(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t")}, tracer=tracer
        )
        rejected = gateway.offer(
            TaskRequest("noop", args=(1,)), token="not-a-token"
        )
        assert not rejected.admitted
        trace = rejected.request.trace
        assert trace.finished and trace.error
        assert trace.tenant is None
        assert trace in tracer.retained

    def test_denials_never_leak_open_traces(self):
        """A burst past max_queued sheds; every shed request's trace is
        closed (no unfinished traces dangling off the tracer)."""
        tracer = Tracer(sample_rate=1.0, slow_threshold_s=None)
        testbed, gateway, tokens = build_gateway(
            {"u": TenantPolicy(name="t", max_queued=2)},
            # 2 slots, 1 in reserve: one releasable slot, so the lane fills.
            n_workers=1,
            max_batch_size=1,
            tracer=tracer,
        )
        results = [
            gateway.offer(TaskRequest("noop", args=(i,)), token=tokens["u"])
            for i in range(10)
        ]
        shed = [r for r in results if not r.admitted]
        assert shed
        for result in shed:
            assert result.request.trace.finished
            assert result.request.trace.error
        assert tracer.finished == len(shed)
        # Admitted requests' traces stay open until settlement.
        for result in results:
            if result.admitted:
                assert not result.request.trace.finished


class TestGatewayTracerWiring:
    def test_gateway_inherits_runtime_tracer(self):
        """One attach point: a tracer on the runtime traces the whole
        gateway path without being passed twice."""
        from repro.core.runtime import ServingRuntime
        from repro.core.testbed import build_testbed
        from repro.core.zoo import build_zoo
        from repro.gateway import ServingGateway, TenantPolicyTable

        testbed = build_testbed(jitter=False, memoize_tm=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        tracer = Tracer(sample_rate=1.0)
        runtime = ServingRuntime(
            testbed.clock,
            testbed.management.queue,
            [testbed.add_fleet_worker("w0")],
            max_batch_size=4,
            max_coalesce_delay_s=0.005,
            tracer=tracer,
        )
        published = testbed.management.publish(testbed.token, zoo["noop"])
        runtime.place(zoo["noop"], published.build.image)
        policies = TenantPolicyTable()
        policies.register(TenantPolicy(name="t"))
        identity, token = testbed.new_user("u")
        policies.bind_identity(identity, "t")
        gateway = ServingGateway(testbed.auth, runtime, policies)
        assert gateway.tracer is tracer
        results = gateway.serve(
            [(0.0, token, TaskRequest("noop", args=(1,)))]
        )
        assert results[0].admitted
        (trace,) = tracer.retained
        assert trace.missing_stages(gateway=True) == set()
        assert trace.well_formed()


class TestSyncPathsEnterThroughTheSameDoor:
    def test_batch_items_and_chain_steps_are_traced_and_injectable(self):
        """A pre-split batch and a pipeline chain enter like any arrival:
        every item and step gets a trace with its ``admission`` and
        ``lane_wait`` spans and passes the ``post_admission`` point."""
        tracer = Tracer(sample_rate=1.0, slow_threshold_s=None)
        testbed = build_testbed(jitter=False, memoize_tm=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        policies = TenantPolicyTable()
        policies.register(TenantPolicy(name="public"))
        policies.set_default("public")
        workers = [testbed.add_fleet_worker(f"w{i}") for i in range(2)]
        runtime = ServingRuntime(
            testbed.clock, testbed.management.queue, workers, tracer=tracer
        )
        steps = ("matminer_util", "matminer_featurize", "matminer_model")
        for name in steps:
            published = testbed.management.publish(testbed.token, zoo[name])
            runtime.place(zoo[name], published.build.image)
        gateway = ServingGateway(testbed.auth, runtime, policies)
        gateway.chaos = injector = FaultInjector(testbed.clock)
        management = testbed.management
        management.attach_gateway(gateway)
        pipeline = Pipeline("enthalpy")
        for name in steps:
            pipeline.add_step(name)
        management.register_pipeline(testbed.token, pipeline)

        assert management.run_batch(testbed.token, "matminer_util", ["NaCl"] * 3).ok
        assert management.run_pipeline(testbed.token, "enthalpy", "NaCl").ok

        assert len(tracer.retained) == 6
        for trace in tracer.retained:
            assert trace.finished and not trace.error
            assert trace.missing_stages(gateway=True) == set()
            assert trace.well_formed()
            assert trace.tenant == "public"
            (admission,) = trace.stages("admission")
            assert admission.start == trace.start
            assert admission.attrs["outcome"] == "admitted"
        assert injector.trip_counts["post_admission"] == 6
        assert injector.crashes_fired == 0
