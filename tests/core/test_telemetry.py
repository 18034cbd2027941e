"""Unit tests for the telemetry module: tracer sampling/retention,
span-tree geometry, hostile settlement paths (partial chunk failure,
memo hits, dead letters), the SLO burn monitor, and the hub."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import ObsLoopError
from repro.core.tasks import TaskRequest
from repro.core.telemetry import (
    MemberRecord,
    SLOBurnMonitor,
    TelemetryError,
    TelemetryHub,
    Trace,
    Tracer,
    build_hub,
)
from repro.core.zoo import build_zoo, sample_input


def _request(i=0):
    return TaskRequest("noop", args=(i,))


def _member(**overrides):
    """A plausible settled batch member, overridable per test."""
    base = dict(
        enqueued_at=1.0,
        claimed_at=1.005,
        head_enqueued=1.0,
        dispatch_start=1.005,
        infer_start=1.006,
        infer_end=1.05,
        completed_at=1.05,
        settle_end=1.051,
        seq=7,
        batch_size=3,
        worker="w0",
        pod="w0/noop-0",
        batch_inference_s=0.044,
        status="ok",
        error=None,
        cache=False,
    )
    base.update(overrides)
    return MemberRecord(**base)


class TestHeadSampling:
    def test_error_diffusion_keeps_exactly_floor_n_rate(self):
        tracer = Tracer(sample_rate=0.25, slow_threshold_s=None)
        for i in range(103):
            trace = tracer.begin(_request(i), at=float(i))
            tracer.finish(trace, at=float(i) + 0.001)
        assert tracer.kept_sampled == int(103 * 0.25)
        assert tracer.dropped == 103 - tracer.kept_sampled
        assert len(tracer.retained) == tracer.kept_sampled

    def test_sampling_is_evenly_spaced_not_bursty(self):
        tracer = Tracer(sample_rate=0.25, slow_threshold_s=None)
        flags = []
        for i in range(16):
            trace = tracer.begin(_request(i), at=0.0)
            flags.append(trace.sampled)
            tracer.finish(trace, at=0.0)
        # Exactly every fourth request, deterministically.
        assert flags == [False, False, False, True] * 4

    def test_rate_edges(self):
        all_on = Tracer(sample_rate=1.0, slow_threshold_s=None)
        all_off = Tracer(sample_rate=0.0, slow_threshold_s=None)
        for i in range(10):
            tracer_on = all_on.begin(_request(i), at=0.0)
            all_on.finish(tracer_on, at=0.0)
            tracer_off = all_off.begin(_request(i), at=0.0)
            all_off.finish(tracer_off, at=0.0)
        assert all_on.kept_sampled == 10
        assert all_off.kept_sampled == 0 and all_off.dropped == 10

    def test_begin_is_idempotent_per_request(self):
        """A reclaimed/re-submitted request keeps its trace (and burns
        no extra sampling budget)."""
        tracer = Tracer(sample_rate=1.0)
        request = _request()
        first = tracer.begin(request, at=0.0)
        again = tracer.begin(request, at=5.0)
        assert again is first
        assert tracer.started == 1

    def test_validation(self):
        with pytest.raises(TelemetryError):
            Tracer(sample_rate=1.5)
        with pytest.raises(TelemetryError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(TelemetryError):
            Tracer(slow_threshold_s=-1.0)
        with pytest.raises(TelemetryError):
            Tracer(max_retained=0)


class TestTailKeep:
    def test_errors_survive_zero_sampling(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        trace = tracer.begin(_request(), at=0.0)
        tracer.finish(trace, at=0.1, error=True)
        assert tracer.kept_tail == 1
        assert list(tracer.retained) == [trace]

    def test_error_spans_taint_the_trace(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        trace = tracer.begin(_request(), at=0.0)
        trace.span("inference", 0.0, 0.1, status="error", error="boom")
        tracer.finish(trace, at=0.1)  # no explicit error flag
        assert trace.error
        assert tracer.kept_tail == 1

    def test_slow_requests_survive_zero_sampling(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=0.5)
        fast = tracer.begin(_request(0), at=0.0)
        tracer.finish(fast, at=0.4)
        slow = tracer.begin(_request(1), at=1.0)
        tracer.finish(slow, at=1.6)
        assert tracer.dropped == 1 and tracer.kept_tail == 1
        assert list(tracer.retained) == [slow]

    def test_none_threshold_disables_the_slow_path(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        trace = tracer.begin(_request(), at=0.0)
        tracer.finish(trace, at=1e9)
        assert tracer.dropped == 1 and len(tracer.retained) == 0

    def test_retained_ring_evicts_oldest(self):
        tracer = Tracer(sample_rate=1.0, max_retained=3)
        traces = []
        for i in range(5):
            trace = tracer.begin(_request(i), at=float(i))
            tracer.finish(trace, at=float(i))
            traces.append(trace)
        assert list(tracer.retained) == traces[2:]
        assert tracer.kept_sampled == 5  # counters are lifetime

    def test_finish_is_idempotent(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.begin(_request(), at=0.0)
        tracer.finish(trace, at=1.0)
        tracer.finish(trace, at=2.0)
        assert trace.end == 1.0
        assert tracer.finished == 1 and len(tracer.retained) == 1


class TestSettlementPaths:
    def test_settle_member_and_settle_request_build_identical_trees(self):
        member = _member()
        eager = Tracer(sample_rate=1.0)
        request_a = _request()
        trace_a = eager.begin(request_a, at=member.enqueued_at)
        eager.settle_member(trace_a, member)

        lazy = Tracer(sample_rate=1.0)
        request_b = _request()
        lazy.settle_request(request_b, member)
        trace_b = request_b.trace

        def shape(trace):
            return [
                (s.name, s.start, s.end, s.status, s.attrs)
                for s in sorted(trace.spans, key=lambda s: (s.start, s.name))
            ]

        assert shape(trace_a) == shape(trace_b)
        assert trace_a.start == trace_b.start
        assert trace_a.end == trace_b.end
        assert trace_a.well_formed() and trace_b.well_formed()

    def test_settle_request_drops_without_allocating_a_trace(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        request = _request()
        tracer.settle_request(request, _member())
        assert request.trace is None
        assert tracer.dropped == 1 and tracer.started == 1

    def test_settle_request_keeps_failures(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        request = _request()
        tracer.settle_request(
            request, _member(status="error", error="boom")
        )
        assert request.trace is not None
        assert request.trace.error
        assert tracer.kept_tail == 1

    def test_settle_member_records_failure_as_error_inference_span(self):
        tracer = Tracer(sample_rate=1.0)
        member = _member(status="error", error="pod crashed")
        request = _request()
        trace = tracer.begin(request, at=member.enqueued_at)
        tracer.settle_member(trace, member)
        (inference,) = trace.stages("inference")
        assert inference.status == "error"
        assert inference.attrs["error"] == "pod crashed"
        assert trace.error and trace.finished

    def test_memo_hit_gets_cache_span_instead_of_inference(self):
        tracer = Tracer(sample_rate=1.0)
        member = _member(cache=True)
        request = _request()
        trace = tracer.begin(request, at=member.enqueued_at)
        tracer.settle_member(trace, member)
        assert trace.stages("inference") == []
        (cache,) = trace.stages("cache")
        assert cache.duration == 0.0
        # cache satisfies the inference requirement.
        assert trace.missing_stages() == set()


class TestSpanGeometry:
    def test_coalesce_clamps_to_the_member_but_keeps_the_window(self):
        """A non-head member joins a window that opened before it
        existed: the span clamps to the member's own life (the tree
        stays well-nested) while ``window_s`` carries the full window
        for reconciliation."""
        tracer = Tracer(sample_rate=1.0)
        member = _member(head_enqueued=0.9, enqueued_at=1.0)
        request = _request()
        trace = tracer.begin(request, at=member.enqueued_at)
        tracer.settle_member(trace, member)
        (coalesce,) = trace.stages("coalesce")
        assert coalesce.start == 1.0  # not 0.9: clamped to the member
        assert coalesce.attrs["window_s"] == pytest.approx(
            member.claimed_at - 0.9
        )
        assert trace.well_formed()

    def test_head_member_coalesce_spans_the_whole_window(self):
        tracer = Tracer(sample_rate=1.0)
        member = _member()  # head_enqueued == enqueued_at
        request = _request()
        trace = tracer.begin(request, at=member.enqueued_at)
        tracer.settle_member(trace, member)
        (coalesce,) = trace.stages("coalesce")
        assert coalesce.duration == pytest.approx(coalesce.attrs["window_s"])

    def test_missing_stages_flags_gateway_stages_only_when_asked(self):
        tracer = Tracer(sample_rate=1.0)
        request = _request()
        trace = tracer.begin(request, at=1.0)
        tracer.settle_member(trace, _member())
        assert trace.missing_stages() == set()
        assert trace.missing_stages(gateway=True) == {
            "admission",
            "lane_wait",
        }

    def test_well_formed_requires_finish_and_containment(self):
        trace = Trace("id", "noop", start=1.0, sampled=True)
        trace.span("settle", 1.0, 1.1)
        assert not trace.well_formed()  # unfinished
        trace.finish(at=1.1)
        assert trace.well_formed()
        escaping = Trace("id2", "noop", start=1.0, sampled=True)
        escaping.span("settle", 0.5, 1.1)  # starts before the root
        escaping.finish(at=1.1)
        assert not escaping.well_formed()

    def test_tree_is_json_able_and_ordered(self):
        tracer = Tracer(sample_rate=1.0)
        request = _request()
        trace = tracer.begin(request, at=1.0, tenant="t")
        trace.mark("reclaim", at=1.2, tenant="t")
        tracer.settle_member(trace, _member())
        tree = json.loads(json.dumps(trace.tree()))
        starts = [child["start"] for child in tree["children"]]
        assert starts == sorted(starts)
        assert tree["marks"] == [
            {"name": "reclaim", "at": 1.2, "attrs": {"tenant": "t"}}
        ]


@pytest.fixture()
def env():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    return testbed, zoo


def _traced_runtime(testbed, zoo, tracer, replicas=2):
    from repro.core.runtime import ServingRuntime

    worker = testbed.add_fleet_worker("rw-0")
    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        [worker],
        max_batch_size=4,
        max_coalesce_delay_s=0.002,
        tracer=tracer,
    )
    published = testbed.management.publish(testbed.token, zoo["noop"])
    runtime.place(zoo["noop"], published.build.image, replicas=replicas)
    return runtime, worker


class TestHostileSettlements:
    def test_partial_chunk_failure_tail_keeps_only_the_victims(self, env):
        """One pod dies mid-batch: the failed members' traces survive
        0% head sampling with error inference spans; the memo hit and
        the surviving chunk drop as uninteresting."""
        testbed, zoo = env
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        runtime, worker = _traced_runtime(testbed, zoo, tracer)
        worker.memoize = True
        warm = runtime.serve([(0.0, TaskRequest("noop", args=("warm",)))])
        assert warm[0].result.ok

        pool = worker.executors["parsl"]._pools["noop"]
        victim = sorted(pool.pods, key=lambda p: (p.busy_until, p.name))[0]

        def explode(*args, **kwargs):
            raise RuntimeError("pod crashed mid-chunk")

        victim.exec = explode
        requests = [
            TaskRequest("noop", args=("warm",)),
            TaskRequest("noop", args=("m1",)),
            TaskRequest("noop", args=("m2",)),
            TaskRequest("noop", args=("m3",)),
        ]
        results = runtime.serve([(0.0, r) for r in requests])
        failed = [r for r in results if not r.result.ok]
        assert failed, "expected a partial chunk failure"
        assert len(tracer.retained) == len(failed)
        for trace in tracer.retained:
            assert trace.error and trace.finished
            assert trace.well_formed()
            assert trace.missing_stages() == set()
            (inference,) = trace.stages("inference")
            assert inference.status == "error"
            assert "pod crashed" in inference.attrs["error"]
        # Everything that went fine was dropped, not retained.
        assert tracer.dropped == 1 + len(results) - len(failed)

    def test_memo_hit_settles_with_cache_span_end_to_end(self, env):
        testbed, zoo = env
        tracer = Tracer(sample_rate=1.0)
        runtime, worker = _traced_runtime(testbed, zoo, tracer)
        worker.memoize = True
        runtime.serve([(0.0, TaskRequest("noop", args=("warm",)))])
        (result,) = runtime.serve(
            [(0.0, TaskRequest("noop", args=("warm",)))]
        )
        assert result.result.cache_hit
        hit_trace = tracer.retained[-1]
        assert hit_trace.stages("cache") and not hit_trace.stages("inference")
        assert hit_trace.missing_stages() == set()
        assert hit_trace.well_formed()

    def test_dead_letter_closes_the_trace_as_an_error(self, env):
        """A message that exhausts redelivery never settles; the queue's
        dead-letter feed must still close (and tail-keep) its trace."""
        from repro.messaging.queue import servable_topic

        testbed, zoo = env
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        runtime, worker = _traced_runtime(testbed, zoo, tracer)
        request = TaskRequest("noop", args=(1,))
        runtime.submit(request)
        queue = testbed.management.queue
        message = queue.claim(servable_topic("noop"))
        queue.nack(message.delivery_tag, requeue=False)
        assert queue.dead_letters
        (trace,) = tracer.retained
        assert trace.trace_id == request.task_uuid
        assert trace.finished and trace.error
        ((name, _, attrs),) = trace.marks
        assert name == "dead_letter"
        assert attrs["deliveries"] == 1


class TestSLOBurnMonitor:
    def _monitor(self, **overrides):
        kwargs = dict(
            latency_slo_s=0.1,
            objective=0.99,
            window_s=1.0,
            burn_threshold=4.0,
            min_samples=5,
            cooldown_s=1.0,
        )
        kwargs.update(overrides)
        return SLOBurnMonitor(**kwargs)

    def test_burn_rate_is_bad_fraction_over_error_budget(self):
        monitor = self._monitor()
        for i in range(10):
            monitor.record("t", at=1.0, latency_s=0.2 if i < 5 else 0.01)
        # 50% bad over a 1% budget: burn 50x.
        assert monitor.burn_rate("t", now=1.0) == pytest.approx(50.0)

    def test_failures_count_as_bad_regardless_of_latency(self):
        monitor = self._monitor()
        for _ in range(5):
            monitor.record("t", at=1.0, latency_s=0.01, ok=False)
        assert monitor.burn_rate("t", now=1.0) == pytest.approx(100.0)

    def test_below_min_samples_is_trustless(self):
        monitor = self._monitor()
        for _ in range(4):
            monitor.record("t", at=1.0, latency_s=0.5)
        assert monitor.burn_rate("t", now=1.0) is None
        assert monitor.check(now=1.0) == []
        assert monitor.burn_rate("unknown", now=1.0) is None

    def test_check_fires_once_per_cooldown(self):
        monitor = self._monitor()
        for _ in range(10):
            monitor.record("t", at=1.0, latency_s=0.5)
        first = monitor.check(now=1.0)
        assert len(first) == 1
        breach = first[0]
        assert breach.tenant == "t" and breach.burn_rate >= 4.0
        assert breach.bad_fraction == pytest.approx(1.0)
        # Still burning, but inside the cooldown: silent.
        assert monitor.check(now=1.5) == []
        # Keep the window populated past the cooldown: fires again.
        for _ in range(10):
            monitor.record("t", at=2.0, latency_s=0.5)
        assert len(monitor.check(now=2.0)) == 1
        assert len(monitor.breaches) == 2

    def test_window_slides_old_badness_out(self):
        monitor = self._monitor(cooldown_s=0.0)
        for _ in range(10):
            monitor.record("t", at=0.0, latency_s=0.5)
        assert monitor.check(now=0.5)
        # 2 s later the bad samples are out of window entirely.
        assert monitor.burn_rate("t", now=2.0) is None
        assert monitor.check(now=2.0) == []

    def test_drain_returns_only_fresh_breaches(self):
        monitor = self._monitor(cooldown_s=0.0)
        for _ in range(10):
            monitor.record("t", at=1.0, latency_s=0.5)
        monitor.check(now=1.0)
        assert len(monitor.drain()) == 1
        assert monitor.drain() == []
        for _ in range(10):
            monitor.record("t", at=2.0, latency_s=0.5)
        monitor.check(now=2.0)
        assert len(monitor.drain()) == 1

    def test_tenants_lists_everyone_recorded_sorted(self):
        monitor = self._monitor()
        assert monitor.tenants() == ()
        monitor.record("beta", at=0.0, latency_s=0.01)
        monitor.record("alpha", at=0.0, latency_s=0.01)
        assert monitor.tenants() == ("alpha", "beta")

    def test_settlements_must_not_go_back_in_time(self):
        """The store's non-decreasing check guards each tenant's series;
        another tenant's series is its own."""
        monitor = self._monitor()
        monitor.record("t", at=2.0, latency_s=0.01)
        monitor.record("t", at=2.0, latency_s=0.5)  # same instant is fine
        monitor.record("u", at=1.0, latency_s=0.01)
        with pytest.raises(ObsLoopError, match="before"):
            monitor.record("t", at=1.9, latency_s=0.01)

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "check"]),
                st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.7, 1.5]),
                st.floats(0.0, 0.3),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        ),
        window_s=st.sampled_from([0.25, 1.0, 2.0]),
        min_samples=st.integers(1, 8),
        cooldown_s=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_burn_and_check_match_a_brute_force_recount(
        self, steps, window_s, min_samples, cooldown_s
    ):
        """Over a random non-decreasing settlement stream, every burn
        rate and every breach is what recounting the whole history over
        ``[now - window_s, now]`` gives."""
        monitor = self._monitor(
            window_s=window_s, min_samples=min_samples, cooldown_s=cooldown_s
        )
        history = {"a": [], "b": []}
        last_fired = {}
        now = 0.0

        def recount(tenant):
            seen = [bad for at, bad in history[tenant] if at >= now - window_s]
            if len(seen) < min_samples:
                return None, len(seen)
            return sum(seen) / len(seen) / (1.0 - monitor.objective), len(seen)

        for who, gap, latency, ok in steps:
            now += gap
            if who != "check":
                monitor.record(who, at=now, latency_s=latency, ok=ok)
                history[who].append((now, (not ok) or latency > monitor.latency_slo_s))
                continue
            expected = []
            for tenant in sorted(t for t in history if history[t]):
                burn, samples = recount(tenant)
                assert monitor.burn_rate(tenant, now) == burn
                if now - last_fired.get(tenant, -math.inf) < cooldown_s:
                    continue
                if burn is not None and burn >= monitor.burn_threshold:
                    last_fired[tenant] = now
                    expected.append((tenant, burn, samples))
            fired = monitor.check(now)
            assert [(b.tenant, b.burn_rate, b.samples) for b in fired] == expected

    def test_validation(self):
        for bad in (
            dict(latency_slo_s=0.0),
            dict(objective=1.0),
            dict(objective=0.0),
            dict(window_s=0.0),
            dict(burn_threshold=0.0),
            dict(min_samples=0),
            dict(cooldown_s=-1.0),
        ):
            with pytest.raises(TelemetryError):
                SLOBurnMonitor(**bad)


class TestTelemetryHub:
    def test_sources_pull_fresh_on_every_snapshot(self):
        hub = TelemetryHub()
        state = {"n": 0}
        hub.register_source("live", lambda: state["n"])
        assert hub.snapshot()["sources"]["live"] == 0
        state["n"] = 5
        assert hub.snapshot()["sources"]["live"] == 5
        with pytest.raises(TelemetryError):
            hub.register_source("bad", 42)

    def test_build_hub_wires_whatever_exists(self):
        tracer = Tracer(sample_rate=1.0)
        monitor = SLOBurnMonitor(min_samples=1)
        hub = build_hub(tracer=tracer, monitor=monitor)
        sources = hub.snapshot()["sources"]
        assert set(sources) == {"tracer", "slo_burn"}
        assert sources["tracer"]["sample_rate"] == 1.0
        assert sources["slo_burn"] == {"count": 0}
        monitor.record("hot", at=0.0, latency_s=9.0)
        monitor.check(now=0.0)
        assert hub.snapshot()["sources"]["slo_burn"] == {"count": 1}


class TestChromeExport:
    def test_export_covers_spans_and_marks(self, env):
        testbed, zoo = env
        tracer = Tracer(sample_rate=1.0)
        runtime, _ = _traced_runtime(testbed, zoo, tracer)
        sample = sample_input("noop")
        runtime.serve(
            [(i * 0.001, TaskRequest("noop", args=sample)) for i in range(4)]
        )
        retained = list(tracer.retained)
        retained[0].mark("reclaim", at=retained[0].start, tenant="t")
        doc = tracer.chrome_trace()
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        # One root per trace + five stage spans each, one mark.
        assert len(complete) == len(retained) * 6
        assert len(instants) == 1 and instants[0]["name"] == "reclaim"
        # Each trace renders on its own waterfall row.
        assert {e["tid"] for e in events} == set(
            range(1, len(retained) + 1)
        )
        for event in complete:
            assert event["dur"] >= 0 and event["ts"] >= 0
        # Timestamps are microseconds of virtual time.
        root = complete[0]
        assert root["ts"] == pytest.approx(retained[0].start * 1e6)
        json.loads(tracer.chrome_trace_json())


class TestTenantSamplingOverrides:
    def test_override_applies_to_the_owning_tenant_only(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        tracer.set_tenant_rate("hot", 1.0)
        for i in range(4):
            trace = tracer.begin(_request(i), at=0.0, tenant="hot")
            tracer.finish(trace, at=0.0)
        for i in range(4, 8):
            trace = tracer.begin(_request(i), at=0.0, tenant="cold")
            tracer.finish(trace, at=0.0)
        # Every hot request kept, every cold one dropped at rate 0.
        assert tracer.kept_sampled == 4
        assert tracer.dropped == 4

    def test_override_does_not_perturb_base_diffusion(self):
        """The override owns a dedicated accumulator: the shared
        error-diffusion cadence is bit-for-bit what it is without any
        override installed."""
        tracer = Tracer(sample_rate=0.25, slow_threshold_s=None)
        tracer.set_tenant_rate("hot", 1.0)
        flags = []
        for i in range(16):
            hot = tracer.begin(_request(2 * i), at=0.0, tenant="hot")
            tracer.finish(hot, at=0.0)
            base = tracer.begin(_request(2 * i + 1), at=0.0, tenant="base")
            flags.append(base.sampled)
            tracer.finish(base, at=0.0)
        assert flags == [False, False, False, True] * 4

    def test_set_clear_and_effective_rate(self):
        tracer = Tracer(sample_rate=0.01)
        tracer.set_tenant_rate("hot", 0.5)
        assert tracer.effective_rate("hot") == 0.5
        assert tracer.effective_rate("cold") == 0.01
        assert tracer.tenant_rates == {"hot": 0.5}
        tracer.clear_tenant_rate("hot")
        assert tracer.effective_rate("hot") == 0.01
        assert tracer.tenant_rates == {}
        with pytest.raises(TelemetryError):
            tracer.set_tenant_rate("hot", 1.5)

    def test_clear_drops_the_override_accumulator(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        tracer.set_tenant_rate("hot", 0.5)
        first = tracer.begin(_request(0), at=0.0, tenant="hot")
        tracer.finish(first, at=0.0)
        assert not first.sampled  # diffusion at 0.5: [drop, keep, ...]
        tracer.clear_tenant_rate("hot")
        tracer.set_tenant_rate("hot", 0.5)
        # Fresh episode, fresh accumulator: the cadence restarts.
        flags = []
        for i in range(1, 5):
            trace = tracer.begin(_request(i), at=0.0, tenant="hot")
            flags.append(trace.sampled)
            tracer.finish(trace, at=0.0)
        assert flags == [False, True, False, True]

    def test_lazy_settlement_path_honors_the_override(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        tracer.set_tenant_rate("hot", 1.0)
        kept = TaskRequest("noop", args=(0,), tenant="hot")
        tracer.settle_request(kept, _member())
        assert kept.trace is not None
        dropped = TaskRequest("noop", args=(1,), tenant="cold")
        tracer.settle_request(dropped, _member())
        assert dropped.trace is None


class TestHubChurn:

    def test_reregistering_replaces_the_collector(self):
        hub = TelemetryHub()
        hub.register_source("w0", lambda: "old")
        hub.register_source("w0", lambda: "new")
        assert list(hub.snapshot()["sources"]) == ["w0"]
        assert hub.snapshot()["sources"]["w0"] == "new"

    def test_strict_snapshot_propagates_nonstrict_stubs(self):
        hub = TelemetryHub()
        hub.register_source("good", lambda: 7)

        def _torn_down():
            raise RuntimeError("worker left mid-scrape")

        hub.register_source("torn", _torn_down)
        with pytest.raises(RuntimeError):
            hub.snapshot()
        relaxed = hub.snapshot(strict=False)
        assert relaxed["sources"]["good"] == 7
        assert "worker left mid-scrape" in relaxed["sources"]["torn"]["error"]
