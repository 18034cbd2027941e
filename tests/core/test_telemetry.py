"""Unit tests for the telemetry module: tracer sampling/retention,
span-tree geometry, hostile settlement paths (partial chunk failure,
memo hits, dead letters), the SLO burn monitor, and the hub."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import build_fleet
from repro.core.metrics import ObsLoopError
from repro.core.record import RequestRecord
from repro.core.tasks import TaskRequest, TaskStatus
from repro.core.telemetry import (
    MAX_RETAINED,
    SLO_BURN_THRESHOLD,
    SLO_COOLDOWN_S,
    SLO_LATENCY_S,
    SLO_MIN_SAMPLES,
    SLO_OBJECTIVE,
    SLO_WINDOW_S,
    BatchTiming,
    SLOBurnMonitor,
    TelemetryError,
    TelemetryHub,
    Trace,
    Tracer,
    build_hub,
)
from repro.core.zoo import build_zoo, sample_input


def _record(i=0, at=1.0, tenant=None):
    """A gateway-less request's record that arrived (and enqueued) at ``at``."""
    record = RequestRecord(TaskRequest("noop", args=(i,), tenant=tenant))
    record.enqueued_at = at
    return record


def _member(i=0, at=1.0, error=None, cache=False, tenant=None):
    """A plausible settled batch member's record, overridable per test."""
    record = _record(i, at, tenant)
    record.status = TaskStatus.FAILED if error else TaskStatus.SUCCEEDED
    record.error = error
    record.inference_time = 0.044
    record.batch_size = 3
    record.worker = "w0"
    record.cache_hit = cache
    return record


def _batch(**overrides):
    """The timings of a plausible batch the members settle in."""
    base = dict(
        seq=7,
        claimed_at=1.005,
        head_enqueued=1.0,
        dispatch_start=1.005,
        infer_start=1.006,
        completed_at=1.05,
        batch_inference_s=0.044,
        pods=None,
        pod="w0/noop-0",
    )
    base.update(overrides)
    return BatchTiming(**base)


def _settle(tracer, record, batch=None, end=1.051, settle=None):
    """Settle ``record`` as the first member of ``batch`` at ``end``."""
    settle = settle or tracer.settle_request
    settle(record, end, record.error is not None, batch or _batch(), 0)
    return record.trace


class TestHeadSampling:
    def test_error_diffusion_keeps_exactly_floor_n_rate(self):
        tracer = Tracer(sample_rate=0.25, slow_threshold_s=None)
        for i in range(103):
            tracer.settle_request(_record(i, at=float(i)), float(i) + 0.001)
        assert tracer.kept_sampled == int(103 * 0.25)
        assert tracer.dropped == 103 - tracer.kept_sampled
        assert len(tracer.retained) == tracer.kept_sampled

    def test_sampling_is_evenly_spaced_not_bursty(self):
        tracer = Tracer(sample_rate=0.25, slow_threshold_s=None)
        flags = [tracer.begin() for _ in range(16)]
        # Exactly every fourth request, deterministically.
        assert flags == [False, False, False, True] * 4
        assert tracer.started == 16 and not tracer.retained

    def test_rate_edges(self):
        all_on = Tracer(sample_rate=1.0, slow_threshold_s=None)
        all_off = Tracer(sample_rate=0.0, slow_threshold_s=None)
        for i in range(10):
            all_on.settle_request(_record(i, at=0.0), 0.0)
            all_off.settle_request(_record(i, at=0.0), 0.0)
        assert all_on.kept_sampled == 10
        assert all_off.kept_sampled == 0 and all_off.dropped == 10

    def test_a_door_sampled_request_is_not_sampled_again(self):
        """The door's flag rides the record; settlement burns no second
        sampling decision for it."""
        tracer = Tracer(sample_rate=1.0)
        record = _record()
        record.sampled = tracer.begin()
        tracer.settle_request(record, 1.5)
        assert tracer.started == 1 and tracer.kept_sampled == 1
        assert record.trace.sampled

    def test_validation(self):
        with pytest.raises(TelemetryError):
            Tracer(sample_rate=1.5)
        with pytest.raises(TelemetryError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(TelemetryError):
            Tracer(slow_threshold_s=-1.0)


class TestTailKeep:
    def test_errors_survive_zero_sampling(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        record = _record(at=0.0)
        tracer.settle_request(record, 0.1, error=True)
        assert tracer.kept_tail == 1
        assert list(tracer.retained) == [record.trace]
        assert record.trace.error

    def test_slow_requests_survive_zero_sampling(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=0.5)
        fast, slow = _record(0, at=0.0), _record(1, at=1.0)
        tracer.settle_request(fast, 0.4)
        tracer.settle_request(slow, 1.6)
        assert tracer.dropped == 1 and tracer.kept_tail == 1
        assert list(tracer.retained) == [slow.trace]
        assert fast.trace is None

    def test_slowness_counts_from_arrival_not_enqueue(self):
        """A gateway-less request the serve loop enqueued late (the fleet
        was busy) is as slow as its arrival says: every request with
        ``latency >= slow_threshold_s`` is kept, and its trace's root
        starts at the arrival."""
        tracer = Tracer(sample_rate=0.0)
        _, runtime = build_fleet(
            "matminer_featurize", 1, 1, 0.0, shared_clock=True, tracer=tracer
        )
        args = sample_input("matminer_featurize")
        records = runtime.serve(
            [(i * 0.001, TaskRequest("matminer_featurize", args=args)) for i in range(200)]
        )
        slow = [r for r in records if r.latency >= tracer.slow_threshold_s]
        late = [r for r in slow if r.completed_at - r.enqueued_at < tracer.slow_threshold_s]
        assert slow and late
        kept = {trace.trace_id: trace for trace in tracer.retained}
        assert {r.request.task_uuid for r in slow} <= set(kept)
        for record in late:
            assert kept[record.request.task_uuid].start == record.arrived_at

    def test_none_threshold_disables_the_slow_path(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        tracer.settle_request(_record(at=0.0), 1e9)
        assert tracer.dropped == 1 and len(tracer.retained) == 0

    def test_retained_ring_evicts_oldest(self):
        tracer = Tracer(sample_rate=1.0)
        records = [_record(i, at=float(i)) for i in range(MAX_RETAINED + 2)]
        for record in records:
            tracer.settle_request(record, record.enqueued_at)
        assert list(tracer.retained) == [r.trace for r in records[2:]]
        assert tracer.kept_sampled == MAX_RETAINED + 2  # counters are lifetime


class TestSettlementPaths:
    def test_settle_member_and_settle_request_build_identical_trees(self):
        """``settle_member`` is the one settle path under its old name."""
        eager, lazy = Tracer(sample_rate=1.0), Tracer(sample_rate=1.0)
        trace_a = _settle(eager, _member(), settle=eager.settle_member)
        trace_b = _settle(lazy, _member())

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
        assert _settle(tracer, _member()) is None
        assert tracer.dropped == 1 and tracer.started == 1

    def test_settle_request_keeps_failures(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        trace = _settle(tracer, _member(error="boom"))
        assert trace is not None
        assert trace.error
        assert tracer.kept_tail == 1

    def test_settle_member_records_failure_as_error_inference_span(self):
        tracer = Tracer(sample_rate=1.0)
        trace = _settle(tracer, _member(error="pod crashed"))
        (inference,) = trace.stages("inference")
        assert inference.status == "error"
        assert inference.attrs["error"] == "pod crashed"
        assert trace.error

    def test_memo_hit_gets_cache_span_instead_of_inference(self):
        tracer = Tracer(sample_rate=1.0)
        trace = _settle(tracer, _member(cache=True))
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
        trace = _settle(tracer, _member(at=1.0), _batch(head_enqueued=0.9))
        (coalesce,) = trace.stages("coalesce")
        assert coalesce.start == 1.0  # not 0.9: clamped to the member
        assert coalesce.attrs["window_s"] == pytest.approx(1.005 - 0.9)
        assert trace.well_formed()

    def test_head_member_coalesce_spans_the_whole_window(self):
        tracer = Tracer(sample_rate=1.0)
        trace = _settle(tracer, _member())  # head_enqueued == enqueued_at
        (coalesce,) = trace.stages("coalesce")
        assert coalesce.duration == pytest.approx(coalesce.attrs["window_s"])

    def test_missing_stages_flags_gateway_stages_only_when_asked(self):
        tracer = Tracer(sample_rate=1.0)
        trace = _settle(tracer, _member())
        assert trace.missing_stages() == set()
        assert trace.missing_stages(gateway=True) == {
            "admission",
            "lane_wait",
        }

    def test_well_formed_is_containment(self):
        trace = Trace("id", "noop", start=1.0, end=1.1, sampled=True)
        trace.span("settle", 1.0, 1.1)
        assert trace.well_formed()
        escaping = Trace("id2", "noop", start=1.0, end=1.1, sampled=True)
        escaping.span("settle", 0.5, 1.1)  # starts before the root
        assert not escaping.well_formed()

    def test_tree_is_json_able_and_ordered(self):
        tracer = Tracer(sample_rate=1.0)
        record = _member(at=1.0, tenant="t")
        record.reclaims = [1.2, 1.3]
        trace = _settle(tracer, record)
        tree = json.loads(json.dumps(trace.tree()))
        starts = [child["start"] for child in tree["children"]]
        assert starts == sorted(starts)
        assert tree["marks"] == [
            {"name": "reclaim", "at": 1.2, "attrs": {"tenant": "t", "servable": "noop"}}
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
            assert trace.error
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
        assert trace.error
        ((name, _, attrs),) = trace.marks
        assert name == "dead_letter"
        assert attrs["deliveries"] == 1


#: Settlement latencies either side of the SLO.
FAST_S = SLO_LATENCY_S / 10
SLOW_S = SLO_LATENCY_S * 2
#: Enough settlements in one window for the burn to be trusted.
ENOUGH = 2 * SLO_MIN_SAMPLES


class TestSLOBurnMonitor:
    def test_burn_rate_is_bad_fraction_over_error_budget(self):
        monitor = SLOBurnMonitor()
        for i in range(ENOUGH):
            monitor.record("t", at=1.0, latency_s=SLOW_S if i % 2 else FAST_S)
        # 50% bad over a 1% budget: burn 50x.
        assert SLO_OBJECTIVE == 0.99
        assert monitor.burn_rate("t", now=1.0) == pytest.approx(50.0)

    def test_failures_count_as_bad_regardless_of_latency(self):
        monitor = SLOBurnMonitor()
        for _ in range(SLO_MIN_SAMPLES):
            monitor.record("t", at=1.0, latency_s=FAST_S, ok=False)
        assert monitor.burn_rate("t", now=1.0) == pytest.approx(100.0)

    def test_below_min_samples_is_trustless(self):
        monitor = SLOBurnMonitor()
        for _ in range(SLO_MIN_SAMPLES - 1):
            monitor.record("t", at=1.0, latency_s=SLOW_S)
        assert monitor.burn_rate("t", now=1.0) is None
        assert monitor.check(now=1.0) == []
        assert monitor.burn_rate("unknown", now=1.0) is None
        monitor.record("t", at=1.0, latency_s=SLOW_S)
        assert monitor.burn_rate("t", now=1.0) == pytest.approx(100.0)

    def test_check_fires_once_per_cooldown(self):
        monitor = SLOBurnMonitor()
        for _ in range(ENOUGH):
            monitor.record("t", at=1.0, latency_s=SLOW_S)
        first = monitor.check(now=1.0)
        assert len(first) == 1
        breach = first[0]
        assert breach.tenant == "t" and breach.burn_rate >= SLO_BURN_THRESHOLD
        assert breach.bad_fraction == pytest.approx(1.0)
        assert breach.window_s == SLO_WINDOW_S
        # Still burning, but inside the cooldown: silent.
        assert monitor.check(now=1.0 + SLO_COOLDOWN_S / 2) == []
        # Keep the window populated past the cooldown: fires again.
        later = 1.0 + SLO_COOLDOWN_S
        for _ in range(ENOUGH):
            monitor.record("t", at=later, latency_s=SLOW_S)
        assert len(monitor.check(now=later)) == 1
        assert len(monitor.breaches) == 2

    def test_window_slides_old_badness_out(self):
        monitor = SLOBurnMonitor()
        for _ in range(ENOUGH):
            monitor.record("t", at=0.0, latency_s=SLOW_S)
        assert monitor.check(now=SLO_WINDOW_S / 2)
        # Two windows later the bad samples are out of window entirely.
        assert monitor.burn_rate("t", now=2 * SLO_WINDOW_S) is None
        assert monitor.check(now=2 * SLO_WINDOW_S) == []

    def test_drain_returns_only_fresh_breaches(self):
        monitor = SLOBurnMonitor()
        for _ in range(ENOUGH):
            monitor.record("t", at=1.0, latency_s=SLOW_S)
        monitor.check(now=1.0)
        assert len(monitor.drain()) == 1
        assert monitor.drain() == []
        later = 1.0 + SLO_COOLDOWN_S
        for _ in range(ENOUGH):
            monitor.record("t", at=later, latency_s=SLOW_S)
        monitor.check(now=later)
        assert len(monitor.drain()) == 1

    def test_tenants_lists_everyone_recorded_sorted(self):
        monitor = SLOBurnMonitor()
        assert monitor.tenants() == ()
        monitor.record("beta", at=0.0, latency_s=FAST_S)
        monitor.record("alpha", at=0.0, latency_s=FAST_S)
        assert monitor.tenants() == ("alpha", "beta")

    def test_settlements_must_not_go_back_in_time(self):
        """The store's non-decreasing check guards each tenant's series;
        another tenant's series is its own."""
        monitor = SLOBurnMonitor()
        monitor.record("t", at=2.0, latency_s=FAST_S)
        monitor.record("t", at=2.0, latency_s=SLOW_S)  # same instant is fine
        monitor.record("u", at=1.0, latency_s=FAST_S)
        with pytest.raises(ObsLoopError, match="before"):
            monitor.record("t", at=1.9, latency_s=FAST_S)

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "check"]),
                st.sampled_from([0.0, 0.05, 0.2, 0.7, 1.5]),
                st.floats(0.0, 3 * SLO_LATENCY_S),
                st.booleans(),
                # Settlements landing together: enough of them fill a
                # window past the trust floor.
                st.integers(1, SLO_MIN_SAMPLES),
            ),
            min_size=1,
            max_size=120,
        ),
    )
    def test_burn_and_check_match_a_brute_force_recount(self, steps):
        """Over a random non-decreasing settlement stream, every burn
        rate and every breach is what recounting the whole history over
        ``[now - SLO_WINDOW_S, now]`` gives."""
        monitor = SLOBurnMonitor()
        history = {"a": [], "b": []}
        last_fired = {}
        now = 0.0

        def recount(tenant):
            seen = [bad for at, bad in history[tenant] if at >= now - SLO_WINDOW_S]
            if len(seen) < SLO_MIN_SAMPLES:
                return None, len(seen)
            return sum(seen) / len(seen) / (1.0 - SLO_OBJECTIVE), len(seen)

        for who, gap, latency, ok, count in steps:
            now += gap
            if who != "check":
                for _ in range(count):
                    monitor.record(who, at=now, latency_s=latency, ok=ok)
                    history[who].append((now, (not ok) or latency > SLO_LATENCY_S))
                continue
            expected = []
            for tenant in sorted(t for t in history if history[t]):
                burn, samples = recount(tenant)
                assert monitor.burn_rate(tenant, now) == burn
                if now - last_fired.get(tenant, -math.inf) < SLO_COOLDOWN_S:
                    continue
                if burn is not None and burn >= SLO_BURN_THRESHOLD:
                    last_fired[tenant] = now
                    expected.append((tenant, burn, samples))
            fired = monitor.check(now)
            assert [(b.tenant, b.burn_rate, b.samples) for b in fired] == expected

    def test_validation(self):
        # The objective's numbers are constants in the ranges the burn
        # arithmetic needs, and the monitor takes no keyword to move them.
        assert SLO_LATENCY_S > 0 and 0 < SLO_OBJECTIVE < 1 and SLO_WINDOW_S > 0
        assert SLO_BURN_THRESHOLD > 0 and SLO_MIN_SAMPLES >= 1 and SLO_COOLDOWN_S >= 0
        for option in (
            "latency_slo_s",
            "objective",
            "window_s",
            "burn_threshold",
            "min_samples",
            "cooldown_s",
        ):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                SLOBurnMonitor(**{option: 1})


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
        monitor = SLOBurnMonitor()
        hub = build_hub(tracer=tracer, monitor=monitor)
        sources = hub.snapshot()["sources"]
        assert set(sources) == {"tracer", "slo_burn"}
        assert sources["tracer"]["sample_rate"] == 1.0
        assert sources["slo_burn"] == {"count": 0}
        for _ in range(SLO_MIN_SAMPLES):
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
            tracer.settle_request(_record(i, at=0.0, tenant="hot"), 0.0)
        for i in range(4, 8):
            tracer.settle_request(_record(i, at=0.0, tenant="cold"), 0.0)
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
        for _ in range(16):
            assert tracer.begin("hot")
            flags.append(tracer.begin("base"))
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
        assert not tracer.begin("hot")  # diffusion at 0.5: [drop, keep, ...]
        tracer.clear_tenant_rate("hot")
        tracer.set_tenant_rate("hot", 0.5)
        # Fresh episode, fresh accumulator: the cadence restarts.
        flags = [tracer.begin("hot") for _ in range(4)]
        assert flags == [False, True, False, True]

    def test_lazy_settlement_path_honors_the_override(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None)
        tracer.set_tenant_rate("hot", 1.0)
        assert _settle(tracer, _member(0, tenant="hot")) is not None
        assert _settle(tracer, _member(1, tenant="cold")) is None


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
        relaxed = hub.pull(hub.source_names())
        assert list(relaxed) == ["good", "torn"] and relaxed["good"] == 7
        assert "worker left mid-scrape" in relaxed["torn"]["error"]
