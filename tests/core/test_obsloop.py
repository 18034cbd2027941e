"""Unit tests for the closed observability loop: the windowed series
store, alert rules and lifecycle engine, adaptive trace sampling, the
reactive SLO policy, and the loop controller itself."""

import pytest

from repro.core.fleet import FleetObservation, FleetPlan, FleetPolicy, ServableDemand
from repro.core.obsloop import (
    AdaptiveSampler,
    Alert,
    AlertEngine,
    BurnRateRule,
    ObservabilityLoop,
    ObsLoopError,
    ReactiveSLOPolicy,
    SeriesStore,
    ThresholdRule,
    burn_series,
    sample_rate_series,
)
from repro.core.telemetry import TelemetryHub, Tracer
from repro.sim.clock import VirtualClock


def _fill(store, series, samples):
    for t, v in samples:
        store.record(series, t, v)


class TestSeriesStore:
    def test_record_and_latest(self):
        store = SeriesStore()
        _fill(store, "s", [(0.0, 1.0), (1.0, 2.0)])
        assert store.latest("s") == (1.0, 2.0)
        assert store.names() == ("s",)
        assert store.latest("missing") is None

    def test_time_regression_rejected_equal_time_allowed(self):
        store = SeriesStore()
        store.record("s", 5.0, 1.0)
        store.record("s", 5.0, 2.0)  # same timestamp is fine
        with pytest.raises(ObsLoopError):
            store.record("s", 4.9, 3.0)

    def test_ring_evicts_oldest(self):
        store = SeriesStore(capacity=3)
        _fill(store, "s", [(float(i), float(i)) for i in range(5)])
        assert store.window("s", 100.0, 5.0) == [
            (2.0, 2.0),
            (3.0, 3.0),
            (4.0, 4.0),
        ]

    def test_window_queries(self):
        store = SeriesStore()
        _fill(store, "s", [(float(i), 10.0 + i) for i in range(6)])
        # Window [3, 5]: values 13, 14, 15.
        assert store.avg("s", 2.0, 5.0) == pytest.approx(14.0)
        assert store.delta("s", 2.0, 5.0) == pytest.approx(2.0)
        assert store.rate("s", 2.0, 5.0) == pytest.approx(1.0)
        assert store.percentile("s", 2.0, 5.0, 50) == pytest.approx(14.0)

    def test_queries_degrade_to_none(self):
        store = SeriesStore()
        assert store.avg("s", 1.0, 0.0) is None
        assert store.percentile("s", 1.0, 0.0, 95) is None
        store.record("s", 0.0, 1.0)
        # delta/rate need two in-window samples.
        assert store.delta("s", 1.0, 0.0) is None
        assert store.rate("s", 1.0, 0.0) is None

    def test_validation(self):
        with pytest.raises(ObsLoopError):
            SeriesStore(capacity=1)
        store = SeriesStore()
        with pytest.raises(ObsLoopError):
            store.window("s", 0.0, 1.0)
        with pytest.raises(ObsLoopError):
            store.percentile("s", 1.0, 1.0, 101)

    def test_scrape_flattens_every_instrument_kind(self):
        """Every numeric leaf a source returns — counter, gauge, or a
        ``{count, sum_s}`` pair, at any depth — becomes a series."""
        hub = TelemetryHub()
        hub.register_source(
            "stack",
            lambda: {
                "reqs": {"a": 3},
                "depth": 7.0,
                "lat": {"count": 2, "sum_s": 0.5},
                "flag": True,
                "name": "x",
                "missing": None,
            },
        )
        hub.register_source("bare", lambda: 4)
        store = SeriesStore()
        assert store.scrape(hub, now=1.0) == 5
        assert store.names() == (
            "src:bare",
            "src:stack.depth",
            "src:stack.lat.count",
            "src:stack.lat.sum_s",
            "src:stack.reqs.a",
        )
        assert store.latest("src:stack.lat.sum_s") == (1.0, 0.5)

    def test_scrape_survives_a_raising_source(self):
        hub = TelemetryHub()
        hub.register_source("ok", lambda: {"n": 1})

        def _broken():
            raise RuntimeError("mid-churn")

        hub.register_source("broken", _broken)
        store = SeriesStore()
        store.scrape(hub, now=0.0)
        assert store.latest("src:ok.n") == (0.0, 1.0)
        assert not any(n.startswith("src:broken") for n in store.names())

    @pytest.mark.parametrize("history", [[1, 2], (1, 2), []])
    def test_scrape_rejects_a_list_payload_by_path(self, history):
        """A list in a payload used to be dropped without a word — how
        stage latencies, fleet events and SLO breaches never reached
        the store."""
        hub = TelemetryHub()
        hub.register_source("stack", lambda: {"a": {"events": history}})
        with pytest.raises(ObsLoopError, match=r"src:stack\.a\.events"):
            SeriesStore().scrape(hub, now=0.0)


class TestThresholdRule:
    def test_avg_over_threshold(self):
        store = SeriesStore()
        _fill(store, "s", [(0.0, 1.0), (0.5, 9.0), (1.0, 9.0)])
        rule = ThresholdRule("r", "s", threshold=5.0, window_s=0.6)
        hit, detail = rule.active(store, now=1.0)
        assert hit and detail["value"] == pytest.approx(9.0)

    def test_percentile_and_last_aggregates(self):
        store = SeriesStore()
        _fill(store, "s", [(float(i) / 10, float(i)) for i in range(10)])
        p90 = ThresholdRule("p", "s", threshold=8.0, window_s=1.0, agg="p90")
        assert p90.active(store, now=0.9)[0]
        last = ThresholdRule(
            "l", "s", threshold=9.0, window_s=1.0, agg="last", op=">="
        )
        assert last.active(store, now=0.9)[0]

    def test_missing_data_is_inactive(self):
        rule = ThresholdRule("r", "absent", threshold=0.0)
        assert rule.active(SeriesStore(), now=0.0) == (False, {})

    def test_validation(self):
        with pytest.raises(ObsLoopError):
            ThresholdRule("r", "s", 1.0, window_s=0.0)
        with pytest.raises(ObsLoopError):
            ThresholdRule("r", "s", 1.0, op="!=")
        with pytest.raises(ObsLoopError):
            ThresholdRule("r", "s", 1.0, agg="median")
        with pytest.raises(ObsLoopError):
            ThresholdRule("", "s", 1.0)
        with pytest.raises(ObsLoopError):
            ThresholdRule("r", "s", 1.0, for_s=-1.0)


class TestBurnRateRule:
    def test_needs_both_windows_hot(self):
        store = SeriesStore()
        series = burn_series("hot")
        # Long cold history, then a short spike: fast window clears the
        # threshold, the slow window still averages below it.
        _fill(store, series, [(t / 10, 0.0) for t in range(20)])
        _fill(store, series, [(2.0 + t / 10, 10.0) for t in range(3)])
        rule = BurnRateRule("b", "hot", fast_window_s=0.3, slow_window_s=2.0)
        hit, _ = rule.active(store, now=2.2)
        assert not hit  # a blip is not a burn
        # Sustained burn: both windows now average above threshold.
        _fill(store, series, [(2.3 + t / 10, 10.0) for t in range(18)])
        hit, detail = rule.active(store, now=4.0)
        assert hit
        assert detail["fast_burn"] >= rule.threshold
        assert detail["slow_burn"] >= rule.threshold

    def test_labels_identify_tenant_and_kind(self):
        rule = BurnRateRule("b", "hot")
        assert rule.labels == {"kind": "burn", "tenant": "hot"}

    def test_validation(self):
        with pytest.raises(ObsLoopError):
            BurnRateRule("b", "t", fast_window_s=2.0, slow_window_s=1.0)
        with pytest.raises(ObsLoopError):
            BurnRateRule("b", "t", threshold=0.0)


class _FlagRule(ThresholdRule):
    """Threshold over a manually driven series — a switchable condition."""

    def __init__(self, name, for_s=0.0):
        super().__init__(
            name, f"flag:{name}", threshold=0.5, window_s=0.2,
            agg="last", for_s=for_s,
        )


class TestAlertEngine:
    def _engine(self, for_s=0.0):
        store = SeriesStore()
        engine = AlertEngine(store, rules=[_FlagRule("r", for_s=for_s)])
        return store, engine

    def test_zero_hold_fires_in_one_pass(self):
        store, engine = self._engine()
        store.record("flag:r", 0.0, 1.0)
        fresh = engine.evaluate(0.0)
        assert [t.state for t in fresh] == ["pending", "firing"]
        assert engine.state("r") == "firing"
        (alert,) = engine.firing()
        assert alert.rule == "r" and alert.since == 0.0

    def test_hold_debounces_and_cancels_silently(self):
        store, engine = self._engine(for_s=1.0)
        store.record("flag:r", 0.0, 1.0)
        assert [t.state for t in engine.evaluate(0.0)] == ["pending"]
        # The condition drops before the hold elapses: silent cancel.
        store.record("flag:r", 0.5, 0.0)
        assert engine.evaluate(0.5) == []
        assert engine.state("r") == "inactive"
        # Hold all the way through -> fires.
        store.record("flag:r", 1.0, 1.0)
        engine.evaluate(1.0)
        engine.evaluate(1.5)
        assert engine.state("r") == "pending"
        fresh = engine.evaluate(2.0)
        assert [t.state for t in fresh] == ["firing"]

    def test_resolve_and_drain_cursor(self):
        store, engine = self._engine()
        store.record("flag:r", 0.0, 1.0)
        engine.evaluate(0.0)
        drained = engine.drain()
        assert [t.state for t in drained] == ["pending", "firing"]
        assert engine.drain() == []  # cursor advanced
        store.record("flag:r", 1.0, 0.0)
        engine.evaluate(1.0)
        assert [t.state for t in engine.drain()] == ["resolved"]
        assert engine.state("r") == "inactive"
        assert engine.firing() == ()

    def test_firing_detail_refreshes_without_new_transitions(self):
        store, engine = self._engine()
        store.record("flag:r", 0.0, 1.0)
        engine.evaluate(0.0)
        store.record("flag:r", 1.0, 0.9)
        assert engine.evaluate(1.0) == []
        (alert,) = engine.firing()
        assert alert.detail["value"] == pytest.approx(0.9)

    def test_duplicate_rule_name_rejected(self):
        store = SeriesStore()
        engine = AlertEngine(store, rules=[_FlagRule("r")])
        with pytest.raises(ObsLoopError):
            engine.add_rule(_FlagRule("r"))
        assert engine.rules() == ("r",)


class TestAdaptiveSampler:
    def test_escalates_only_burning_tenants(self):
        tracer = Tracer(sample_rate=0.01)
        sampler = AdaptiveSampler(tracer, escalation=10.0, max_rate=0.5)
        sampler.update(0.0, ("hot",))
        assert tracer.effective_rate("hot") == pytest.approx(0.1)
        assert tracer.effective_rate("light") == pytest.approx(0.01)
        assert sampler.peak_rates == {"hot": pytest.approx(0.1)}
        assert sampler.escalations == {"hot": 1}

    def test_max_rate_caps_the_escalation(self):
        tracer = Tracer(sample_rate=0.2)
        sampler = AdaptiveSampler(tracer, escalation=10.0, max_rate=0.5)
        sampler.update(0.0, ("hot",))
        assert tracer.effective_rate("hot") == pytest.approx(0.5)

    def test_decay_steps_back_and_clears_override(self):
        tracer = Tracer(sample_rate=0.01)
        sampler = AdaptiveSampler(tracer, escalation=10.0, decay=0.5)
        sampler.update(0.0, ("hot",))
        sampler.update(1.0, ())
        # Geometric step toward base: 0.01 + (0.1 - 0.01) * 0.5.
        assert tracer.effective_rate("hot") == pytest.approx(0.055)
        for tick in range(2, 12):
            sampler.update(float(tick), ())
        assert sampler.active == {}
        assert tracer.tenant_rates == {}
        assert tracer.effective_rate("hot") == pytest.approx(0.01)

    def test_reescalation_counts_a_new_episode(self):
        tracer = Tracer(sample_rate=0.01)
        sampler = AdaptiveSampler(tracer)
        sampler.update(0.0, ("hot",))
        for tick in range(1, 15):
            sampler.update(float(tick), ())
        assert sampler.active == {}
        # A re-burn while still decaying is the same episode; one that
        # starts after the override fully cleared is a new one.
        sampler.update(15.0, ("hot",))
        assert sampler.escalations == {"hot": 2}

    def test_validation(self):
        tracer = Tracer()
        with pytest.raises(ObsLoopError):
            AdaptiveSampler(tracer, escalation=1.0)
        with pytest.raises(ObsLoopError):
            AdaptiveSampler(tracer, max_rate=0.0)
        with pytest.raises(ObsLoopError):
            AdaptiveSampler(tracer, decay=1.0)


class _RecordingPolicy(FleetPolicy):
    name = "recording"

    def __init__(self):
        self.seen = []

    def plan(self, observation):
        self.seen.append(observation)
        return FleetPlan(target_workers=observation.routable_workers, copies={})


class _FakeGateway:
    def __init__(self):
        self.tightened = {}
        self.relaxed = []

    def tighten_admission(self, tenant, rate_rps, burst=None):
        self.tightened[tenant] = rate_rps

    def relax_admission(self, tenant):
        self.relaxed.append(tenant)
        return True


def _burn_alert(tenant):
    return Alert(
        rule=f"burn:{tenant}",
        since=0.0,
        labels={"kind": "burn", "tenant": tenant},
    )


def _demand(rate=100.0, weighted=None, tenant_rates=()):
    return ServableDemand(
        name="s",
        queue_depth=0,
        arrival_rate_rps=rate,
        live_copies=1,
        per_copy_capacity_rps=100.0,
        recent_p95_queue_wait_s=None,
        weighted_arrival_rate_rps=weighted,
        tenant_rates=tuple(tenant_rates),
    )


def _obs(routable=2, max_workers=4, alerts=(), demands=()):
    return FleetObservation(
        time=0.0,
        routable_workers=routable,
        draining_workers=0,
        min_workers=1,
        max_workers=max_workers,
        demands=tuple(demands),
        alerts=tuple(alerts),
    )


class TestReactiveSLOPolicy:
    def test_no_alerts_passes_through_untouched(self):
        base = _RecordingPolicy()
        policy = ReactiveSLOPolicy(base=base)
        observation = _obs(demands=[_demand(rate=50.0)])
        policy.plan(observation)
        assert base.seen[-1] is observation
        assert policy.last_mode is None and policy.boosts == 0

    def test_capacity_shaped_burn_boosts_planning_rates(self):
        base = _RecordingPolicy()
        policy = ReactiveSLOPolicy(base=base, boost=1.5)
        observation = _obs(
            routable=2,
            max_workers=4,
            alerts=[_burn_alert("hot")],
            demands=[_demand(rate=100.0, weighted=80.0)],
        )
        policy.plan(observation)
        planned = base.seen[-1].demands[0]
        assert planned.arrival_rate_rps == pytest.approx(150.0)
        assert planned.weighted_arrival_rate_rps == pytest.approx(120.0)
        assert policy.last_mode == "scale_out" and policy.boosts == 1

    def test_overload_shaped_burn_sheds_at_the_door(self):
        gateway = _FakeGateway()
        policy = ReactiveSLOPolicy(
            base=_RecordingPolicy(), gateway=gateway, shed_fraction=0.5
        )
        observation = _obs(
            routable=4,
            max_workers=4,
            alerts=[_burn_alert("hot")],
            demands=[_demand(tenant_rates=[("hot", 600.0), ("light", 40.0)])],
        )
        policy.plan(observation)
        assert gateway.tightened == {"hot": pytest.approx(300.0)}
        assert policy.active_sheds == {"hot": pytest.approx(300.0)}
        assert policy.last_mode == "shed" and policy.sheds == 1
        # Still burning next plan: the cap is not re-imposed.
        policy.plan(observation)
        assert policy.sheds == 1

    def test_shed_reverts_when_the_alert_resolves(self):
        gateway = _FakeGateway()
        policy = ReactiveSLOPolicy(base=_RecordingPolicy(), gateway=gateway)
        burning = _obs(
            routable=4,
            alerts=[_burn_alert("hot")],
            demands=[_demand(tenant_rates=[("hot", 600.0)])],
        )
        policy.plan(burning)
        policy.plan(_obs(routable=4, demands=[_demand()]))
        assert gateway.relaxed == ["hot"]
        assert policy.active_sheds == {} and policy.reverts == 1

    def test_unmeasured_tenant_is_not_shed(self):
        gateway = _FakeGateway()
        policy = ReactiveSLOPolicy(base=_RecordingPolicy(), gateway=gateway)
        observation = _obs(
            routable=4, alerts=[_burn_alert("ghost")], demands=[_demand()]
        )
        policy.plan(observation)
        assert gateway.tightened == {} and policy.sheds == 0

    def test_no_gateway_disables_shedding(self):
        policy = ReactiveSLOPolicy(base=_RecordingPolicy())
        observation = _obs(
            routable=4,
            alerts=[_burn_alert("hot")],
            demands=[_demand(tenant_rates=[("hot", 600.0)])],
        )
        policy.plan(observation)  # must not raise
        assert policy.active_sheds == {}

    def test_validation(self):
        with pytest.raises(ObsLoopError):
            ReactiveSLOPolicy(boost=0.9)
        with pytest.raises(ObsLoopError):
            ReactiveSLOPolicy(shed_fraction=1.0)
        with pytest.raises(ObsLoopError):
            ReactiveSLOPolicy(min_shed_rate_rps=0.0)


class _FakeMonitor:
    def __init__(self, burns):
        self._burns = burns

    def tenants(self):
        return tuple(sorted(self._burns))

    def burn_rate(self, tenant, now):
        return self._burns[tenant]


class TestObservabilityLoop:
    def test_ticks_at_the_scrape_cadence(self):
        clock = VirtualClock()
        hub = TelemetryHub()
        hub.register_source("c", lambda: {"n": 1})
        loop = ObservabilityLoop(clock, hub, scrape_interval_s=0.1)
        assert loop.next_wakeup() == clock.now()
        loop.on_tick()
        assert loop.scrapes == 1
        loop.on_tick()  # not due yet
        assert loop.scrapes == 1
        clock.advance(0.1)
        loop.on_tick()
        assert loop.scrapes == 2
        assert loop.next_wakeup() == pytest.approx(clock.now() + 0.1)

    def test_burn_gauges_recorded_cold_is_zero(self):
        clock = VirtualClock()
        monitor = _FakeMonitor({"hot": 40.0, "cold": None})
        loop = ObservabilityLoop(clock, TelemetryHub(), monitor=monitor)
        loop.scrape(clock.now())
        assert loop.store.latest(burn_series("hot"))[1] == 40.0
        assert loop.store.latest(burn_series("cold"))[1] == 0.0

    def test_burning_set_drives_the_sampler_and_is_recorded(self):
        clock = VirtualClock()
        monitor = _FakeMonitor({"hot": 40.0})
        tracer = Tracer(sample_rate=0.01)
        sampler = AdaptiveSampler(tracer)
        store = SeriesStore()
        engine = AlertEngine(
            store,
            rules=[BurnRateRule("b", "hot", fast_window_s=0.1, slow_window_s=0.3)],
        )
        loop = ObservabilityLoop(
            clock,
            TelemetryHub(),
            store=store,
            engine=engine,
            monitor=monitor,
            sampler=sampler,
            scrape_interval_s=0.1,
        )
        for _ in range(5):
            loop.on_tick()
            clock.advance(0.1)
        assert loop.burning() == ("hot",)
        assert tracer.effective_rate("hot") == pytest.approx(0.1)
        assert loop.store.latest(sample_rate_series("hot"))[1] == (
            pytest.approx(0.1)
        )

    def test_validation(self):
        with pytest.raises(ObsLoopError):
            ObservabilityLoop(VirtualClock(), TelemetryHub(), scrape_interval_s=0.0)


def _numeric_leaves(prefix, payload):
    """Series names a payload's numbers should land under — counting
    into lists too, whose elements no series name can ever match."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _numeric_leaves(f"{prefix}.{key}", value)
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            yield from _numeric_leaves(f"{prefix}[{index}]", value)
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        yield prefix


class TestScrapeIsHistoryIndependent:
    """A scrape reads cumulative state, never the sample history: on a
    full ``build_hub`` stack with a thousand settled requests behind it
    the loop neither computes a percentile nor copies a sample list,
    and every number a source reports reaches the store."""

    def test_full_stack_scrape_touches_no_history_and_drops_nothing(
        self, monkeypatch
    ):
        import numpy

        from repro.core.fleet import FleetController
        from repro.core.metrics import StageLatencyCollector, TenantUsageCollector
        from repro.core.telemetry import SLOBurnMonitor, build_hub
        from repro.gateway import TenantPolicy
        from tests.gateway.test_gateway import build_gateway, requests_at

        tracer = Tracer(sample_rate=0.05)
        # An SLO nothing meets: breaches (and their fleet events) exist.
        monitor = SLOBurnMonitor(latency_slo_s=1e-6, min_samples=5)
        testbed, gateway, tokens = build_gateway(
            {"a": TenantPolicy(name="a"), "b": TenantPolicy(name="b", weight=2.0)},
            tracer=tracer,
            slo_monitor=monitor,
        )
        runtime = gateway.runtime
        controller = FleetController(
            runtime,
            provision_worker=testbed.add_fleet_worker,
            min_workers=2,
            max_workers=2,
            gateway=gateway,
            slo_monitor=monitor,
        )
        hub = build_hub(
            runtime=runtime,
            gateway=gateway,
            controller=controller,
            tracer=tracer,
            monitor=monitor,
        )
        loop = ObservabilityLoop(testbed.clock, hub, monitor=monitor)
        runtime.attach_controller(loop, controller)
        results = gateway.serve(
            requests_at(400.0, 1.5, tokens["a"]) + requests_at(400.0, 1.5, tokens["b"])
        )
        assert sum(r.completed for r in results) >= 1000
        assert monitor.breaches and controller.events
        stages = runtime.stage_metrics
        queue_wait_s = stages.stage_sum("queue_wait", "noop")

        def _history(*args, **kwargs):
            raise AssertionError("a scrape must not read sample history")

        for owner, name in (
            (numpy, "percentile"),
            (numpy, "median"),
            (StageLatencyCollector, "samples"),
            (TenantUsageCollector, "latencies"),
        ):
            monkeypatch.setattr(owner, name, _history)
        loop.scrape(testbed.clock.now())

        names = set(loop.store.names())
        payloads = hub.snapshot()["sources"]
        assert set(payloads) == {
            "fleet_events",
            "runtime",
            "slo_burn",
            "stage_latency",
            "tenant_usage",
            "tracer",
            "wfq_lanes",
        }
        leaves = [
            leaf
            for source, payload in payloads.items()
            for leaf in _numeric_leaves(f"src:{source}", payload)
        ]
        assert len(leaves) > 30
        assert [leaf for leaf in leaves if leaf not in names] == []
        # The cumulative pair is the collector's own ledger.
        assert payloads["stage_latency"]["stages"]["noop.queue_wait"] == {
            "count": stages.count("queue_wait", "noop"),
            "sum_s": pytest.approx(queue_wait_s),
        }
        assert payloads["slo_burn"] == {"count": len(monitor.breaches)}
        assert payloads["fleet_events"] == {"count": len(controller.events)}
