"""Unit tests for the closed observability loop: the windowed series
store, alert rules and lifecycle engine, adaptive trace sampling, the
reactive SLO policy, and the loop controller itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fleet import FleetObservation, FleetPlan, FleetPolicy, ServableDemand
from repro.core.obsloop import (
    BURN_RULE_THRESHOLD,
    REACTIVE_BOOST,
    REACTIVE_MIN_SHED_RATE_RPS,
    REACTIVE_SHED_FRACTION,
    SAMPLER_DECAY,
    SAMPLER_ESCALATION,
    SAMPLER_MAX_RATE,
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
        """A series keeps its declared window behind its newest sample,
        plus the newest sample before it; an undeclared one keeps its
        newest two."""
        store = SeriesStore()
        store.retain("s", 2.0)
        _fill(store, "s", [(float(i), float(i)) for i in range(6)])
        _fill(store, "undeclared", [(float(i), float(i)) for i in range(6)])
        assert list(store._series["s"]) == [
            (2.0, 2.0),
            (3.0, 3.0),
            (4.0, 4.0),
            (5.0, 5.0),
        ]
        assert store.window("s", 2.0, 5.0) == [(3.0, 3.0), (4.0, 4.0), (5.0, 5.0)]
        assert list(store._series["undeclared"]) == [(4.0, 4.0), (5.0, 5.0)]

    def test_window_queries(self):
        store = SeriesStore()
        store.retain("s", 2.0)
        _fill(store, "s", [(float(i), 10.0 + i) for i in range(6)])
        # Window [3, 5]: values 13, 14, 15.
        assert store.avg("s", 2.0, 5.0) == pytest.approx(14.0)
        assert store.delta("s", 2.0, 5.0) == pytest.approx(2.0)
        assert store.rate("s", 2.0, 5.0) == pytest.approx(1.0)
        assert store.percentile("s", 2.0, 5.0, 50) == pytest.approx(14.0)

    def test_queries_degrade_to_none(self):
        store = SeriesStore()
        store.retain("s", 1.0)
        assert store.avg("s", 1.0, 0.0) is None
        assert store.percentile("s", 1.0, 0.0, 95) is None
        store.record("s", 0.0, 1.0)
        # delta/rate need two in-window samples.
        assert store.delta("s", 1.0, 0.0) is None
        assert store.rate("s", 1.0, 0.0) is None

    def test_validation(self):
        store = SeriesStore()
        with pytest.raises(ObsLoopError):
            store.retain("s", 0.0)
        store.retain("s", 1.0)
        with pytest.raises(ObsLoopError):
            store.window("s", 0.0, 1.0)
        with pytest.raises(ObsLoopError):
            store.percentile("s", 1.0, 1.0, 101)
        # A window longer than any reader declared would answer from
        # samples the store already dropped.
        with pytest.raises(ObsLoopError, match="declared"):
            store.avg("s", 1.5, 1.0)

    def test_a_rule_bounds_its_series_by_its_window(self):
        """10k samples 0.1 s apart under a 2 s rule: the series holds the
        window's 21 samples and the one before it, not the run."""
        store = SeriesStore()
        AlertEngine(store, rules=[ThresholdRule("r", "s", 1.0, window_s=2.0)])
        samples = [(i / 10, float(i)) for i in range(10_000)]
        _fill(store, "s", samples)
        assert len(store._series["s"]) <= 22
        now = samples[-1][0]
        assert store.window("s", 2.0, now) == [s for s in samples if now - 2.0 <= s[0]]

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(
            st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0, 2.5]), min_size=1, max_size=60
        ),
        values=st.lists(st.integers(-50, 50), min_size=60, max_size=60),
        horizon=st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0]),
        fraction=st.floats(0.01, 1.0),
        lag=st.sampled_from([0.0, 0.05, 0.5]),
        q=st.sampled_from([0.0, 50.0, 95.0, 100.0]),
    )
    def test_retained_store_answers_as_the_whole_history(
        self, gaps, values, horizon, fraction, lag, q
    ):
        """For any window up to the declared one, queried at or after
        the newest sample, the pruned series answers every windowed
        query exactly as filtering the unbounded history does."""
        store = SeriesStore()
        store.retain("s", horizon)
        history = []
        t = 0.0
        for gap, value in zip(gaps, values):
            t += gap
            store.record("s", t, value)
            history.append((t, float(value)))
        window_s, now = horizon * fraction, t + lag
        cutoff = now - window_s
        expected = [(at, v) for at, v in history if cutoff <= at <= now]
        assert store.window("s", window_s, now) == expected
        vals = [v for _, v in expected]
        assert store.avg("s", window_s, now) == (
            sum(vals) / len(vals) if vals else None
        )
        assert store.percentile("s", window_s, now, q) == (
            float(np.percentile(vals, q)) if vals else None
        )
        two = len(expected) >= 2
        assert store.delta("s", window_s, now) == (
            expected[-1][1] - expected[0][1] if two else None
        )
        elapsed = expected[-1][0] - expected[0][0] if two else 0.0
        assert store.rate("s", window_s, now) == (
            (expected[-1][1] - expected[0][1]) / elapsed if elapsed > 0 else None
        )

    def test_scrape_flattens_every_instrument_kind(self):
        """Every declared numeric leaf a source returns — counter,
        gauge, or a ``{count, sum_s}`` pair, at any depth — becomes a
        series; an undeclared leaf does not."""
        hub = TelemetryHub()
        hub.register_source(
            "stack",
            lambda: {
                "reqs": {"a": 3, "b": 1},
                "depth": 7.0,
                "lat": {"count": 2, "sum_s": 0.5},
                "flag": True,
                "name": "x",
                "missing": None,
            },
        )
        hub.register_source("bare", lambda: 4)
        store = SeriesStore()
        declared = (
            "src:bare",
            "src:stack.depth",
            "src:stack.lat.count",
            "src:stack.lat.sum_s",
            "src:stack.reqs.a",
        )
        for series in declared + ("src:stack.flag", "src:stack.name"):
            store.retain(series, 1.0)
        assert store.scrape(hub, now=1.0) == 5
        assert store.names() == declared
        assert store.latest("src:stack.lat.sum_s") == (1.0, 0.5)

    def test_scrape_with_nothing_declared_calls_no_source(self):
        hub = TelemetryHub()
        calls = []
        hub.register_source("stack", lambda: calls.append(1) or {"n": 1})
        store = SeriesStore()
        store.retain("not_a_source_series", 1.0)
        assert store.scrape(hub, now=0.0) == 0
        assert calls == [] and store.names() == ()

    def test_scrape_pulls_only_the_sources_declared_series_name(self):
        hub = TelemetryHub()
        calls = []
        for name in ("a", "a.b", "ab"):
            hub.register_source(name, lambda name=name: calls.append(name) or {"n": 1})
        store = SeriesStore()
        store.retain("src:a.b.n", 1.0)
        assert store.scrape(hub, now=0.0) == 1
        # "a" is pulled too: its payload could hold a "b" dict.
        assert calls == ["a", "a.b"]
        assert store.names() == ("src:a.b.n",)

    def test_scrape_raises_on_a_declared_series_nothing_feeds(self):
        hub = TelemetryHub()
        hub.register_source("runtime", lambda: {"items_served": 1})
        store = SeriesStore()
        store.retain("src:runtime.items_served", 1.0)
        store.retain("src:runtme.items_served", 1.0)
        with pytest.raises(ObsLoopError, match=r"src:runtme\.items_served"):
            store.scrape(hub, now=0.0)

    def test_scrape_records_nothing_for_an_unreported_leaf(self):
        """A registered source that omits a declared leaf this scrape
        (an empty lane's depth) is not an error."""
        depths = {}
        hub = TelemetryHub()
        hub.register_source("wfq_lanes", lambda: {"depths": dict(depths)})
        store = SeriesStore()
        store.retain("src:wfq_lanes.depths.a", 1.0)
        assert store.scrape(hub, now=0.0) == 0
        depths["a"] = 3
        assert store.scrape(hub, now=0.1) == 1
        assert store.latest("src:wfq_lanes.depths.a") == (0.1, 3.0)

    def test_scrape_survives_a_raising_source(self):
        hub = TelemetryHub()
        hub.register_source("ok", lambda: {"n": 1})

        def _broken():
            raise RuntimeError("mid-churn")

        hub.register_source("broken", _broken)
        store = SeriesStore()
        store.retain("src:ok.n", 1.0)
        store.retain("src:broken.n", 1.0)
        assert store.scrape(hub, now=0.0) == 1
        assert store.latest("src:ok.n") == (0.0, 1.0)
        assert not any(n.startswith("src:broken") for n in store.names())

    @pytest.mark.parametrize("history", [[1, 2], (1, 2), []])
    def test_scrape_rejects_a_list_payload_by_path(self, history):
        """A list in a payload used to be dropped without a word — how
        stage latencies, fleet events and SLO breaches never reached
        the store. Any list in a pulled source raises, declared or not."""
        hub = TelemetryHub()
        hub.register_source("stack", lambda: {"a": {"events": history}, "n": 1})
        store = SeriesStore()
        store.retain("src:stack.n", 1.0)
        with pytest.raises(ObsLoopError, match=r"src:stack\.a\.events"):
            store.scrape(hub, now=0.0)


class TestThresholdRule:
    def test_avg_over_threshold(self):
        store = SeriesStore()
        rule = ThresholdRule("r", "s", threshold=5.0, window_s=0.6)
        AlertEngine(store, rules=[rule])
        _fill(store, "s", [(0.0, 1.0), (0.5, 9.0), (1.0, 9.0)])
        hit, detail = rule.active(store, now=1.0)
        assert hit and detail["value"] == pytest.approx(9.0)

    def test_percentile_and_last_aggregates(self):
        store = SeriesStore()
        p90 = ThresholdRule("p", "s", threshold=8.0, window_s=1.0, agg="p90")
        last = ThresholdRule(
            "l", "s", threshold=9.0, window_s=1.0, agg="last", op=">="
        )
        AlertEngine(store, rules=[p90, last])
        _fill(store, "s", [(float(i) / 10, float(i)) for i in range(10)])
        assert p90.active(store, now=0.9)[0]
        assert last.active(store, now=0.9)[0]

    def test_missing_data_is_inactive(self):
        rule = ThresholdRule("r", "absent", threshold=0.0)
        store = SeriesStore()
        AlertEngine(store, rules=[rule])
        assert rule.active(store, now=0.0) == (False, {})

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
        rule = BurnRateRule("b", "hot", fast_window_s=0.3, slow_window_s=2.0)
        AlertEngine(store, rules=[rule])
        # Long cold history, then a short spike: fast window clears the
        # threshold, the slow window still averages below it.
        _fill(store, series, [(t / 10, 0.0) for t in range(20)])
        _fill(store, series, [(2.0 + t / 10, 10.0) for t in range(3)])
        hit, _ = rule.active(store, now=2.2)
        assert not hit  # a blip is not a burn
        # Sustained burn: both windows now average above threshold.
        _fill(store, series, [(2.3 + t / 10, 10.0) for t in range(18)])
        hit, detail = rule.active(store, now=4.0)
        assert hit
        assert detail["fast_burn"] >= BURN_RULE_THRESHOLD
        assert detail["slow_burn"] >= BURN_RULE_THRESHOLD
        assert detail["threshold"] == BURN_RULE_THRESHOLD

    def test_labels_identify_tenant_and_kind(self):
        rule = BurnRateRule("b", "hot")
        assert rule.labels == {"kind": "burn", "tenant": "hot"}

    def test_validation(self):
        with pytest.raises(ObsLoopError):
            BurnRateRule("b", "t", fast_window_s=2.0, slow_window_s=1.0)
        # The threshold is a constant and there is no extra hold: the
        # slow window is the debounce.
        assert BURN_RULE_THRESHOLD > 0 and BurnRateRule("b", "t").for_s == 0.0
        for option in ("threshold", "for_s"):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                BurnRateRule("b", "t", **{option: 1.0})


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
        sampler = AdaptiveSampler(tracer)
        sampler.update(0.0, ("hot",))
        # 10x the base rate, under the 0.5 ceiling.
        assert SAMPLER_ESCALATION == 10.0 and SAMPLER_MAX_RATE == 0.5
        assert tracer.effective_rate("hot") == pytest.approx(0.1)
        assert tracer.effective_rate("light") == pytest.approx(0.01)
        assert sampler.peak_rates == {"hot": pytest.approx(0.1)}
        assert sampler.escalations == {"hot": 1}

    def test_max_rate_caps_the_escalation(self):
        tracer = Tracer(sample_rate=0.2)
        sampler = AdaptiveSampler(tracer)
        sampler.update(0.0, ("hot",))
        assert tracer.effective_rate("hot") == pytest.approx(SAMPLER_MAX_RATE)

    def test_decay_steps_back_and_clears_override(self):
        tracer = Tracer(sample_rate=0.01)
        sampler = AdaptiveSampler(tracer)
        sampler.update(0.0, ("hot",))
        sampler.update(1.0, ())
        # Geometric step toward base: 0.01 + (0.1 - 0.01) * 0.5.
        assert SAMPLER_DECAY == 0.5
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
        # The constants sit in the ranges the control step needs, and
        # the sampler takes no keyword to move them.
        assert SAMPLER_ESCALATION > 1 and 0 < SAMPLER_MAX_RATE <= 1 and 0 < SAMPLER_DECAY < 1
        for option in ("escalation", "max_rate", "decay"):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                AdaptiveSampler(Tracer(), **{option: 0.5})


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
        policy = ReactiveSLOPolicy(base=base)
        observation = _obs(
            routable=2,
            max_workers=4,
            alerts=[_burn_alert("hot")],
            demands=[_demand(rate=100.0, weighted=80.0)],
        )
        policy.plan(observation)
        planned = base.seen[-1].demands[0]
        assert REACTIVE_BOOST == 1.5
        assert planned.arrival_rate_rps == pytest.approx(150.0)
        assert planned.weighted_arrival_rate_rps == pytest.approx(120.0)
        assert policy.last_mode == "scale_out" and policy.boosts == 1

    def test_overload_shaped_burn_sheds_at_the_door(self):
        gateway = _FakeGateway()
        policy = ReactiveSLOPolicy(base=_RecordingPolicy(), gateway=gateway)
        observation = _obs(
            routable=4,
            max_workers=4,
            alerts=[_burn_alert("hot")],
            demands=[_demand(tenant_rates=[("hot", 600.0), ("light", 40.0)])],
        )
        policy.plan(observation)
        # Half the burner's measured 600 rps.
        assert REACTIVE_SHED_FRACTION == 0.5
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
        # The constants sit in the ranges the reactions need, and the
        # policy takes no keyword to move them.
        assert REACTIVE_BOOST >= 1 and 0 < REACTIVE_SHED_FRACTION < 1
        assert REACTIVE_MIN_SHED_RATE_RPS > 0
        for option in ("boost", "shed_fraction", "min_shed_rate_rps"):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                ReactiveSLOPolicy(**{option: 0.5})

    def test_a_shed_cap_never_falls_below_the_floor(self):
        gateway = _FakeGateway()
        policy = ReactiveSLOPolicy(base=_RecordingPolicy(), gateway=gateway)
        trickle = REACTIVE_MIN_SHED_RATE_RPS  # half of it is under the floor
        policy.plan(
            _obs(
                routable=4,
                alerts=[_burn_alert("hot")],
                demands=[_demand(tenant_rates=[("hot", trickle)])],
            )
        )
        assert gateway.tightened == {"hot": REACTIVE_MIN_SHED_RATE_RPS}


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


def serve_full_stack(store=None, rules=(), sampler=False):
    """Two tenants at 400 rps of ``matminer_util`` for 1.5 s — about twice
    what the two workers serve — through a gateway, a fleet controller
    and an :class:`ObservabilityLoop` over a full ``build_hub`` hub. The
    backlog this builds puts latency past the monitor's 250 ms SLO, so
    breaches, fleet events and burn alerts exist. ``rules`` go to the
    loop's engine; ``sampler`` adds an :class:`AdaptiveSampler` on the
    tracer."""
    from types import SimpleNamespace

    from repro.core.fleet import FleetController
    from repro.core.telemetry import SLOBurnMonitor, build_hub
    from repro.gateway import TenantPolicy
    from tests.gateway.test_gateway import build_gateway, requests_at

    tracer = Tracer(sample_rate=0.05)
    monitor = SLOBurnMonitor()
    testbed, gateway, tokens = build_gateway(
        {"a": TenantPolicy(name="a"), "b": TenantPolicy(name="b", weight=2.0)},
        tracer=tracer,
        slo_monitor=monitor,
    )
    runtime = gateway.runtime
    store = store if store is not None else SeriesStore()
    engine = AlertEngine(store, rules=rules)
    controller = FleetController(
        runtime,
        provision_worker=testbed.add_fleet_worker,
        min_workers=2,
        max_workers=2,
        gateway=gateway,
        slo_monitor=monitor,
        alert_engine=engine,
    )
    hub = build_hub(
        runtime=runtime,
        gateway=gateway,
        controller=controller,
        tracer=tracer,
        monitor=monitor,
    )
    loop = ObservabilityLoop(
        testbed.clock,
        hub,
        store=store,
        engine=engine,
        monitor=monitor,
        sampler=AdaptiveSampler(tracer) if sampler else None,
    )
    runtime.attach_controller(loop, controller)
    results = gateway.serve(
        [
            request
            for tenant in ("a", "b")
            for request in requests_at(
                400.0, 1.5, tokens[tenant], servable="matminer_util", args=("Fe2O3",)
            )
        ]
    )
    assert sum(r.completed for r in results) >= 1000
    return SimpleNamespace(
        clock=testbed.clock,
        runtime=runtime,
        hub=hub,
        loop=loop,
        controller=controller,
        monitor=monitor,
    )


class TestScrapeIsHistoryIndependent:
    """A scrape reads cumulative state, never the sample history: on a
    full ``build_hub`` stack with a thousand settled requests behind it
    and every number its sources report declared, the loop neither
    computes a percentile nor copies a sample list, and every declared
    number reaches the store."""

    def test_full_stack_scrape_touches_no_history_and_drops_nothing(
        self, monkeypatch
    ):
        import numpy

        from repro.core.metrics import StageLatencyCollector

        stack = serve_full_stack()
        hub, loop, monitor = stack.hub, stack.loop, stack.monitor
        assert monitor.breaches and stack.controller.events
        stages = stack.runtime.stage_metrics
        queue_wait_s = stages.stage_sum("queue_wait", "matminer_util")
        for source, payload in hub.snapshot()["sources"].items():
            for leaf in _numeric_leaves(f"src:{source}", payload):
                loop.store.retain(leaf, 1.0)

        def _history(*args, **kwargs):
            raise AssertionError("a scrape must not read sample history")

        for owner, name in (
            (numpy, "percentile"),
            (numpy, "median"),
            (StageLatencyCollector, "samples"),
        ):
            monkeypatch.setattr(owner, name, _history)
        loop.scrape(stack.clock.now())

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
        assert payloads["stage_latency"]["stages"]["matminer_util.queue_wait"] == {
            "count": stages.count("queue_wait", "matminer_util"),
            "sum_s": pytest.approx(queue_wait_s),
        }
        assert payloads["slo_burn"] == {"count": len(monitor.breaches)}
        assert payloads["fleet_events"] == {"count": len(stack.controller.events)}


class TestDeclaredSourceSeries:
    def test_a_threshold_rule_over_a_src_series_fires_under_load(self):
        """The rule's declaration alone makes the loop record its
        ``src:`` series; nothing records it by hand."""
        rule = ThresholdRule(
            "serving",
            "src:runtime.items_served",
            threshold=100.0,
            window_s=0.5,
            agg="rate",
        )
        stack = serve_full_stack(rules=[rule])
        store = stack.loop.store
        assert store.names() == (
            burn_series("a"),
            burn_series("b"),
            "src:runtime.items_served",
        )
        assert store.rate(rule.series, rule.window_s, stack.clock.now()) is not None
        assert ("serving", "firing") in {
            (t.rule, t.state) for t in stack.loop.engine.transitions
        }
