"""Unit tests for the servable profile, autoscaling and forecasting extensions."""

import math

import pytest

from repro.core.adaptive import (
    FORECAST_ALPHA,
    FORECAST_BETA,
    ArrivalForecaster,
    Autoscaler,
    ProfileError,
    ServableProfile,
    per_copy_capacity_rps,
    replicas_for_rate,
)
from repro.core.zoo import build_zoo, sample_input
from repro.sim import calibration as cal


@pytest.fixture(scope="module")
def env():
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    for name in ("noop", "matminer_featurize", "inception"):
        testbed.publish_and_deploy(zoo[name])
    return testbed, zoo


class TestServableProfile:
    def test_fit_recovers_linear_model(self):
        profile = ServableProfile("m")
        for n in (1, 5, 10, 50):
            profile.observe(n, 0.002 + 0.001 * n)
        intercept, slope = profile.fit()
        assert intercept == pytest.approx(0.002, abs=1e-6)
        assert slope == pytest.approx(0.001, abs=1e-6)

    def test_fit_needs_two_distinct_sizes(self):
        profile = ServableProfile("m")
        profile.observe(4, 0.01)
        profile.observe(4, 0.011)
        with pytest.raises(ProfileError):
            profile.fit()

    def test_max_batch_for_latency(self):
        profile = ServableProfile("m")
        for n in (1, 10):
            profile.observe(n, 0.002 + 0.001 * n)
        assert profile.max_batch_for_latency(0.012) == 10
        assert profile.max_batch_for_latency(0.0021) == 1  # budget ~ intercept

    def test_invalid_observation(self):
        with pytest.raises(ValueError):
            ServableProfile("m").observe(0, 0.1)

    def test_invalid_budget(self):
        profile = ServableProfile("m")
        for n in (1, 10):
            profile.observe(n, 0.002 + 0.001 * n)
        for budget in (0, -0.01):
            with pytest.raises(ValueError):
                profile.max_batch_for_latency(budget)


class TestAutoscaler:
    def test_saturation_matches_fig7_model(self, env):
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor)
        expected = math.ceil(
            (cal.SERVABLE_SHIM_S + cal.inference_cost("inception"))
            / cal.PARSL_DISPATCH_S
        )
        assert scaler.saturation_replicas("inception") == expected
        assert 10 <= expected <= 22  # the ~15-replica knee

    def test_recommendation_scales_with_load(self, env):
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor)
        low = scaler.recommend("inception", 30.0)
        high = scaler.recommend("inception", 300.0)
        assert low < high

    def test_recommendation_capped_at_saturation(self, env):
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor)
        huge = scaler.recommend("inception", 1e6)
        assert huge == scaler.saturation_replicas("inception")

    def test_autoscale_applies(self, env):
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor)
        decision = scaler.autoscale("matminer_featurize", 100.0)
        assert decision.applied
        assert (
            testbed.parsl_executor.replicas("matminer_featurize")
            == decision.recommended_replicas
        )

    def test_scaled_deployment_meets_demand(self, env):
        """End-to-end: autoscaled replicas actually sustain the rate."""
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor)
        rate = 80.0  # requests/second
        scaler.autoscale("matminer_featurize", rate)
        n = 300
        makespan = testbed.parsl_executor.submit_stream(
            "matminer_featurize", [sample_input("matminer_featurize")] * n
        )
        assert n / makespan >= rate * 0.9

    def test_unknown_servable(self, env):
        testbed, _ = env
        with pytest.raises(ProfileError):
            Autoscaler(testbed.parsl_executor).recommend("ghost", 1.0)

    def test_negative_rate_rejected(self, env):
        testbed, _ = env
        with pytest.raises(ValueError):
            Autoscaler(testbed.parsl_executor).recommend("inception", -1.0)


class TestAutoscalerEdgeCases:
    def test_zero_arrival_rate_holds_floor(self, env):
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor, min_replicas=2)
        assert scaler.recommend("inception", 0.0) == 2
        assert Autoscaler(testbed.parsl_executor).recommend("inception", 0.0) == 1

    def test_saturation_knee_equality(self, env):
        """A rate whose demand lands exactly on the knee is served at the
        knee — neither clamped below it nor pushed past it."""
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor)
        knee = scaler.saturation_replicas("inception")
        rate = knee / scaler.task_cost("inception")
        assert math.ceil(rate * scaler.task_cost("inception")) == knee
        assert scaler.recommend("inception", rate) == knee
        # Pushing demand past the knee still returns the knee.
        assert scaler.recommend("inception", rate * 2) == knee

    def test_max_replicas_clamps_below_saturation(self, env):
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor, max_replicas=3)
        assert scaler.saturation_replicas("inception") > 3
        assert scaler.recommend("inception", 1e6) == 3

    def test_task_cost_is_public(self, env):
        testbed, _ = env
        scaler = Autoscaler(testbed.parsl_executor)
        expected = cal.SERVABLE_SHIM_S + cal.inference_cost("inception")
        assert scaler.task_cost("inception") == pytest.approx(expected)


class TestExecutorAccessors:
    def test_deployed_servables_and_get_servable(self, env):
        testbed, zoo = env
        executor = testbed.parsl_executor
        assert set(executor.deployed()) == {
            "noop",
            "matminer_featurize",
            "inception",
        }
        assert executor.get_servable("noop") is zoo["noop"]

    def test_get_servable_unknown_raises(self, env):
        from repro.core.executors import ExecutorError

        testbed, _ = env
        with pytest.raises(ExecutorError):
            testbed.parsl_executor.get_servable("ghost")


class TestSharedCapacityModel:
    def test_capacity_monotone_in_replicas_until_knee(self):
        cost = cal.inference_cost("cifar10")
        caps = [per_copy_capacity_rps(cost, 16, r) for r in range(1, 17)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))
        # Past the knee (R >= B) every chunk is one item: no more gain.
        assert per_copy_capacity_rps(cost, 16, 32) == pytest.approx(caps[-1])

    def test_replicas_for_rate_is_minimal(self):
        cost = cal.inference_cost("cifar10")
        for rate in (10.0, 100.0, 250.0, 400.0):
            want = replicas_for_rate(cost, 16, rate)
            assert per_copy_capacity_rps(cost, 16, want) >= rate or want == 16
            if want > 1:
                assert per_copy_capacity_rps(cost, 16, want - 1) < rate

    def test_replicas_for_rate_zero_rate_holds_floor(self):
        assert replicas_for_rate(0.01, 16, 0.0) == 1

    def test_replicas_for_rate_saturates_at_knee(self):
        # An unattainable rate returns the knee, not max_replicas: pods
        # beyond ceil(B/R) == 1 add busy cost but no capacity.
        assert replicas_for_rate(0.05, 8, 1e9, max_replicas=64) == 8
        assert replicas_for_rate(0.05, 8, 1e9, max_replicas=4) == 4

    def test_replicas_for_rate_validation(self):
        with pytest.raises(ValueError):
            replicas_for_rate(0.01, 16, -1.0)
        with pytest.raises(ValueError):
            replicas_for_rate(0.01, 16, 1.0, max_replicas=0)


class TestUnifiedAutoscaler:
    """Regression: Fig. 7 replica sizing matches the shared capacity model.

    Before PR 5 the Autoscaler sized replicas from the streaming cost
    model even when it was scaling the coalesced micro-batch path —
    systematically under-provisioning batch-heavy traffic. In coalesced
    mode (max_batch_size > 1) it must now invert exactly
    per_copy_capacity_rps, the model the fleet controller plans
    copies from.
    """

    def test_coalesced_recommendation_matches_shared_model(self, env):
        testbed, zoo = env
        scaler = Autoscaler(testbed.parsl_executor, max_batch_size=16)
        cost = cal.inference_cost("inception")
        for rate in (5.0, 50.0, 150.0, 300.0):
            assert scaler.recommend("inception", rate) == replicas_for_rate(
                cost, 16, rate, max_replicas=scaler.max_replicas
            )

    def test_coalesced_recommendation_meets_rate(self, env):
        testbed, zoo = env
        scaler = Autoscaler(testbed.parsl_executor, max_batch_size=16)
        rate = 150.0
        replicas = scaler.recommend("inception", rate)
        assert (
            per_copy_capacity_rps(cal.inference_cost("inception"), 16, replicas)
            >= rate
        )

    def test_streaming_mode_is_bit_for_bit_legacy(self, env):
        testbed, zoo = env
        legacy = Autoscaler(testbed.parsl_executor)
        rate = 40.0
        expected = min(
            math.ceil(rate * legacy.task_cost("inception")),
            legacy.saturation_replicas("inception"),
        )
        assert legacy.recommend("inception", rate) == expected

    def test_bounds_respected_in_coalesced_mode(self, env):
        testbed, zoo = env
        scaler = Autoscaler(
            testbed.parsl_executor,
            min_replicas=2,
            max_replicas=3,
            max_batch_size=16,
        )
        assert scaler.recommend("inception", 0.0) == 2
        assert scaler.recommend("inception", 1e9) == 3

    def test_invalid_batch_size(self, env):
        testbed, zoo = env
        with pytest.raises(ValueError):
            Autoscaler(testbed.parsl_executor, max_batch_size=0)


class TestArrivalForecaster:
    def test_empty_history_projects_zero(self):
        forecaster = ArrivalForecaster()
        forecast = forecaster.forecast("ghost", at_time_s=10.0)
        assert forecast.rate_rps == 0.0
        assert forecaster.keys() == []

    def test_flat_load_projects_flat(self):
        forecaster = ArrivalForecaster()
        for i in range(20):
            forecaster.observe("m", i * 0.25, 100.0)
        forecast = forecaster.forecast("m", 20 * 0.25 + 2.0)
        assert forecast.rate_rps == pytest.approx(100.0, rel=0.02)
        assert abs(forecast.trend_per_s) < 1.0

    def test_linear_ramp_extrapolates(self):
        forecaster = ArrivalForecaster()
        # rate(t) = 50 + 20 t, sampled every 250 ms for 5 s.
        for i in range(21):
            t = i * 0.25
            forecaster.observe("m", t, 50.0 + 20.0 * t)
        forecast = forecaster.forecast("m", 5.0 + 2.0)
        assert forecast.rate_rps == pytest.approx(50.0 + 20.0 * 7.0, rel=0.10)
        assert forecast.trend_per_s == pytest.approx(20.0, rel=0.15)

    def test_step_spike_projects_above_observed(self):
        forecaster = ArrivalForecaster()
        for i in range(8):
            forecaster.observe("m", i * 0.25, 100.0)
        # The spike's rising edge as an EWMA would see it.
        forecaster.observe("m", 2.0, 400.0)
        forecaster.observe("m", 2.25, 650.0)
        forecast = forecaster.forecast("m", 2.25 + 2.0)
        # Trend extrapolation runs ahead of the smoothed level: the
        # whole point of forecasting is beating the EWMA to the spike.
        assert forecast.rate_rps > 650.0

    def test_decay_after_burst_bottoms_out_at_zero(self):
        forecaster = ArrivalForecaster()
        for i in range(8):
            forecaster.observe("m", i * 0.25, 800.0)
        for i in range(8, 28):
            forecaster.observe("m", i * 0.25, max(800.0 - 100.0 * (i - 7), 0.0))
        forecast = forecaster.forecast("m", 28 * 0.25 + 2.0)
        assert 0.0 <= forecast.rate_rps < 100.0

    def test_unordered_samples_rejected(self):
        forecaster = ArrivalForecaster()
        forecaster.observe("m", 1.0, 10.0)
        with pytest.raises(ValueError):
            forecaster.observe("m", 0.5, 10.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ArrivalForecaster().observe("m", 0.0, -1.0)

    def test_parameter_validation(self):
        # The smoothing gains are constants in the ranges Holt's method
        # needs; the forecaster takes no keyword to move them.
        assert 0 < FORECAST_ALPHA <= 1 and 0 < FORECAST_BETA <= 1
        for kwargs in ({"alpha": 0.3}, {"beta": 0.05}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                ArrivalForecaster(**kwargs)

    def test_repeated_timestamp_refreshes_level_only(self):
        forecaster = ArrivalForecaster()
        forecaster.observe("m", 1.0, 100.0)
        forecaster.observe("m", 1.0, 200.0)
        forecast = forecaster.forecast("m", 1.0)
        assert forecast.trend_per_s == 0.0
        assert forecast.rate_rps == pytest.approx(
            FORECAST_ALPHA * 200.0 + (1 - FORECAST_ALPHA) * 100.0
        )


class TestHoltTrendOnly:
    """The forecaster is Holt's trend with two parameters, and its
    arithmetic is pinned to the digit."""

    #: Irregular spacing, one repeated timestamp (level-only refresh)
    #: and one step spike.
    SAMPLES = (
        (0.0, 120.0), (0.25, 118.5), (0.55, 121.25), (0.8, 119.0),
        (0.8, 123.0),
        (1.3, 120.5), (1.42, 122.0),
        (1.75, 640.0),
        (2.0, 655.5), (2.6, 610.0), (2.61, 612.5), (3.2, 590.0),
    )

    def test_golden_sequence_is_bit_for_bit(self):
        """Literals recorded from the default forecaster before the
        seasonal and damping paths were removed: the trend-only
        arithmetic every consumer ever saw must not move (``==``, not
        approx)."""
        forecaster = ArrivalForecaster()
        for time_s, rate in self.SAMPLES:
            forecaster.observe("m", time_s, rate)
        forecast = forecaster.forecast("m", self.SAMPLES[-1][0] + 2.06)
        assert (forecast.level, forecast.trend_per_s, forecast.rate_rps) == (
            683.8021296990785,
            160.25735718169284,
            1013.9322854933657,
        )

    def test_removed_options_are_not_accepted(self):
        for kwargs in (
            {"gamma": 0.3},
            {"trend_damping": 0.5},
            {"seasonal_autodetect": True},
        ):
            with pytest.raises(TypeError):
                ArrivalForecaster(**kwargs)
