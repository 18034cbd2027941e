"""Unit tests for timing metrics collection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import (
    StageLatencyCollector,
    TenantUsageCollector,
    TimingSummary,
)


class TestTimingSummaryOf:
    """The one summary implementation, against the direct NumPy calls
    the collector bodies used to spell out."""

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1
        )
    )
    def test_equals_the_direct_numpy_computation(self, samples):
        values = np.array(samples)
        expected = TimingSummary(
            servable="m",
            metric="request_time",
            count=len(samples),
            median=float(np.median(values)),
            p5=float(np.percentile(values, 5)),
            p95=float(np.percentile(values, 95)),
            mean=float(values.mean()),
        )
        assert TimingSummary.of(samples, "m", "request_time") == expected
        # ... and through each collector, bit for bit.
        stages = StageLatencyCollector()
        for value in samples:
            stages.record("dispatch", "m", value)
        assert stages.summarize("dispatch", "m") == TimingSummary.of(
            samples, "m", "dispatch"
        )

    def test_empty_raises_key_error_through_every_collector(self):
        with pytest.raises(KeyError):
            TimingSummary.of([], "m", "request_time")
        with pytest.raises(KeyError):
            StageLatencyCollector().summarize("dispatch", "m")


class TestStageLatencyCollector:
    def _collector(self):
        collector = StageLatencyCollector()
        for wait in (0.001, 0.002, 0.003):
            collector.record("queue_wait", "noop", wait)
        collector.record("queue_wait", "cifar10", 0.010)
        collector.record("inference", "noop", 0.005)
        return collector

    def test_record_and_count(self):
        collector = self._collector()
        assert collector.count("queue_wait", "noop") == 3
        assert collector.count("queue_wait") == 4
        assert collector.count() == 5
        stages = collector.snapshot()["stages"]
        assert sorted({key.split(".")[0] for key in stages}) == ["cifar10", "noop"]

    def test_unknown_stage_rejected(self):
        collector = self._collector()
        with pytest.raises(ValueError):
            collector.record("teleport", "noop", 0.001)

    def test_negative_sample_rejected(self):
        collector = self._collector()
        with pytest.raises(ValueError):
            collector.record("dispatch", "noop", -0.1)

    def test_summarize_per_servable(self):
        collector = self._collector()
        summary = collector.summarize("queue_wait", "noop")
        assert summary.count == 3
        assert summary.median == pytest.approx(0.002)
        assert summary.metric == "queue_wait"

    def test_summarize_aggregates_across_servables(self):
        collector = self._collector()
        summary = collector.summarize("queue_wait")
        assert summary.count == 4
        assert summary.servable == "*"

    def test_summarize_empty_raises(self):
        collector = self._collector()
        with pytest.raises(KeyError):
            collector.summarize("dispatch")

    def test_snapshot_is_cumulative_counts_and_sums_not_summaries(self):
        collector = self._collector()
        collector.record_pod_share("noop", "w0/noop-1", 0.25)
        assert collector.snapshot() == {
            "stages": {
                "noop.inference": {"count": 1, "sum_s": pytest.approx(0.005)},
                "cifar10.queue_wait": {"count": 1, "sum_s": pytest.approx(0.010)},
                "noop.queue_wait": {"count": 3, "sum_s": pytest.approx(0.006)},
            },
            "pod_busy_s": {"noop/w0/noop-1": 0.25},
            "pod_chunks": {"noop/w0/noop-1": 1},
        }


class TestTenantUsageCollector:
    def test_snapshot_is_cumulative_counters_and_a_latency_sum(self):
        usage = TenantUsageCollector()
        usage.record_admitted("lab", "noop")
        usage.record_admitted("lab", "noop")
        usage.record_admitted("idle", "noop")
        usage.record_denied("lab", "rejected_rate_limit")
        usage.record_completion("lab", 0.25)
        usage.record_completion("lab", 0.5, ok=False)
        assert usage.snapshot() == {
            "tenants": {
                "idle": {
                    "admitted": 1,
                    "completed": 0,
                    "failed": 0,
                    "denied": {},
                    "in_progress": 1,
                    "latency": {"count": 0, "sum_s": 0.0},
                },
                "lab": {
                    "admitted": 2,
                    "completed": 1,
                    "failed": 1,
                    "denied": {"rejected_rate_limit": 1},
                    "in_progress": 0,
                    "latency": {"count": 2, "sum_s": 0.75},
                },
            }
        }


class TestSamplesSince:
    def _collector_with(self, n):
        collector = StageLatencyCollector()
        for i in range(n):
            collector.record("queue_wait", "noop", 0.001 * (i + 1))
        return collector

    def test_windowed_reads(self):
        collector = self._collector_with(3)
        cursor = collector.count("queue_wait", "noop")
        assert collector.samples_since("queue_wait", "noop", 0) == [
            0.001,
            0.002,
            0.003,
        ]
        collector.record("queue_wait", "noop", 0.004)
        assert collector.samples_since("queue_wait", "noop", cursor) == [0.004]

    def test_empty_window(self):
        collector = self._collector_with(2)
        assert collector.samples_since("queue_wait", "noop", 2) == []
        assert collector.samples_since("queue_wait", "ghost", 0) == []

    def test_validation(self):
        collector = self._collector_with(1)
        with pytest.raises(ValueError):
            collector.samples_since("ghost", "noop", 0)
        with pytest.raises(ValueError):
            collector.samples_since("queue_wait", "noop", -1)


class TestWindowedSamples:
    def _collector(self):
        collector = StageLatencyCollector()
        for t, wait in ((1.0, 0.010), (2.0, 0.020), (3.0, 0.030)):
            collector.record("queue_wait", "noop", wait, at=t)
        collector.record("queue_wait", "noop", 0.999)  # untimestamped
        return collector

    def test_window_is_half_open(self):
        collector = self._collector()
        assert collector.samples_in_window("queue_wait", "noop", 1.0, 3.0) == [
            0.010,
            0.020,
        ]

    def test_untimestamped_samples_fall_outside_every_window(self):
        collector = self._collector()
        everything = collector.samples_in_window(
            "queue_wait", "noop", -1e9, 1e9
        )
        assert 0.999 not in everything
        assert len(everything) == 3

    def test_plain_reads_still_see_all_samples(self):
        collector = self._collector()
        assert len(collector.samples("queue_wait", "noop")) == 4

    def test_unknown_stage_rejected(self):
        collector = self._collector()
        with pytest.raises(ValueError):
            collector.samples_in_window("teleport", "noop", 0.0, 1.0)


class TestPodUtilizationGauge:
    def _collector(self):
        collector = StageLatencyCollector()
        collector.record_pod_share("m", "w0/m-1", 0.030)
        collector.record_pod_share("m", "w0/m-1", 0.010)
        collector.record_pod_share("m", "w0/m-2", 0.020)
        collector.record_pod_share("m", "w1/m-1", 0.020)
        collector.record_pod_share("other", "w0/other-1", 9.0)
        return collector

    def test_cumulative_busy_per_pod(self):
        collector = self._collector()
        assert collector.pod_busy("m") == {
            "w0/m-1": pytest.approx(0.040),
            "w0/m-2": pytest.approx(0.020),
            "w1/m-1": pytest.approx(0.020),
        }
        assert {
            pod: count
            for pod, count in collector.snapshot()["pod_chunks"].items()
            if pod.startswith("m/")
        } == {"m/w0/m-1": 2, "m/w0/m-2": 1, "m/w1/m-1": 1}

    def test_prefix_restricts_to_one_host(self):
        collector = self._collector()
        assert set(collector.pod_busy("m", prefix="w0/")) == {"w0/m-1", "w0/m-2"}

    def test_imbalance_is_max_over_mean(self):
        collector = self._collector()
        # w0 host: busy 0.040 vs 0.020 -> max/mean = 0.040/0.030.
        assert collector.pod_imbalance("m", prefix="w0/") == pytest.approx(
            0.040 / 0.030
        )

    def test_imbalance_none_without_chunks(self):
        assert StageLatencyCollector().pod_imbalance("ghost") is None

    def test_balanced_pods_report_one(self):
        collector = StageLatencyCollector()
        collector.record_pod_share("m", "w0/m-1", 0.5)
        collector.record_pod_share("m", "w0/m-2", 0.5)
        assert collector.pod_imbalance("m") == pytest.approx(1.0)

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError):
            StageLatencyCollector().record_pod_share("m", "w0/m-1", -0.1)

    def test_windowed_busy_overrides_cumulative_history(self):
        """A consumer passing per-interval deltas sees *current*
        imbalance: an ancient straggler no longer skews the gauge."""
        collector = StageLatencyCollector()
        # Early transient: pod 1 was a 3x straggler.
        collector.record_pod_share("m", "w0/m-1", 3.0)
        collector.record_pod_share("m", "w0/m-2", 1.0)
        snapshot = collector.pod_busy("m")
        # Then a perfectly balanced interval.
        collector.record_pod_share("m", "w0/m-1", 1.0)
        collector.record_pod_share("m", "w0/m-2", 1.0)
        window = {
            pod: total - snapshot.get(pod, 0.0)
            for pod, total in collector.pod_busy("m").items()
        }
        assert collector.pod_imbalance("m") > 1.2  # cumulative: skewed
        assert collector.pod_imbalance("m", busy=window) == pytest.approx(1.0)
